"""The set-up's linear algebra and the mixing product at a thousand agents and
more: the certified Metropolis matrix, its smallest eigenvalue and every
agent's Lipschitz constant are exact, and runs on the neighbour-gather product
track runs on the dense ``w @ x`` (no timing is asserted here)."""

import numpy as np

from saddlenet.graphs import _metropolis_weights, metropolis_mixing, random_connected_graph
from saddlenet.inclusion import inclusion_run, stepsize_bound, uniform_lipschitz
from saddlenet.instances import random_inclusion_agents
from saddlenet.trace import StoppingRule


def test_mixing_and_lipschitz_constants_are_exact_at_a_thousand_agents():
    g = random_connected_graph(1000, 0.01, 11)
    mixing = metropolis_mixing(g)
    assert np.array_equal(mixing.w, _metropolis_weights(g))
    assert abs(mixing.lambda_min - float(np.linalg.eigvalsh(mixing.w)[0])) <= 1e-12

    agents = random_inclusion_agents(1000, 8, 11)
    for agent in agents:
        m = agent.forward.jacobian
        assert agent.forward.lipschitz == float(np.linalg.svd(m, compute_uv=False)[0])


class DenseMixing:
    """The plain ``w @ x`` of a mixing matrix, whatever product the matrix picked."""

    def __init__(self, mixing):
        self.w, self.n, self.lambda_min = mixing.w, mixing.n, mixing.lambda_min

    def apply(self, x):
        return self.w @ x


def gather_and_dense_runs(n, density, stop):
    """One inclusion run on the matrix's own product and one on ``w @ x``, same instance."""
    mixing = metropolis_mixing(random_connected_graph(n, density, 11))
    assert mixing.product == "gather"
    agents = random_inclusion_agents(n, 8, 11, pool=("zero", "quadratic"))
    tau = 0.9 * stepsize_bound(mixing, uniform_lipschitz(agents))
    x0 = np.random.default_rng(1).uniform(-0.1, 0.1, (n, 8))
    return mixing, [inclusion_run(agents, m, x0, tau, stop) for m in (mixing, DenseMixing(mixing))]


def test_the_gather_product_runs_the_random500_inclusion_like_dense():
    """The ``random500-inclusion`` instance, above the crossover: same verdict and rounds."""
    _, ((gather, gather_trace), (dense, dense_trace)) = gather_and_dense_runs(
        500, 0.02, StoppingRule(tol=1e-8, max_iters=20_000))
    assert gather_trace.status == dense_trace.status == "converged"
    assert gather_trace.iterations == dense_trace.iterations
    assert np.abs(gather.x - dense.x).max() <= 1e-10


def test_the_gather_product_at_two_thousand_agents():
    mixing, ((gather, gather_trace), (dense, dense_trace)) = gather_and_dense_runs(
        2000, 0.005, StoppingRule(tol=0.0, max_iters=20))
    x = np.random.default_rng(2).standard_normal((2000, 8))
    bound = 1e-12 * np.abs(x).max() * np.abs(mixing.w).sum(axis=1).max()
    assert np.abs(mixing.apply(x) - mixing.w @ x).max() <= bound
    assert gather_trace.iterations == dense_trace.iterations == 20
    assert np.abs(gather.x - dense.x).max() <= 1e-10
