import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from saddlenet.graphs import (
    laplacian,
    metropolis_mixing,
    mixing_from_laplacian,
    path_graph,
    random_connected_graph,
    ring_graph,
    star_graph,
)
from saddlenet.inclusion import (
    AgentInclusion,
    _product_space_problem,
    consensus_gap,
    inclusion_init,
    inclusion_run,
    inclusion_step,
    pg_extra_init,
    pg_extra_run,
    pg_extra_step,
    product_space_reference,
    stepsize_bound,
    uniform_lipschitz,
)
from saddlenet.instances import random_inclusion_agents
from saddlenet.operators import affine_forward, l1_prox, linear_forward, zero_prox
from saddlenet.primal_dual import StepSizeError, forb_run
from saddlenet.trace import StoppingRule


def identity_agents(n, lipschitz=1.0):
    """Agents with trivial resolvents and B_i(x) = x."""
    fwd = linear_forward(np.eye(1), lipschitz=lipschitz)
    return [AgentInclusion(resolvent=zero_prox(), forward=fwd) for _ in range(n)]


def shifted_agents(centers):
    """B_i(x) = x - c_i, zero resolvents; the network solves x* = mean(c)."""
    out = []
    for c in centers:
        c = np.asarray(c, dtype=float)
        fwd = affine_forward(np.eye(c.size), -c, lipschitz=1.0)
        out.append(AgentInclusion(resolvent=zero_prox(), forward=fwd))
    return out


# ---------------------------------------------------------------------------
# step-size bound
# ---------------------------------------------------------------------------

def test_stepsize_bound_hand_values():
    ring = metropolis_mixing(ring_graph(3))  # lambda_min = 0
    assert stepsize_bound(ring, 1.0) == pytest.approx(0.25)
    path = metropolis_mixing(path_graph(2))  # lambda_min = 0
    assert stepsize_bound(path, 4.0) == pytest.approx(0.0625)


def test_stepsize_bound_is_inf_at_zero_lipschitz_and_rejects_a_negative_one():
    mixing = metropolis_mixing(ring_graph(3))
    assert stepsize_bound(mixing, 0.0) == np.inf
    with pytest.raises(ValueError):
        stepsize_bound(mixing, -1.0)


def test_uniform_lipschitz_takes_worst_agent():
    agents = identity_agents(2, lipschitz=1.0) + identity_agents(1, lipschitz=3.0)
    assert uniform_lipschitz(agents) == 3.0


def test_bound_is_open_at_the_right_endpoint():
    mixing = metropolis_mixing(ring_graph(3))
    agents = identity_agents(3)
    bound = stepsize_bound(mixing, 1.0)
    x0 = np.ones((3, 1))
    with pytest.raises(StepSizeError):
        inclusion_init(agents, mixing, x0, bound)
    inclusion_init(agents, mixing, x0, 0.999 * bound)  # must not raise


# ---------------------------------------------------------------------------
# bootstrap and single rounds
# ---------------------------------------------------------------------------

def test_init_hand_value():
    # scalar agents with B_i(x) = x, tau = 0.1, all-ones start: u1 = 0.9
    mixing = metropolis_mixing(ring_graph(3))
    state = inclusion_init(identity_agents(3), mixing, np.ones((3, 1)), 0.1)
    assert_allclose(state.u, 0.9 * np.ones((3, 1)), atol=0)
    assert_array_equal(state.x, state.u)  # identity resolvent
    # W 1 = 1 keeps the dual sum at 0; b = tau x, and e = g - (2 b - tau x0)
    assert_array_equal(state.g, np.zeros((3, 1)))
    assert_allclose(state.b, 0.09 * np.ones((3, 1)), rtol=1e-15)
    assert_allclose(state.e, -0.08 * np.ones((3, 1)), rtol=1e-14)


def test_premix_hand_value():
    # averaging W on a two-agent path sends (1, -1) to (0, 0) before stepping
    mixing = mixing_from_laplacian(path_graph(2), 2.0)
    fwd = linear_forward(np.zeros((1, 1)), lipschitz=1.0)
    agents = [AgentInclusion(zero_prox(), fwd) for _ in range(2)]
    x0 = np.array([[1.0], [-1.0]])
    state = inclusion_init(agents, mixing, x0, 0.1, premix=True)
    assert_allclose(state.u, np.zeros((2, 1)), atol=0)


def test_single_agent_init_is_a_reflected_forward_backward_step():
    # W = [1] on one agent removes the network entirely
    mixing = metropolis_mixing(path_graph(2))

    class Solo:
        n = 1
        w = np.eye(1)
        lambda_min = 1.0

        @staticmethod
        def apply(x):
            return x

    agents = [AgentInclusion(l1_prox(0.5), linear_forward(np.eye(2)))]
    x0 = np.array([[2.0, -1.0]])
    state = inclusion_init(agents, Solo(), x0, 0.3)
    expected = l1_prox(0.5)(0.3, x0[0] - 0.3 * x0[0])
    assert_allclose(state.x[0], expected, atol=0)


def test_step_validates_shapes():
    mixing = metropolis_mixing(ring_graph(3))
    agents = identity_agents(3)
    with pytest.raises(ValueError):
        inclusion_init(agents, mixing, np.ones(3), 0.1)  # 1-D start
    with pytest.raises(ValueError):
        inclusion_init(agents, mixing, np.ones((4, 1)), 0.1)  # wrong agent count
    with pytest.raises(ValueError):
        inclusion_init(identity_agents(4), mixing, np.ones((4, 1)), 0.1)


# ---------------------------------------------------------------------------
# consensus gap
# ---------------------------------------------------------------------------

def test_consensus_gap_zero_on_agreement():
    assert consensus_gap(np.tile([1.0, 2.0], (4, 1))) == 0.0


def test_consensus_gap_hand_value():
    x = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert consensus_gap(x) == pytest.approx(1.0)


def test_consensus_gap_empty():
    assert consensus_gap(np.zeros((0, 3))) == 0.0


# ---------------------------------------------------------------------------
# agreement with the explicit product-space method
# ---------------------------------------------------------------------------

def test_recursion_equals_explicit_coupling_reference():
    rng = np.random.default_rng(0)
    for seed in range(5):
        agents = random_inclusion_agents(4, 3, seed=seed)
        mixing = metropolis_mixing(ring_graph(4))
        tau = 0.5 * stepsize_bound(mixing, uniform_lipschitz(agents))
        x0 = rng.standard_normal((4, 3))
        iters = 30
        ref = product_space_reference(agents, mixing, x0, tau, iters)
        state = inclusion_init(agents, mixing, x0, tau)
        assert_allclose(state.x, ref[0], atol=1e-12)
        for k in range(1, iters):
            state = inclusion_step(agents, mixing, state, tau)
            assert_allclose(state.x, ref[k], atol=1e-10)


def test_premix_variants_agree_too():
    agents = random_inclusion_agents(5, 2, seed=9)
    mixing = metropolis_mixing(ring_graph(5))
    tau = 0.4 * stepsize_bound(mixing, uniform_lipschitz(agents))
    x0 = np.random.default_rng(9).standard_normal((5, 2))
    ref = product_space_reference(agents, mixing, x0, tau, 20, premix=True)
    state = inclusion_init(agents, mixing, x0, tau, premix=True)
    assert_allclose(state.x, ref[0], atol=1e-12)
    for k in range(1, 20):
        state = inclusion_step(agents, mixing, state, tau)
        assert_allclose(state.x, ref[k], atol=1e-10)


def test_product_space_coupling_annihilates_consensus_rows():
    graphs = [path_graph(n) for n in range(2, 8)]
    graphs += [ring_graph(n) for n in range(3, 8)]
    graphs += [star_graph(n) for n in range(3, 8)]
    graphs += [random_connected_graph(9, density=0.3, seed=s) for s in range(4)]
    for g in graphs:
        lam_max = float(np.linalg.eigvalsh(laplacian(g)).max())
        for mixing in (metropolis_mixing(g), mixing_from_laplacian(g, 0.75 * lam_max)):
            h = 2
            k = _product_space_problem(random_inclusion_agents(g.n, h, seed=0), mixing, h).k
            # K 1 = 0 up to the roundoff of one product
            assert np.abs(k @ np.ones(g.n * h)).max() <= g.n * np.finfo(float).eps
            assert_allclose(k @ k, np.kron((np.eye(g.n) - mixing.w) / 2.0, np.eye(h)), atol=1e-14)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_network_averages_the_agent_targets():
    centers = [np.array([1.0, 0.0]), np.array([3.0, 2.0]), np.array([-1.0, 4.0])]
    agents = shifted_agents(centers)
    mixing = metropolis_mixing(ring_graph(3))
    tau = 0.9 * stepsize_bound(mixing, 1.0)
    state, trace = inclusion_run(agents, mixing, np.zeros((3, 2)), tau,
                                 stop=StoppingRule(tol=1e-13, max_iters=20000))
    assert trace.converged
    assert consensus_gap(state.x) < 1e-10
    assert_allclose(state.x.mean(axis=0), np.mean(centers, axis=0), atol=1e-9)


def test_run_trace_conventions():
    agents = shifted_agents([np.array([1.0]), np.array([-1.0])])
    mixing = metropolis_mixing(path_graph(2))
    tau = 0.5 * stepsize_bound(mixing, 1.0)
    reference = np.array([0.0])
    state, trace = inclusion_run(agents, mixing, np.ones((2, 1)), tau,
                                 stop=StoppingRule(tol=1e-11, max_iters=5000),
                                 reference=reference)
    rows = trace.rows
    assert rows[0].iteration == 1  # bootstrap counts as the first round
    assert all(r.consensus_gap_x is not None for r in rows)
    assert rows[-1].distance_to_reference < 1e-8
    iters = [r.iteration for r in rows]
    assert iters == list(range(1, len(rows) + 1))


def test_matching_solution_across_premix_choice():
    agents = shifted_agents([np.array([2.0]), np.array([0.0]), np.array([1.0])])
    mixing = metropolis_mixing(ring_graph(3))
    tau = 0.8 * stepsize_bound(mixing, 1.0)
    stop = StoppingRule(tol=1e-13, max_iters=20000)
    plain, _ = inclusion_run(agents, mixing, np.ones((3, 1)), tau, stop=stop)
    mixed, _ = inclusion_run(agents, mixing, np.ones((3, 1)), tau, stop=stop, premix=True)
    assert_allclose(plain.x.mean(axis=0), [1.0], atol=1e-9)
    assert_allclose(mixed.x.mean(axis=0), [1.0], atol=1e-9)


# ---------------------------------------------------------------------------
# the smooth-gradient baseline
# ---------------------------------------------------------------------------

def test_pg_extra_matches_main_recursion_for_constant_forward_maps():
    # with constant B rows both gradient differences vanish identically,
    # so the two recursions produce bitwise identical iterates
    centers = [np.array([1.0, -1.0]), np.array([0.5, 0.5]), np.array([0.0, 2.0])]
    agents = [
        AgentInclusion(l1_prox(0.1), affine_forward(np.zeros((2, 2)), -c, lipschitz=1.0))
        for c in centers
    ]
    mixing = metropolis_mixing(ring_graph(3))
    tau = 0.5 * stepsize_bound(mixing, 1.0)
    x0 = np.random.default_rng(2).standard_normal((3, 2))
    a = inclusion_init(agents, mixing, x0, tau)
    b = pg_extra_init(agents, mixing, x0, tau)
    for _ in range(40):
        assert_array_equal(a.x, b.x)
        a = inclusion_step(agents, mixing, a, tau)
        b = pg_extra_step(agents, mixing, b, tau)


def test_pg_extra_solves_decentralized_least_squares_with_l1():
    # agents hold quadratics h_i = ||x - c_i||^2 / 2 and a shared l1 weight;
    # the centralized solution comes from a single-machine splitting run
    rng = np.random.default_rng(12)
    centers = [rng.standard_normal(2) for _ in range(4)]
    agents = [
        AgentInclusion(l1_prox(0.05), affine_forward(np.eye(2), -c, lipschitz=1.0))
        for c in centers
    ]
    mixing = metropolis_mixing(ring_graph(4))
    tau = 0.9 * stepsize_bound(mixing, 1.0)
    state, trace = pg_extra_run(agents, mixing, np.zeros((4, 2)), tau,
                                stop=StoppingRule(tol=1e-13, max_iters=50000))
    assert trace.converged

    total = affine_forward(4 * np.eye(2), -np.sum(centers, axis=0), lipschitz=4.0)
    central, central_trace = forb_run(l1_prox(0.2), total, np.zeros(2), 0.9 / 8.0,
                                      stop=StoppingRule(tol=1e-14, max_iters=100000))
    assert central_trace.converged
    assert_allclose(state.x.mean(axis=0), central.x, atol=1e-8)


def test_pg_extra_step_size_gate():
    agents = identity_agents(3)
    mixing = metropolis_mixing(ring_graph(3))
    bound = (1.0 + mixing.lambda_min) / 1.0
    with pytest.raises(StepSizeError):
        pg_extra_init(agents, mixing, np.ones((3, 1)), bound)
    pg_extra_init(agents, mixing, np.ones((3, 1)), 0.99 * bound)


@pytest.mark.parametrize("run", [inclusion_run, pg_extra_run])
def test_run_stops_on_a_non_finite_residual(run):
    # B(x) = 1000 x declared with L = 0.1: the step passes the gate, the
    # iterates blow up, and the run ends with a verdict instead of a crash
    n = 3
    mixing = metropolis_mixing(ring_graph(n))
    agents = [AgentInclusion(zero_prox(), linear_forward(1000.0 * np.eye(1), lipschitz=0.1))
              for _ in range(n)]
    tau = 0.9 * stepsize_bound(mixing, 0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        state, trace = run(agents, mixing, np.ones((n, 1)), tau,
                           StoppingRule(tol=1e-10, max_iters=100_000))
    assert trace.status == "diverged" and not trace.converged
    assert 1 < trace.iterations < 1000
    assert np.all(np.isfinite(state.x))
    assert all(np.isfinite(r.fp_residual) for r in trace.rows)


def test_run_status_names_budget_and_convergence():
    agents = identity_agents(3)
    mixing = metropolis_mixing(ring_graph(3))
    x0 = np.arange(3.0).reshape(3, 1)
    _, trace = inclusion_run(agents, mixing, x0, 0.1, StoppingRule(tol=1e-12, max_iters=5))
    assert trace.status == "budget" and trace.iterations == 5
    _, trace = inclusion_run(agents, mixing, x0, 0.1, StoppingRule(tol=1e-12, max_iters=50_000))
    assert trace.status == "converged"
