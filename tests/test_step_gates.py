"""Seeded corpus for the step-size gates of every solver.

Each instance is built from powers of two (agent counts, mixing weights,
``lambda_min``, Lipschitz constants, ``sigma`` and ``||K||``), so every
bound is exact in binary: a step one ulp below the bound must run one step,
and a step at the bound must raise :class:`StepSizeError`.
"""

import dataclasses

import numpy as np
import pytest

from saddlenet.graphs import MixingMatrix, certify_mixing, complete_graph
from saddlenet.inclusion import (
    AgentInclusion,
    inclusion_init,
    inclusion_step,
    pg_extra_init,
    pg_extra_step,
)
from saddlenet.minmax import AgentSaddleProblem, BlockMixing, minmax_init, minmax_step
from saddlenet.operators import bilinear_coupling, linear_forward, zero_prox
from saddlenet.primal_dual import (
    PrimalDualProblem,
    StepSizeError,
    StepSizes,
    forb_run,
    pdhg_run,
    pdtr_run,
)
from saddlenet.trace import StoppingRule

SEEDS = range(8)
ONE_STEP = StoppingRule(tol=0.0, max_iters=1)


def below(bound):
    return float(np.nextafter(bound, 0.0))


def exact_mixing(n, shrink):
    """``W = I - L / (n 2^shrink)`` on the complete graph: ``lambda_min = 1 - 2^-shrink``."""
    g = complete_graph(n)
    w = np.eye(n) - (n * np.eye(n) - np.ones((n, n))) / (n * 2.0**shrink)
    lam = 1.0 - 2.0**-shrink
    cert = certify_mixing(w, g)
    assert cert.passed and abs(cert.lambda_min - lam) <= 1e-12
    return MixingMatrix(w, g, lam)


def draw(seed):
    """Agent count, block width, Lipschitz constant and two mixings of one corpus entry."""
    rng = np.random.default_rng(seed)
    n = 2 ** int(rng.integers(1, 4))
    h = int(rng.integers(1, 4))
    lip = 2.0 ** int(rng.integers(-2, 3))
    shrinks = rng.permutation([1, 2])
    return rng, n, h, lip, exact_mixing(n, shrinks[0]), exact_mixing(n, shrinks[1])


def skew(rng, size, lip):
    """A skew (monotone) matrix with norm at most ``lip / 2``; ``lip`` is declared."""
    a = rng.standard_normal((size, size))
    s = a - a.T
    return 0.5 * lip * s / max(np.linalg.norm(s, 2), 1e-300)


def inclusion_agents(rng, n, h, lip):
    return [AgentInclusion(zero_prox(), linear_forward(skew(rng, h, lip), lipschitz=lip))
            for _ in range(n)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("reflect", [True, False], ids=["inclusion", "pg_extra"])
def test_decentralized_inclusion_gates(seed, reflect):
    rng, n, h, lip, mixing, _ = draw(seed)
    agents = inclusion_agents(rng, n, h, lip)
    bound = (1.0 + mixing.lambda_min) / (4.0 * lip if reflect else lip)
    init, step = (inclusion_init, inclusion_step) if reflect else (pg_extra_init, pg_extra_step)
    x0 = rng.standard_normal((n, h))
    state = step(agents, mixing, init(agents, mixing, x0, below(bound)), below(bound))
    assert np.all(np.isfinite(state.x))
    with pytest.raises(StepSizeError):
        init(agents, mixing, x0, bound)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("zero_coupling", [False, True], ids=["coupled", "zero-coupling"])
def test_minmax_gate_takes_the_smaller_lambda_min(seed, zero_coupling):
    rng, n, _, lip, w1, w2 = draw(seed)
    p, d = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    m = np.zeros((p, d)) if zero_coupling else 0.5 * lip * rng.standard_normal((p, d))
    coupling = bilinear_coupling(m=m)
    if zero_coupling:
        lip = 1.0  # no curvature: the stacked agents declare L = 1
        assert coupling.lipschitz == 0.0
    else:
        m /= max(np.linalg.norm(m, 2), 1e-300)
        coupling = dataclasses.replace(bilinear_coupling(m=0.5 * lip * m), lipschitz=lip)
    problems = [AgentSaddleProblem(zero_prox(), zero_prox(), coupling) for _ in range(n)]
    mixing = BlockMixing(w1, w2)
    bound = (1.0 + min(w1.lambda_min, w2.lambda_min)) / (4.0 * lip)
    x0, y0 = rng.standard_normal((n, p)), rng.standard_normal((n, d))
    state = minmax_step(problems, mixing, minmax_init(problems, mixing, x0, y0, below(bound)),
                        below(bound))
    assert np.all(np.isfinite(state.x)) and np.all(np.isfinite(state.y))
    with pytest.raises(StepSizeError):
        minmax_init(problems, mixing, x0, y0, bound)


def centralized(seed):
    """A primal-dual problem, ``sigma`` and a start pair.

    ``L = 2^k``, ``sigma = 2^j`` and ``||K|| = 2^m`` with ``k + 1 = j + 2m``.
    """
    rng = np.random.default_rng(seed)
    h = int(rng.integers(1, 5))
    k_exp, m_exp = int(rng.integers(-2, 3)), int(rng.integers(-1, 2))
    lip, k_norm, sigma = 2.0**k_exp, 2.0**m_exp, 2.0 ** (k_exp + 1 - 2 * m_exp)
    problem = PrimalDualProblem(
        resolvent=zero_prox(),
        forward=linear_forward(skew(rng, h, lip), lipschitz=lip),
        dual_resolvent=zero_prox(),
        k=k_norm * np.eye(h),
        k_norm=k_norm,
    )
    return problem, sigma, (rng.standard_normal(h), rng.standard_normal(h))


@pytest.mark.parametrize("seed", SEEDS)
def test_pdtr_gate(seed):
    problem, sigma, init = centralized(seed)
    # 2 tau L + tau sigma ||K||^2 = 4 tau L, so the bound is 1 / (4 L)
    bound = 1.0 / (4.0 * problem.lipschitz)
    _, trace = pdtr_run(problem, init, StepSizes(below(bound), sigma), ONE_STEP)
    assert trace.iterations == 1
    with pytest.raises(StepSizeError):
        pdtr_run(problem, init, StepSizes(bound, sigma), ONE_STEP)


@pytest.mark.parametrize("seed", SEEDS)
def test_pdhg_gate(seed):
    problem, sigma, init = centralized(seed)
    bound = 1.0 / (sigma * problem.k_norm**2)
    _, trace = pdhg_run(problem, init, StepSizes(below(bound), sigma), ONE_STEP)
    assert trace.iterations == 1
    with pytest.raises(StepSizeError):
        pdhg_run(problem, init, StepSizes(bound, sigma), ONE_STEP)


@pytest.mark.parametrize("seed", SEEDS)
def test_forb_gate(seed):
    problem, _, (x0, _) = centralized(seed)
    bound = 1.0 / (2.0 * problem.lipschitz)
    _, trace = forb_run(problem.resolvent, problem.forward, x0, below(bound), ONE_STEP)
    assert trace.iterations == 1
    with pytest.raises(StepSizeError):
        forb_run(problem.resolvent, problem.forward, x0, bound, ONE_STEP)
