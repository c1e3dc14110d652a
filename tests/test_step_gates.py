"""Seeded corpus for the step-size gates of every solver.

Each instance is built from powers of two (agent counts, mixing weights,
``lambda_min``, Lipschitz constants, ``sigma`` and ``||K||``), so every
bound is exact in binary: a step one ulp below the bound must run one step,
and a step at the bound must raise :class:`StepSizeError`.  At ``L = 0`` every
gate is inf, and a negative ``L`` raises on every runner.
"""

import dataclasses

import numpy as np
import pytest

from saddlenet.config import build_problems, declared_lipschitz, parse_config
from saddlenet.graphs import MixingMatrix, certify_mixing, complete_graph
from saddlenet.inclusion import (
    AgentInclusion,
    inclusion_init,
    inclusion_step,
    pg_extra_init,
    pg_extra_step,
    stepsize_bound,
)
from saddlenet.minmax import (
    AgentSaddleProblem,
    BlockMixing,
    minmax_init,
    minmax_run,
    minmax_step,
    stack_agents,
)
from saddlenet.operators import affine_forward, bilinear_coupling, linear_forward, zero_prox
from saddlenet.primal_dual import (
    ForbState,
    PrimalDualProblem,
    StepSizeError,
    StepSizes,
    forb_run,
    forb_step,
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
    # forb is the round of one agent on W = [[1]]: its gate (1 + 1) / (4 L) is 1 / (2 L),
    # checked by forb_run and by the first forb_step alike
    problem, _, (x0, _) = centralized(seed)
    bound = 1.0 / (2.0 * problem.lipschitz)
    _, trace = forb_run(problem.resolvent, problem.forward, x0, below(bound), ONE_STEP)
    assert trace.iterations == 1
    start = ForbState.start(problem.forward, x0)
    assert np.all(np.isfinite(forb_step(problem.resolvent, problem.forward, start, below(bound)).x))
    with pytest.raises(StepSizeError):
        forb_run(problem.resolvent, problem.forward, x0, bound, ONE_STEP)
    with pytest.raises(StepSizeError):
        forb_step(problem.resolvent, problem.forward, start, bound)


def forward_agents(rng, n, h, lip):
    """Agents whose forward is constant (a zero Jacobian and a random offset), declaring ``lip``."""
    return [AgentInclusion(zero_prox(), affine_forward(np.zeros((h, h)), rng.standard_normal(h), lip))
            for _ in range(n)]


@pytest.mark.parametrize("seed", SEEDS)
def test_zero_curvature_admits_any_step_on_every_runner(seed):
    # at L = 0 every gate is inf: B is constant and the recursion is PDHG with
    # tau sigma ||K||^2 = (1 - lambda_min) / 2 < 1, so any tau is inside the theory
    rng, n, h, _, mixing, _ = draw(seed)
    agents = forward_agents(rng, n, h, 0.0)
    x0 = rng.standard_normal((n, h))
    for init in (inclusion_init, pg_extra_init):
        assert np.all(np.isfinite(init(agents, mixing, x0, 1e6).x))
    _, trace = forb_run(agents[0].resolvent, agents[0].forward, x0[0], 1e6, ONE_STEP)
    assert trace.iterations == 1 and np.isfinite(trace.final_residual)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_negative_lipschitz_constant_raises_on_every_runner(seed):
    rng, n, h, _, mixing, _ = draw(seed)
    with pytest.raises(ValueError, match="must be positive"):
        stepsize_bound(mixing, 0.0)
    agents = forward_agents(rng, n, h, -1.0)
    x0 = rng.standard_normal((n, h))
    for init in (inclusion_init, pg_extra_init):
        with pytest.raises(ValueError, match="nonnegative"):
            init(agents, mixing, x0, 0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        forb_run(agents[0].resolvent, agents[0].forward, x0[0], 0.1, ONE_STEP)
    with pytest.raises(ValueError, match="nonnegative"):
        forb_step(agents[0].resolvent, agents[0].forward, ForbState.start(agents[0].forward, x0[0]), 0.1)
    # the min-max runners too, whether every coupling or one declares a negative L
    _, _, _, _, w1, w2 = draw(seed)
    negative = dataclasses.replace(bilinear_coupling(m=np.ones((h, 1))), lipschitz=-1.0)
    for others in (negative, bilinear_coupling(m=np.ones((h, 1)))):
        problems = [AgentSaddleProblem(zero_prox(), zero_prox(), c) for c in [negative] + [others] * (n - 1)]
        y0 = rng.standard_normal((n, 1))
        with pytest.raises(ValueError, match="nonnegative"):
            minmax_init(problems, BlockMixing(w1, w2), x0, y0, 0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            minmax_run(problems, BlockMixing(w1, w2), x0, y0, 0.1, ONE_STEP)


# PG-EXTRA's gate (1 + lambda_min) / L assumes gradients: the CLI runs pg_extra only with
# d = 0, so every agent a config builds there must have a symmetric forward Jacobian
MINIMIZATION_COUPLINGS = {
    "seeded-bilinear": "coupling = bilinear\nseed = {n}",
    "inline-bilinear": "coupling_a = 0.5, -1.0, 2.0",
    "quadratic": "coupling = quadratic\nseed = {n}\nscale = 3.0",
    "zero": "coupling = zero",
}


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("coupling", list(MINIMIZATION_COUPLINGS))
def test_every_config_built_minimization_agent_has_a_symmetric_jacobian(n, coupling):
    cfg = parse_config(f"[problem]\nn = {n}\np = 3\nd = 0\n"
                       + MINIMIZATION_COUPLINGS[coupling].format(n=n) + "\n")
    problems = build_problems(cfg)
    agents = stack_agents(problems, lipschitz=declared_lipschitz(cfg, problems))
    assert len(agents) == n
    for agent in agents:
        jac = agent.forward.jacobian
        assert jac is not None and jac.shape == (3, 3)
        assert np.abs(jac - jac.T).max() <= 1e-14 * max(1.0, np.abs(jac).max())
