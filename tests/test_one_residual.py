"""One stopping residual: every runner measures its whole state's change in one norm.

A round's residual is the Frobenius norm of the change of its primal rows
and of its dual together: ``(x, g)`` for the decentralized runs, whose dual
sum ``g`` grows by the ``half`` of the old rows, and ``(x, y)`` for the
product-space methods.  Each test writes that norm out from the public
states, so a run whose dual keeps moving cannot report ``converged``.
"""

import math

import numpy as np
import pytest

from saddlenet.graphs import (
    BlockMixing,
    lazy_metropolis_mixing,
    metropolis_mixing,
    path_graph,
    random_connected_graph,
    ring_graph,
)
from saddlenet.inclusion import (
    AgentInclusion,
    _Kernels,
    _OneProduct,
    inclusion_init,
    inclusion_run,
    inclusion_step,
    pg_extra_init,
    pg_extra_run,
    pg_extra_step,
    stepsize_bound,
    uniform_lipschitz,
)
from saddlenet.instances import random_inclusion_agents, random_saddle_problems
from saddlenet.minmax import (
    minmax_init,
    minmax_run,
    minmax_step,
    product_space_problem,
    saddle_residual,
    stack_agents,
    stepsize_bound_pair,
    sum_saddle_problem,
)
from saddlenet.operators import box_prox, linear_forward
from saddlenet.primal_dual import (
    ForbState,
    PdtrState,
    StepSizes,
    condat_vu_run,
    condat_vu_step,
    forb_run,
    forb_step,
    pdhg_run,
    pdhg_step,
    pdtr_run,
    pdtr_step,
)
from saddlenet.trace import StoppingRule

ROUNDS = 60


def frobenius(*parts):
    """The norm of the parts laid end to end."""
    return float(np.linalg.norm(np.concatenate([np.ravel(part) for part in parts])))


def assert_residuals(trace, want):
    assert trace.iterations == len(want) == ROUNDS
    assert list(trace.column("fp_residual")) == pytest.approx(want, rel=1e-10, abs=0.0)


# ---------------------------------------------------------------------------
# disjoint boxes: the rows stop, the dual sum does not
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", [metropolis_mixing, lazy_metropolis_mixing])
def test_two_agents_with_disjoint_boxes_run_out_of_budget(scheme):
    # the rows settle at -1 and 1, where half = (W x - x) / 2 = (1/2, -1/2)
    # is added to g every round: the problem has no solution
    agents = [AgentInclusion(box_prox(-2.0, -1.0), linear_forward(0.5 * np.eye(1))),
              AgentInclusion(box_prox(1.0, 2.0), linear_forward(0.5 * np.eye(1)))]
    mixing = scheme(path_graph(2))
    tau = 0.9 * stepsize_bound(mixing, uniform_lipschitz(agents))
    state, trace = inclusion_run(agents, mixing, np.zeros((2, 1)), tau,
                                 StoppingRule(tol=1e-10, max_iters=5000))
    assert trace.status == "budget" and trace.iterations == 5000
    assert state.x.ravel().tolist() == [-1.0, 1.0]
    assert trace.rows[-1].consensus_gap_x == 1.0
    assert trace.final_residual == math.sqrt(0.5) == frobenius(state.half)


# ---------------------------------------------------------------------------
# the decentralized runs: the change of (x, g)
# ---------------------------------------------------------------------------

def stacked_residuals(first, step, x0, g0, stacked=lambda s: s):
    """The written-out residuals of ``ROUNDS`` public steps from the round-0 ``x0`` and ``g0``,
    and the largest change of ``g`` among them."""
    want, dual, state, old_x, old_g = [], 0.0, None, x0, g0
    for k in range(ROUNDS):
        state = first() if k == 0 else step(state)
        new = stacked(state)
        want.append(frobenius(new.x - old_x, new.g - old_g))
        dual = max(dual, frobenius(new.g - old_g))
        old_x, old_g = new.x, new.g
    return want, dual


METHODS = {
    "inclusion": (inclusion_init, inclusion_step, inclusion_run, 0.9),
    "pg_extra": (pg_extra_init, pg_extra_step, pg_extra_run, 1.8),
}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n, h, kernels", [(5, 3, _OneProduct), (40, 4, _Kernels)])
def test_a_stacked_run_stops_on_the_change_of_its_rows_and_dual_sum(method, n, h, kernels):
    init, step, run, share = METHODS[method]
    agents = random_inclusion_agents(n, h, seed=n + h, pool=("zero", "quadratic", "l1"))
    mixing = metropolis_mixing(random_connected_graph(n, 0.5 if n < 10 else 0.1, seed=n))
    tau = share * stepsize_bound(mixing, uniform_lipschitz(agents))
    x0 = np.random.default_rng(n).standard_normal((n, h))
    state, trace = run(agents, mixing, x0, tau, StoppingRule(tol=0.0, max_iters=ROUNDS))
    assert type(state.kernels) is kernels
    want, dual = stacked_residuals(lambda: init(agents, mixing, x0, tau),
                                   lambda s: step(agents, mixing, s, tau), x0, x0 - mixing.apply(x0))
    assert dual > 1e-3
    assert_residuals(trace, want)


def test_a_two_graph_minmax_run_stops_on_the_change_of_both_blocks_and_their_dual_sums():
    n, p, d = 6, 2, 3
    problems = random_saddle_problems(n, p, d, seed=n, coupling_kind="quadratic",
                                      prox_min_params={"weight": 0.05},
                                      prox_max_params={"lo": -1.0, "hi": 1.0})
    w1, w2 = metropolis_mixing(random_connected_graph(n, 0.5, seed=n)), metropolis_mixing(path_graph(n))
    mixing = BlockMixing(w1, w2)
    tau = 0.9 * stepsize_bound_pair(mixing, max(prob.lipschitz for prob in problems))
    rng = np.random.default_rng(n)
    x0, y0 = rng.uniform(-1.0, 1.0, (n, p)), rng.uniform(-1.0, 1.0, (n, d))
    _, _, trace = minmax_run(problems, mixing, x0, y0, tau, StoppingRule(tol=0.0, max_iters=ROUNDS))
    g0 = np.concatenate([x0 - w1.apply(x0), y0 - w2.apply(y0)], axis=1)
    want, dual = stacked_residuals(lambda: minmax_init(problems, mixing, x0, y0, tau),
                                   lambda s: minmax_step(problems, mixing, s, tau),
                                   np.concatenate([x0, y0], axis=1), g0, lambda s: s.stacked)
    assert dual > 1e-3
    assert_residuals(trace, want)


def test_a_forb_run_stops_on_the_norm_of_its_step_bitwise():
    problems = random_saddle_problems(3, 2, 2, seed=8, prox_min_kind="zero", prox_max_kind="zero")
    central = stack_agents([sum_saddle_problem(problems)])[0]
    z0 = np.random.default_rng(9).uniform(-1.0, 1.0, 4)
    tau = 0.4 / central.lipschitz
    _, trace = forb_run(central.resolvent, central.forward, z0, tau,
                        StoppingRule(tol=0.0, max_iters=ROUNDS))
    state, want = ForbState.start(central.forward, z0), []
    for _ in range(ROUNDS):
        new = forb_step(central.resolvent, central.forward, state, tau)
        want.append(float(np.linalg.norm(new.x - state.x)))
        state = new
    assert trace.iterations == ROUNDS and list(trace.column("fp_residual")) == want


# ---------------------------------------------------------------------------
# the product-space methods: the change of (x, y)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("run, step", [(pdtr_run, pdtr_step), (pdhg_run, pdhg_step),
                                       (condat_vu_run, condat_vu_step)],
                         ids=["pdtr", "pdhg", "condat_vu"])
def test_a_product_space_run_stops_on_the_change_of_its_pair(run, step):
    problems = random_saddle_problems(3, 2, 2, seed=8)
    w = metropolis_mixing(ring_graph(3))
    problem = product_space_problem(problems, BlockMixing(w, w))
    tau = 0.5 * stepsize_bound_pair(BlockMixing(w, w), problem.lipschitz)
    steps = StepSizes(tau, 1.0 / tau)
    init = (np.random.default_rng(9).uniform(-1.0, 1.0, problem.primal_dim), np.zeros(problem.dual_dim))
    _, trace = run(problem, init, steps, StoppingRule(tol=0.0, max_iters=ROUNDS))
    state, want, sup = PdtrState.start(problem, *init), [], []
    for _ in range(ROUNDS):
        new = step(problem, state, steps)
        want.append(frobenius(new.x - state.x, new.y - state.y))
        sup.append(max(np.abs(new.x - state.x).max(), np.abs(new.y - state.y).max()))
        state = new
    assert_residuals(trace, want)
    assert list(trace.column("fp_residual")) != pytest.approx(sup, rel=1e-3)


# ---------------------------------------------------------------------------
# the answer's certificate
# ---------------------------------------------------------------------------

def test_the_saddle_residual_is_the_norm_of_one_forb_step_of_the_summed_problem():
    problems = random_saddle_problems(4, 3, 2, seed=5)
    central = stack_agents([sum_saddle_problem(problems)])[0]
    tau = 0.25 / central.lipschitz
    rng = np.random.default_rng(6)
    x, y = rng.standard_normal(3), rng.standard_normal(2)
    z = np.concatenate([x, y])
    # the first reflected step from the start, where x- = x: J(z - tau B(z))
    new = central.resolvent(tau, z - tau * central.forward(z))
    assert saddle_residual(problems, x, y) == pytest.approx(frobenius(new - z), rel=1e-12, abs=0.0)
