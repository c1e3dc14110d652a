import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from saddlenet.graphs import metropolis_mixing, mixing_blocks, path_graph, random_connected_graph, ring_graph
from saddlenet.inclusion import inclusion_init, inclusion_step
from saddlenet.instances import random_saddle_problems, seeded_couplings
from saddlenet.minmax import (
    AgentSaddleProblem,
    BlockMixing,
    minmax_init,
    minmax_run,
    minmax_step,
    product_space_problem,
    saddle_residual,
    stack_agents,
    stack_state,
    stacked_block_mixing,
    stepsize_bound_pair,
    sum_saddle_problem,
)
from saddlenet.operators import bilinear_coupling, l1_prox, quadratic_coupling, zero_prox
from saddlenet.primal_dual import StepSizeError, StepSizes, pdtr_run
from saddlenet.trace import StoppingRule


def xy_agents(n):
    """Identical agents with coupling x*y and no separable terms."""
    return [
        AgentSaddleProblem(zero_prox(), zero_prox(), bilinear_coupling(m=np.array([[1.0]])))
        for _ in range(n)
    ]


def pair_mixing(n):
    w = metropolis_mixing(ring_graph(n))
    return BlockMixing(w, w)


# ---------------------------------------------------------------------------
# block mixing
# ---------------------------------------------------------------------------

def test_block_mixing_requires_matching_sizes():
    with pytest.raises(ValueError):
        BlockMixing(metropolis_mixing(ring_graph(3)), metropolis_mixing(ring_graph(4)))


def test_block_mixing_lambda_min_is_the_worse_one():
    w1 = metropolis_mixing(ring_graph(4))
    w2 = metropolis_mixing(path_graph(4))
    assert BlockMixing(w1, w2).lambda_min == min(w1.lambda_min, w2.lambda_min)


def test_block_mixing_apply_is_columnwise():
    w1 = metropolis_mixing(ring_graph(3))
    for w2 in (metropolis_mixing(path_graph(3)), w1):  # two matrices, then one shared
        mixing = BlockMixing(w1, w2, split=2)
        z = np.arange(15.0).reshape(3, 5)
        out = mixing.apply(z)
        assert_allclose(out[:, :2], w1.w @ z[:, :2])
        assert_allclose(out[:, 2:], w2.w @ z[:, 2:])


def test_block_mixing_apply_needs_split():
    with pytest.raises(ValueError):
        pair_mixing(3).apply(np.ones((3, 2)))


@pytest.mark.parametrize("split", [-1, 1.5, "2", True])
def test_block_mixing_rejects_a_split_that_is_not_a_nonnegative_int(split):
    """``split = -1`` used to mix columns 0-1 over W1 and column 2 over W2."""
    with pytest.raises(ValueError, match="split must be None or a nonnegative int"):
        BlockMixing(metropolis_mixing(ring_graph(4)), metropolis_mixing(path_graph(4)), split=split)


def test_block_mixing_rejects_a_split_wider_than_the_rows():
    """``split = 5`` on rows of width 3 used to never apply W2."""
    w1, w2 = metropolis_mixing(ring_graph(4)), metropolis_mixing(path_graph(4))
    for mixing in (BlockMixing(w1, w2, split=5), BlockMixing(w1, w1, split=5)):
        with pytest.raises(ValueError, match="wider than rows of width 3"):
            mixing.apply(np.ones((4, 3)))
        with pytest.raises(ValueError, match="wider than rows of width 3"):
            mixing_blocks(mixing, 3)
    # a split at the row width is one block; numpy integers are ints
    mixing = BlockMixing(w1, w2, split=np.int64(3))
    assert [name for name, _, _ in mixing_blocks(mixing, 3)] == ["x"]
    assert_allclose(mixing.apply(np.ones((4, 3))), np.ones((4, 3)))


def test_stepsize_bound_pair():
    mixing = pair_mixing(3)  # lambda_min = 0 on the 3-ring
    assert stepsize_bound_pair(mixing, 2.0) == pytest.approx(0.125)
    with pytest.raises(ValueError):
        stepsize_bound_pair(mixing, 0.0)


# ---------------------------------------------------------------------------
# bootstrap and hand values
# ---------------------------------------------------------------------------

def test_init_hand_value():
    # coupling x*y, start (1, 1), tau = 0.1: ux1 = 0.9, uy1 = 1.1
    problems = xy_agents(3)
    state = minmax_init(problems, pair_mixing(3), np.ones((3, 1)), np.ones((3, 1)), 0.1)
    assert_allclose(state.ux, 0.9 * np.ones((3, 1)), atol=0)
    assert_allclose(state.uy, 1.1 * np.ones((3, 1)), atol=0)
    # trivial proxes pass u through
    assert_array_equal(state.x, state.ux)
    assert_array_equal(state.y, state.uy)


def test_shape_and_consistency_validation():
    problems = xy_agents(2)
    mixing = BlockMixing(metropolis_mixing(path_graph(2)), metropolis_mixing(path_graph(2)))
    with pytest.raises(ValueError):
        minmax_init(problems, mixing, np.ones((3, 1)), np.ones((2, 1)), 0.1)
    with pytest.raises(ValueError):
        minmax_init(problems, mixing, np.ones((2, 2)), np.ones((2, 1)), 0.1)
    mixed_dims = [problems[0],
                  AgentSaddleProblem(zero_prox(), zero_prox(),
                                     bilinear_coupling(m=np.ones((2, 1))))]
    with pytest.raises(ValueError):
        minmax_init(mixed_dims, mixing, np.ones((2, 1)), np.ones((2, 1)), 0.1)


def test_step_gate_uses_worst_block():
    problems = xy_agents(4)
    w_good = metropolis_mixing(ring_graph(4))
    w_bad = metropolis_mixing(path_graph(4))
    mixing = BlockMixing(w_good, w_bad)
    bound = (1.0 + mixing.lambda_min) / 4.0  # L = 1 for the x*y coupling
    with pytest.raises(StepSizeError):
        minmax_init(problems, mixing, np.ones((4, 1)), np.ones((4, 1)), bound)
    minmax_init(problems, mixing, np.ones((4, 1)), np.ones((4, 1)), 0.99 * bound)


def test_zero_coupling_uses_declared_unit_bound():
    problems = [AgentSaddleProblem(l1_prox(0.5), zero_prox(),
                                   bilinear_coupling(p=1, d=1))
                for _ in range(3)]
    mixing = pair_mixing(3)
    # lipschitz falls back to 1, so the gate sits at (1 + 0)/4
    with pytest.raises(StepSizeError):
        minmax_init(problems, mixing, np.ones((3, 1)), np.ones((3, 1)), 0.25)
    minmax_init(problems, mixing, np.ones((3, 1)), np.ones((3, 1)), 0.2)


# ---------------------------------------------------------------------------
# equality with the stacked inclusion iteration
# ---------------------------------------------------------------------------

def test_stacked_inclusion_reproduces_minmax_bitwise():
    for seed in range(6):
        n, p, d = 4, 2, 3
        problems = random_saddle_problems(n, p, d, seed=seed,
                                          prox_min_params={"weight": 0.2},
                                          prox_max_params={"lo": -1.5, "hi": 1.5})
        w1 = metropolis_mixing(ring_graph(n))
        w2 = metropolis_mixing(random_connected_graph(n, density=0.5, seed=seed))
        mixing = BlockMixing(w1, w2)
        lip = max(prob.lipschitz for prob in problems)
        tau = 0.45 * stepsize_bound_pair(mixing, lip)
        rng = np.random.default_rng(seed)
        x0, y0 = rng.standard_normal((n, p)), rng.standard_normal((n, d))

        mm = minmax_init(problems, mixing, x0, y0, tau)
        agents = stack_agents(problems)
        stacked_mix = stacked_block_mixing(mixing, problems)
        z0 = np.concatenate([x0, y0], axis=1)
        inc = inclusion_init(agents, stacked_mix, z0, tau)

        for _ in range(25):
            view = stack_state(mm)
            assert_array_equal(view.x, inc.x)
            assert_array_equal(view.u, inc.u)
            assert_array_equal(view.g, inc.g)
            assert_array_equal(view.e, inc.e)
            mm = minmax_step(problems, mixing, mm, tau)
            inc = inclusion_step(agents, stacked_mix, inc, tau)


def test_minmax_step_rebuilds_a_state_without_kernels():
    n, p, d = 4, 2, 3
    problems = random_saddle_problems(n, p, d, seed=8)
    mixing = pair_mixing(n)
    tau = 0.45 * stepsize_bound_pair(mixing, max(prob.lipschitz for prob in problems))
    rng = np.random.default_rng(8)
    state = minmax_init(problems, mixing, rng.standard_normal((n, p)), rng.standard_normal((n, d)), tau)
    bare = dataclasses.replace(state, stacked=dataclasses.replace(state.stacked, kernels=None))
    kept, rebuilt = (minmax_step(problems, mixing, s, tau) for s in (state, bare))
    for name in ("u", "x", "g", "b", "e"):
        assert_array_equal(getattr(rebuilt.stacked, name), getattr(kept.stacked, name))


def test_distinct_block_graphs_change_the_iterates():
    # sanity guard: the second mixing matrix really is applied to y
    n = 4
    problems = xy_agents(n)
    w_ring = metropolis_mixing(ring_graph(n))
    w_path = metropolis_mixing(path_graph(n))
    rng = np.random.default_rng(1)
    x0, y0 = rng.standard_normal((n, 1)), rng.standard_normal((n, 1))
    tau = 0.2 * (1.0 + min(w_ring.lambda_min, w_path.lambda_min)) / 4.0
    a = minmax_init(problems, BlockMixing(w_ring, w_ring), x0, y0, tau)
    b = minmax_init(problems, BlockMixing(w_ring, w_path), x0, y0, tau)
    for _ in range(3):
        a = minmax_step(problems, BlockMixing(w_ring, w_ring), a, tau)
        b = minmax_step(problems, BlockMixing(w_ring, w_path), b, tau)
    assert np.abs(a.y - b.y).max() > 1e-8


# ---------------------------------------------------------------------------
# full runs and certificates
# ---------------------------------------------------------------------------

def test_run_reaches_the_saddle_of_the_sum():
    # quadratic couplings carry curvature, so the run terminates quickly
    n, p, d = 4, 2, 2
    problems = random_saddle_problems(n, p, d, seed=7, coupling_kind="quadratic",
                                      prox_min_kind="zero", prox_max_kind="zero")
    mixing = pair_mixing(n)
    lip = max(prob.lipschitz for prob in problems)
    tau = 0.7 * stepsize_bound_pair(mixing, lip)
    x_star, y_star, trace = minmax_run(problems, mixing, np.zeros((n, p)),
                                       np.zeros((n, d)), tau,
                                       stop=StoppingRule(tol=1e-13, max_iters=50000))
    assert trace.converged
    assert saddle_residual(problems, x_star, y_star) < 1e-9
    # for zero proxes the saddle solves the stacked linear system directly
    summed = sum_saddle_problem(problems).coupling
    assert_allclose(summed.grad_x(x_star, y_star), 0.0, atol=1e-9)
    assert_allclose(summed.grad_y(x_star, y_star), 0.0, atol=1e-9)


def test_trace_carries_both_consensus_gaps_and_reference_distance():
    problems = xy_agents(3)
    mixing = pair_mixing(3)
    reference = (np.zeros(1), np.zeros(1))
    x_star, y_star, trace = minmax_run(problems, mixing, np.ones((3, 1)),
                                       np.ones((3, 1)), 0.2,
                                       stop=StoppingRule(tol=1e-12, max_iters=20000),
                                       reference=reference)
    assert trace.converged
    rows = trace.rows
    assert rows[0].iteration == 1
    assert all(r.consensus_gap_y is not None for r in rows)
    assert rows[-1].distance_to_reference < 1e-8
    assert_allclose(x_star, [0.0], atol=1e-8)
    assert_allclose(y_star, [0.0], atol=1e-8)


def test_saddle_residual_is_a_certificate():
    problems = xy_agents(2)
    assert saddle_residual(problems, np.zeros(1), np.zeros(1)) == 0.0
    assert saddle_residual(problems, np.ones(1), np.ones(1)) > 0.1


def test_sum_saddle_problem_sums_values_and_gradients():
    problems = random_saddle_problems(3, 2, 2, seed=4, prox_min_kind="l1",
                                      prox_min_params={"weight": 0.1},
                                      prox_max_kind="box_indicator",
                                      prox_max_params={"lo": -1.0, "hi": 1.0})
    summed = sum_saddle_problem(problems)
    assert summed.prox_min.params["weight"] == pytest.approx(0.3)
    x, y = np.array([0.4, -0.2]), np.array([0.1, 0.9])
    gx = sum(prob.coupling.grad_x(x, y) for prob in problems)
    assert_allclose(summed.coupling.grad_x(x, y), gx, atol=1e-15)


# ---------------------------------------------------------------------------
# explicit product-space formulation
# ---------------------------------------------------------------------------

def test_product_space_problem_dimensions_and_norm():
    n, p, d = 3, 2, 1
    problems = random_saddle_problems(n, p, d, seed=2)
    mixing = pair_mixing(n)
    prob = product_space_problem(problems, mixing)
    assert prob.primal_dim == n * (p + d)
    assert prob.dual_dim == n * (p + d)
    assert prob.k_norm == pytest.approx(np.sqrt((1.0 - mixing.lambda_min) / 2.0))
    # the coupling matrix annihilates consensus configurations; the square
    # root computes the zero eigenvalue only to sqrt(machine eps)
    z = np.tile(np.arange(1.0, p + d + 1.0), n)
    assert_allclose(prob.k @ z, 0.0, atol=1e-7)


def test_centralized_run_on_product_space_matches_decentralized():
    n, p, d = 4, 2, 2
    problems = random_saddle_problems(n, p, d, seed=11,
                                      prox_min_params={"weight": 0.15})
    mixing = pair_mixing(n)
    lip = max(prob.lipschitz for prob in problems)
    tau = 0.5 * stepsize_bound_pair(mixing, lip)
    rng = np.random.default_rng(11)
    x0, y0 = rng.standard_normal((n, p)), rng.standard_normal((n, d))

    iters = 60
    mm = minmax_init(problems, mixing, x0, y0, tau)
    prob = product_space_problem(problems, mixing)
    z0 = np.concatenate([x0, y0], axis=1).reshape(-1)
    state, _ = pdtr_run(prob, (z0, np.zeros(prob.dual_dim)),
                        StepSizes(tau, 1.0 / tau),
                        stop=StoppingRule(tol=0.0, max_iters=iters))
    for _ in range(iters - 1):
        mm = minmax_step(problems, mixing, mm, tau)
    stacked = np.concatenate([mm.x, mm.y], axis=1).reshape(-1)
    assert_allclose(state.x, stacked, atol=1e-12)


def test_run_stops_on_a_non_finite_residual():
    # a coupling with declared L = 0.01 but true curvature 1000 diverges
    problems = [AgentSaddleProblem(zero_prox(), zero_prox(),
                                   dataclasses.replace(quadratic_coupling(1000.0 * np.eye(1), np.ones((1, 1)),
                                                                          np.eye(1)), lipschitz=0.01))
                for _ in range(3)]
    mixing = pair_mixing(3)
    tau = 0.9 * stepsize_bound_pair(mixing, 0.01)
    with np.errstate(over="ignore", invalid="ignore"):
        x, y, trace = minmax_run(problems, mixing, np.ones((3, 1)), np.ones((3, 1)), tau,
                                 stop=StoppingRule(tol=1e-10, max_iters=100_000))
    assert trace.status == "diverged" and not trace.converged
    assert 1 < trace.iterations < 1000
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))
