import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from saddlenet.operators import (
    ForwardOperator,
    bilinear_coupling,
    box_prox,
    l1_prox,
    linear_forward,
    saddle_forward,
    zero_prox,
)
from saddlenet.primal_dual import (
    ForbState,
    PdtrState,
    PrimalDualProblem,
    StepSizeError,
    StepSizes,
    balanced_step_sizes,
    condat_vu_run,
    condat_vu_step,
    forb_run,
    forb_step,
    frdr_step,
    m_metric,
    metric_lipschitz_bound,
    metric_lipschitz_ratio,
    pdhg_run,
    pdhg_step,
    pdtr_run,
    pdtr_step,
    primal_resolvent_from_dual,
)
from saddlenet.trace import StoppingRule


def identity_problem(k, forward):
    """Problem with trivial resolvents on both sides."""
    return PrimalDualProblem(
        resolvent=zero_prox(), forward=forward, dual_resolvent=zero_prox(), k=k
    )


def random_monotone_problem(seed, p=4, q=3, lip_scale=0.5):
    rng = np.random.default_rng(seed)
    skew = rng.standard_normal((p, p))
    skew = 0.5 * (skew - skew.T)
    sym = rng.standard_normal((p, p))
    sym = 0.1 * (sym @ sym.T)
    b = linear_forward(lip_scale * (skew + sym))
    k = rng.standard_normal((q, p))
    return PrimalDualProblem(
        resolvent=l1_prox(0.1), forward=b, dual_resolvent=box_prox(-1.0, 1.0), k=k
    )


# ---------------------------------------------------------------------------
# step sizes
# ---------------------------------------------------------------------------

def test_step_sizes_must_be_positive():
    with pytest.raises(StepSizeError):
        StepSizes(0.0, 1.0)
    with pytest.raises(StepSizeError):
        StepSizes(1.0, -1.0)


def test_admissibility_is_strict():
    steps = StepSizes(0.25, 1.0)
    assert steps.admissible(lipschitz=1.0, k_norm=np.sqrt(1.9))  # 0.5 + 0.475 < 1
    assert not steps.admissible(lipschitz=1.0, k_norm=np.sqrt(2.0))  # exactly 1


def test_balanced_steps_solve_the_margin_equation():
    for lip, kn in [(1.0, 2.0), (0.0, 1.5), (3.0, 0.7)]:
        s = balanced_step_sizes(lip, kn, margin=0.9)
        assert s.tau == s.sigma
        assert_allclose(2 * s.tau * lip + s.tau * s.sigma * kn**2, 0.9, atol=1e-12)


def test_balanced_steps_degenerate_cases():
    assert balanced_step_sizes(2.0, 0.0).tau == pytest.approx(0.9 / 4.0)
    assert balanced_step_sizes(0.0, 0.0).tau == 0.9 / 2.0  # the step at L = 1
    with pytest.raises(ValueError):
        balanced_step_sizes(1.0, 1.0, margin=1.0)


# ---------------------------------------------------------------------------
# single steps against hand values
# ---------------------------------------------------------------------------

def test_pdtr_first_step_hand_value():
    # identity resolvents, K = [1], B = Id, tau = sigma = 0.2, start (1, 0)
    problem = identity_problem(np.array([[1.0]]), linear_forward(np.eye(1)))
    state = PdtrState.start(problem, np.array([1.0]), np.array([0.0]))
    new = pdtr_step(problem, state, StepSizes(0.2, 0.2))
    # x1 = 1 - 0.2*0 - 0.4*1 + 0.2*1 = 0.8 ; y1 = 0 + 0.2*(2*0.8 - 1) = 0.12
    assert_allclose(new.x, [0.8], atol=0)
    assert_allclose(new.y, [0.12], atol=0)


def test_forb_first_step_hand_value():
    # saddle map of phi(x,y) = x*y from (1,1) with equal history, tau = 0.4
    fwd = saddle_forward(bilinear_coupling(m=np.array([[1.0]])))
    state = ForbState.start(fwd, np.array([1.0, 1.0]))
    new = forb_step(zero_prox(), fwd, state, 0.4)
    assert_allclose(new.x, [0.6, 1.4], atol=0)


def test_pdtr_run_matches_plain_numpy_loop():
    # independent five-line reimplementation of the recursion
    problem = random_monotone_problem(0)
    steps = balanced_step_sizes(problem.lipschitz, problem.k_norm, margin=0.8)
    n_iters = 40
    x0 = np.zeros(problem.primal_dim)
    y0 = np.zeros(problem.dual_dim)
    state, _ = pdtr_run(problem, (x0, y0), steps,
                        stop=StoppingRule(tol=0.0, max_iters=n_iters))

    x, y, bx_prev = x0.copy(), y0.copy(), problem.forward(x0)
    for _ in range(n_iters):
        bx = problem.forward(x)
        x_new = problem.resolvent(
            steps.tau, x - steps.tau * (problem.k.T @ y) - 2 * steps.tau * bx
            + steps.tau * bx_prev)
        y = problem.dual_resolvent(
            steps.sigma, y + steps.sigma * (problem.k @ (2 * x_new - x)))
        x, bx_prev = x_new, bx
    assert_array_equal(state.x, x)
    assert_array_equal(state.y, y)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def test_zero_forward_term_reduces_to_pdhg():
    rng = np.random.default_rng(3)
    k = rng.standard_normal((3, 4))
    problem = PrimalDualProblem(
        resolvent=l1_prox(0.2),
        forward=linear_forward(np.zeros((4, 4)), lipschitz=0.0),
        dual_resolvent=box_prox(-2.0, 2.0),
        k=k,
    )
    steps = balanced_step_sizes(0.0, problem.k_norm, margin=0.9)
    init = (rng.standard_normal(4), rng.standard_normal(3))
    stop = StoppingRule(tol=0.0, max_iters=100)
    a, _ = pdtr_run(problem, init, steps, stop=stop)
    b, _ = pdhg_run(problem, init, steps, stop=stop)
    assert_array_equal(a.x, b.x)
    assert_array_equal(a.y, b.y)


def test_zero_coupling_decouples_into_forb_and_dual_proximal_steps():
    rng = np.random.default_rng(4)
    problem = random_monotone_problem(4)
    problem = PrimalDualProblem(
        resolvent=problem.resolvent,
        forward=problem.forward,
        dual_resolvent=problem.dual_resolvent,
        k=np.zeros((3, 4)),
    )
    steps = StepSizes(0.9 / (2 * problem.lipschitz), 0.7)
    x0, y0 = rng.standard_normal(4), rng.standard_normal(3)
    stop = StoppingRule(tol=0.0, max_iters=60)
    state, _ = pdtr_run(problem, (x0, y0), steps, stop=stop)

    # the reflected forward-backward formula x+ = J(x - 2 tau B(x) + tau B(x-)),
    # x- = x0 at the start, which pdtr with K = 0 computes exactly; forb, the
    # round of one agent, forms 2 tau B(x) - tau B(x-) first, so it agrees to rounding
    tau, x, bx_prev = steps.tau, x0, problem.forward(x0)
    for _ in range(60):
        bx = problem.forward(x)
        x, bx_prev = problem.resolvent(tau, x - 2.0 * tau * bx + tau * bx_prev), bx
    assert_array_equal(state.x, x)
    forb_state, _ = forb_run(problem.resolvent, problem.forward, x0, tau, stop=stop)
    assert np.max(np.abs(forb_state.x - x)) <= 1e-14
    y = y0
    for _ in range(60):
        y = problem.dual_resolvent(steps.sigma, y)
    assert_array_equal(state.y, y)


def test_identity_coupling_matches_reflected_douglas_rachford():
    rng = np.random.default_rng(5)
    n = 3
    skew = rng.standard_normal((n, n))
    skew = 0.5 * (skew - skew.T)
    problem = PrimalDualProblem(
        resolvent=l1_prox(0.3),
        forward=linear_forward(0.4 * skew),
        dual_resolvent=box_prox(-1.0, 1.0),
        k=np.eye(n),
    )
    gamma = 2.0
    sigma = 1.0 / gamma
    tau = 0.9 * gamma / (1.0 + 2.0 * gamma * problem.lipschitz)
    steps = StepSizes(tau, sigma)
    a = PdtrState.start(problem, rng.standard_normal(n), rng.standard_normal(n))
    b = a
    for _ in range(50):
        a = pdtr_step(problem, a, steps)
        b = frdr_step(problem, b, gamma, tau)
        assert_allclose(a.x, b.x, atol=1e-12)
        assert_allclose(a.y, b.y, atol=1e-12)


def test_frdr_requires_identity_coupling():
    problem = identity_problem(np.array([[2.0]]), linear_forward(np.zeros((1, 1)), 0.0))
    state = PdtrState.start(problem, np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError):
        frdr_step(problem, state, 1.0, 0.1)


def test_condat_vu_with_zero_forward_equals_pdhg():
    problem = PrimalDualProblem(
        resolvent=l1_prox(0.2),
        forward=linear_forward(np.zeros((2, 2)), 0.0),
        dual_resolvent=zero_prox(),
        k=np.array([[1.0, -1.0]]),
    )
    steps = StepSizes(0.5, 0.5)
    state = PdtrState.start(problem, np.array([1.0, -2.0]), np.array([0.3]))
    a = condat_vu_step(problem, state, steps)
    b = pdhg_step(problem, state, steps)
    assert_array_equal(a.x, b.x)
    assert_array_equal(a.y, b.y)


def test_moreau_exchange_recovers_primal_prox():
    # resolvent of the inverse of the l1 subdifferential is the box projection
    weight, gamma = 0.7, 1.3
    point = np.array([2.0, -0.4, 0.1, -3.0])
    via_dual = primal_resolvent_from_dual(box_prox(-weight, weight), gamma, point)
    assert_allclose(via_dual, l1_prox(weight)(gamma, point), atol=1e-15)


# ---------------------------------------------------------------------------
# runners: gates, stopping, divergence
# ---------------------------------------------------------------------------

def test_pdtr_rejects_inadmissible_steps():
    problem = identity_problem(np.array([[1.0]]), linear_forward(np.eye(1)))
    with pytest.raises(StepSizeError):
        pdtr_run(problem, (np.zeros(1), np.zeros(1)), StepSizes(0.5, 1.0))


def test_pdtr_and_pdhg_gate_a_diagonal_step_by_its_largest_entry():
    # 2 max tau L + max tau sigma ||K||^2 < 1 suffices for T = diag(tau); the identity
    # resolvent takes a diagonal step
    rng = np.random.default_rng(7)
    skew = rng.standard_normal((3, 3))
    skew = (skew - skew.T) / np.linalg.norm(skew - skew.T, 2)
    problem = PrimalDualProblem(resolvent=lambda t, z: z, forward=linear_forward(skew, 1.0),
                                dual_resolvent=zero_prox(), k=np.eye(3), k_norm=1.0)
    x0, y0 = rng.standard_normal(3), rng.standard_normal(3)
    tau, one = np.array([0.1, 0.2, 0.3]), StoppingRule(tol=0.0, max_iters=1)
    state, trace = pdtr_run(problem, (x0, y0), StepSizes(tau, 1.0), one)
    assert trace.iterations == 1
    assert_allclose(state.x, x0 - tau * (y0 + skew @ x0), rtol=0, atol=1e-15)
    state, trace = pdhg_run(problem, (x0, y0), StepSizes(tau, 1.0), one)
    assert trace.iterations == 1
    assert_allclose(state.x, x0 - tau * y0, rtol=0, atol=1e-15)
    # only the largest entry breaks each bound: 2 * 0.4 + 0.4 >= 1 and 0.3 * 4 >= 1
    with pytest.raises(StepSizeError):
        pdtr_run(problem, (x0, y0), StepSizes(np.array([0.1, 0.2, 0.4]), 1.0), one)
    with pytest.raises(StepSizeError):
        pdhg_run(problem, (x0, y0), StepSizes(tau, 4.0), one)


def test_a_library_prox_refuses_a_diagonal_step_naming_its_shape():
    # a library prox takes one step for its point: a diagonal T raises a ValueError naming
    # tau's shape, where numpy's "truth value of an array ... is ambiguous" was raised
    problem = PrimalDualProblem(resolvent=l1_prox(0.1), forward=linear_forward(0.5 * np.eye(3)),
                                dual_resolvent=zero_prox(), k=np.eye(3))
    with pytest.raises(ValueError, match=r"tau must be .*shape \(3,\)"):
        pdtr_run(problem, (np.zeros(3), np.zeros(3)), StepSizes(np.array([0.1, 0.2, 0.3]), 1.0))


def test_pdhg_gate():
    problem = identity_problem(np.array([[2.0]]), linear_forward(np.zeros((1, 1)), 0.0))
    with pytest.raises(StepSizeError):
        pdhg_run(problem, (np.zeros(1), np.zeros(1)), StepSizes(0.5, 0.5))


def test_forb_gate():
    fwd = linear_forward(np.eye(2))
    with pytest.raises(StepSizeError):
        forb_run(zero_prox(), fwd, np.zeros(2), tau=0.5)


def test_infinite_tolerance_returns_init_unchanged():
    problem = identity_problem(np.array([[1.0]]), linear_forward(np.eye(1)))
    x0, y0 = np.array([3.0]), np.array([-1.0])
    state, trace = pdtr_run(problem, (x0, y0), StepSizes(0.2, 0.2),
                            stop=StoppingRule(tol=np.inf))
    assert_array_equal(state.x, x0)
    assert_array_equal(state.y, y0)
    assert len(trace.rows) == 0
    assert trace.converged


def test_saddle_of_xy_is_origin():
    # min_x max_y x*y through the forward term only (K = 0)
    fwd = saddle_forward(bilinear_coupling(m=np.array([[1.0]])))
    problem = PrimalDualProblem(
        resolvent=zero_prox(),
        forward=fwd,
        dual_resolvent=zero_prox(),
        k=np.zeros((1, 2)),
    )
    steps = StepSizes(0.4, 1.0)
    state, trace = pdtr_run(problem, (np.array([1.0, 1.0]), np.zeros(1)), steps,
                            stop=StoppingRule(tol=1e-12, max_iters=10000))
    assert trace.converged
    assert_allclose(state.x, [0.0, 0.0], atol=1e-8)


def test_condat_vu_diverges_on_skew_coupling_where_pdtr_converges():
    # purely skew forward term: monotone but not cocoercive
    fwd = saddle_forward(bilinear_coupling(m=np.array([[1.0]])))
    problem = PrimalDualProblem(
        resolvent=zero_prox(), forward=fwd, dual_resolvent=zero_prox(),
        k=np.zeros((1, 2)),
    )
    steps = StepSizes(0.4, 1.0)
    init = (np.array([1.0, 1.0]), np.zeros(1))
    stop = StoppingRule(tol=1e-10, max_iters=2000)
    good, good_trace = pdtr_run(problem, init, steps, stop=stop)
    bad, bad_trace = condat_vu_run(problem, init, steps, stop=stop)
    assert good_trace.converged
    assert not bad_trace.converged
    assert np.linalg.norm(bad.x) > 1e3  # the unreflected iteration spirals out


def test_trace_residual_is_the_frobenius_norm_of_the_pair_difference():
    problem = identity_problem(np.array([[1.0]]), linear_forward(np.eye(1)))
    state = PdtrState.start(problem, np.array([1.0]), np.array([0.0]))
    new = pdtr_step(problem, state, StepSizes(0.2, 0.2))
    _, trace = pdtr_run(problem, state, StepSizes(0.2, 0.2),
                        stop=StoppingRule(tol=0.0, max_iters=1))
    dx, dy = float(new.x[0] - state.x[0]), float(new.y[0] - state.y[0])
    assert dx != 0.0 and dy != 0.0  # both blocks move, so the sup norm would differ
    assert trace.rows[0].fp_residual == math.sqrt(dx * dx + dy * dy)


# ---------------------------------------------------------------------------
# the analysis metric
# ---------------------------------------------------------------------------

def test_metric_hand_value():
    metric = m_metric(StepSizes(1.0, 1.0), np.array([[0.5]]))
    z = (np.array([1.0]), np.array([1.0]))
    assert metric.inner(z, z) == pytest.approx(1.0)
    assert metric.norm(z) == pytest.approx(1.0)


def test_metric_block_diagonal_when_uncoupled():
    metric = m_metric(StepSizes(0.5, 0.25), np.zeros((2, 3)))
    z = (np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0]))
    expected = (1 + 4 + 9) / 0.5 + (16 + 25) / 0.25
    assert metric.inner(z, z) == pytest.approx(expected)


def test_metric_requires_positive_definiteness():
    with pytest.raises(StepSizeError):
        m_metric(StepSizes(1.0, 1.0), np.array([[1.0]]))


def test_metric_norm_positive_for_nonzero_vectors():
    rng = np.random.default_rng(8)
    k = rng.standard_normal((2, 3))
    kn = np.linalg.svd(k, compute_uv=False)[0]
    metric = m_metric(StepSizes(0.5, 0.9 / (0.5 * kn**2)), k)
    for _ in range(50):
        z = (rng.standard_normal(3), rng.standard_normal(2))
        assert metric.norm(z) > 0.0


def test_metric_bound_formula_and_gate():
    steps = StepSizes(0.3, 0.5)
    assert metric_lipschitz_bound(steps, 2.0, 1.0) == pytest.approx(0.6 / 0.85)
    with pytest.raises(StepSizeError):
        metric_lipschitz_bound(StepSizes(1.0, 1.0), 1.0, 1.0)


def test_balanced_steps_refuse_a_negative_constant():
    with pytest.raises(ValueError, match="constants must be nonnegative"):
        balanced_step_sizes(-1.0, 1.0)


def test_metric_ratio_attains_bound_for_scaled_identity():
    # K = 0 and B = L*Id make every primal direction extremal
    lip = 0.7
    problem = PrimalDualProblem(
        resolvent=zero_prox(),
        forward=linear_forward(lip * np.eye(3)),
        dual_resolvent=zero_prox(),
        k=np.zeros((2, 3)),
    )
    steps = StepSizes(0.3, 1.0)
    ratio = metric_lipschitz_ratio(problem, steps, samples=64, seed=0)
    assert ratio == pytest.approx(steps.tau * lip, abs=0)
    # the same map without a Jacobian is sampled by calling it; no sample gives 0
    called = replace(problem, forward=ForwardOperator(lambda z: lip * z, lip))
    assert metric_lipschitz_ratio(called, steps, samples=64, seed=0) == pytest.approx(ratio, rel=1e-12)
    assert metric_lipschitz_ratio(problem, steps, samples=0) == 0.0


def test_metric_ratio_bounded_on_random_instances():
    for seed in range(6):
        problem = random_monotone_problem(seed)
        steps = balanced_step_sizes(problem.lipschitz, problem.k_norm, margin=0.8)
        # a diagonal T with the same largest entry: its metric dominates, so the same bound holds
        diagonal = StepSizes(steps.tau * np.linspace(0.25, 1.0, problem.primal_dim), steps.sigma)
        bound = metric_lipschitz_bound(steps, problem.lipschitz, problem.k_norm)
        assert metric_lipschitz_bound(diagonal, problem.lipschitz, problem.k_norm) == bound
        for each in (steps, diagonal):
            ratio = metric_lipschitz_ratio(problem, each, samples=400, seed=seed)
            assert 0 < ratio <= bound * (1 + 1e-9)


def test_the_metric_of_a_diagonal_step_has_the_block_diag_one_over_tau():
    tau = np.array([0.1, 0.2, 0.4])
    metric = m_metric(StepSizes(tau, 1.0), np.eye(3))
    assert_array_equal(metric.dense[:3, :3], np.diag(1.0 / tau))
    assert m_metric(StepSizes(0.4, 1.0), np.eye(3)).dense[:3, :3].tobytes() == (np.eye(3) / 0.4).tobytes()
    # the positivity check reads the largest entry: 0.4 * 2.5 * ||I||^2 = 1
    with pytest.raises(StepSizeError):
        m_metric(StepSizes(tau, 2.5), np.eye(3))
