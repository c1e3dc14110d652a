import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from saddlenet.instances import random_monotone_matrix
from saddlenet.operators import (
    ForwardOperator,
    Prox,
    _affine_rows,
    bilinear_coupling,
    box_prox,
    combine_couplings,
    combine_proxes,
    estimate_operator_norm,
    l1_prox,
    linear_forward,
    make_prox,
    product_resolvent,
    quadratic_coupling,
    quadratic_prox,
    saddle_forward,
    zero_point_prox,
    zero_prox,
)


# ---------------------------------------------------------------------------
# proximal maps
# ---------------------------------------------------------------------------

def test_zero_prox_is_identity():
    v = np.array([1.0, -2.0, 0.5])
    out = zero_prox()(0.7, v)
    assert_array_equal(out, v)
    assert out is not v  # must not alias the input


def test_l1_prox_soft_threshold():
    prox = l1_prox(2.0)
    assert_allclose(prox(0.5, np.array([3.0, -3.0, 0.5])), [2.0, -2.0, 0.0])


def test_l1_prox_matches_argmin():
    # compare against a dense grid minimization of w|v| + (v - u)^2 / (2 tau)
    prox = l1_prox(0.8)
    grid = np.linspace(-4, 4, 160001)
    for u in (-2.3, -0.1, 0.4, 1.7):
        obj = 0.8 * np.abs(grid) + (grid - u) ** 2 / (2 * 0.6)
        expected = grid[np.argmin(obj)]
        assert_allclose(prox(0.6, np.array([u]))[0], expected, atol=1e-4)


def test_l1_negative_weight_rejected():
    with pytest.raises(ValueError):
        l1_prox(-1.0)


def test_box_prox_clips():
    prox = box_prox(-1.0, 1.0)
    assert_allclose(prox(10.0, np.array([-3.0, 0.2, 5.0])), [-1.0, 0.2, 1.0])


def test_box_prox_step_size_irrelevant():
    prox = box_prox(0.0, 2.0)
    v = np.array([-1.0, 3.0])
    assert_array_equal(prox(0.01, v), prox(100.0, v))


def test_box_prox_bad_bounds():
    with pytest.raises(ValueError):
        box_prox(1.0, -1.0)


def test_quadratic_prox_solves_linear_system():
    q = np.array([[2.0, 0.5], [0.5, 1.0]])
    qv = np.array([0.3, -0.1])
    prox = quadratic_prox(q, qv)
    tau, v = 0.4, np.array([1.0, 2.0])
    out = prox(tau, v)
    assert_allclose((np.eye(2) + tau * q) @ out, v - tau * qv, atol=1e-14)
    # optimality: gradient of the prox objective vanishes
    assert_allclose(q @ out + qv + (out - v) / tau, 0.0, atol=1e-13)


def test_quadratic_prox_validates_matrix():
    with pytest.raises(ValueError):
        quadratic_prox(np.array([[1.0, 2.0], [0.0, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        quadratic_prox(np.array([[-1.0]]))  # indefinite


def test_zero_point_prox():
    assert_array_equal(zero_point_prox()(1.0, np.array([5.0, -2.0])), [0.0, 0.0])


def test_prox_rejects_nonpositive_tau():
    with pytest.raises(ValueError):
        l1_prox(1.0)(0.0, np.array([1.0]))


def test_prox_dim_mismatch():
    prox = quadratic_prox(np.eye(3))
    with pytest.raises(ValueError):
        prox(1.0, np.array([1.0, 2.0]))
    custom = Prox(lambda t, z: z, kind="custom", dim=3)
    with pytest.raises(ValueError, match=r"custom prox expects shape \(3,\), got \(2,\)"):
        custom(1.0, np.array([1.0, 2.0]))


def test_a_prox_takes_one_step_and_names_the_shape_of_another():
    # a library prox is one row of its batched kernel, a custom one calls its own fn with a float
    for prox in (l1_prox(0.1), Prox(lambda t, z: z / (1.0 + t))):
        with pytest.raises(ValueError, match=r"tau must be .*shape \(3,\)"):
            prox(np.array([0.1, 0.2, 0.3]), np.ones(3))
        with pytest.raises(ValueError, match="tau must be positive"):
            prox(float("nan"), np.ones(3))
    assert Prox(lambda t, z: z * t)(np.float64(0.5), np.ones(2)).tolist() == [0.5, 0.5]


def test_prox_repr_names_kind_and_params():
    assert repr(l1_prox(0.3)) == "Prox(kind='l1', params={'weight': 0.3})"
    assert repr(zero_prox()) == "Prox(kind='zero', params={})"


def test_make_prox_dispatch():
    assert make_prox("l1", weight=0.5).kind == "l1"
    assert make_prox("box_indicator", lo=0.0, hi=1.0).kind == "box_indicator"
    assert make_prox("zero").kind == "zero"
    with pytest.raises(ValueError):
        make_prox("huber")


def test_product_resolvent_blocks():
    prox = product_resolvent(l1_prox(1.0), box_prox(-0.5, 0.5), split=2)
    out = prox(1.0, np.array([3.0, -0.2, 4.0]))
    assert_allclose(out, [2.0, 0.0, 0.5])


def test_product_resolvent_infers_split_from_dims():
    prox = product_resolvent(quadratic_prox(np.zeros((2, 2))), quadratic_prox(np.zeros((3, 3))))
    assert prox.dim == 5
    with pytest.raises(ValueError):
        prox(1.0, np.zeros(4))


def test_product_resolvent_requires_split_info():
    with pytest.raises(ValueError):
        product_resolvent(zero_prox(), zero_prox())


@pytest.mark.parametrize("second", [l1_prox(0.1), quadratic_prox(np.eye(2))], ids=["no-dim", "dim"])
def test_product_resolvent_checks_the_split_against_the_first_factors_dim(second):
    """A first factor that declares its length fixes the split, at construction."""
    with pytest.raises(ValueError, match="split disagrees with the first factor's dim"):
        product_resolvent(quadratic_prox(np.eye(3)), second, split=2)
    prox = product_resolvent(quadratic_prox(np.eye(3)), second, split=3)
    assert_allclose(prox(1.0, np.full(3 + 2, 2.0))[:3], [1.0, 1.0, 1.0])
    # a first factor without a dim takes the split as given
    assert product_resolvent(l1_prox(0.1), second, split=2).params["split"] == 2


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------

def test_operator_norm_small_matrix():
    assert_allclose(estimate_operator_norm(np.array([[1.0, 2.0], [3.0, 4.0]])),
                    5.464985704219043, atol=1e-9)


def test_operator_norm_zero_matrix():
    assert estimate_operator_norm(np.zeros((3, 3))) == 0.0


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = rng.standard_normal((5, 7))
        assert_allclose(estimate_operator_norm(m), np.linalg.svd(m, compute_uv=False)[0],
                        rtol=1e-8)


def test_operator_norm_rank_one():
    m = np.outer([1.0, 2.0], [3.0, 0.0, 4.0])
    assert_allclose(estimate_operator_norm(m), np.sqrt(5.0) * 5.0, rtol=1e-10)


def _norm_corpus():
    rng = np.random.default_rng(2024)
    mats = [random_monotone_matrix(8, rng) for _ in range(200)]
    for h in (2, 3, 4, 7, 8):  # pure skew: singular values come in equal pairs
        a = rng.standard_normal((h, h))
        mats.append(a - a.T)
    mats += [rng.standard_normal(shape) for shape in ((3, 8), (8, 3), (1, 6), (6, 1))]
    mats.append(np.outer(rng.standard_normal(5), rng.standard_normal(4)))
    mats += [np.array([[-2.5]]), np.array([[1e-300]])]
    return mats


def test_operator_norm_is_the_top_singular_value_on_a_corpus():
    for m in _norm_corpus():
        assert_allclose(estimate_operator_norm(m), np.linalg.svd(m, compute_uv=False)[0],
                        rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# forward operators and couplings
# ---------------------------------------------------------------------------

def test_affine_rows_check_the_jacobian_and_offset_shapes():
    with pytest.raises(ValueError, match=r"forward jacobians must be \(3, 3\)"):
        _affine_rows([linear_forward(np.eye(3)), linear_forward(np.eye(2))], 3)
    with pytest.raises(ValueError, match=r"forward offsets must be \(3,\)"):
        _affine_rows([ForwardOperator(None, 1.0, np.eye(3), np.zeros(2))], 3)


def test_linear_forward_evaluates_and_declares_norm():
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    fwd = linear_forward(m)
    assert_allclose(fwd(np.array([2.0, 3.0])), [3.0, -2.0])
    assert_allclose(fwd.lipschitz, 1.0, atol=1e-10)
    assert_array_equal(fwd.jacobian, m)


def test_bilinear_coupling_gradients():
    m = np.array([[1.0, 0.0], [2.0, -1.0], [0.0, 3.0]])
    a = np.array([0.1, 0.2, 0.3])
    b = np.array([-1.0, 1.0])
    phi = bilinear_coupling(m=m, a=a, b=b)
    x, y = np.array([1.0, -1.0, 0.5]), np.array([2.0, 0.5])
    assert_allclose(phi.grad_x(x, y), m @ y + a)
    assert_allclose(phi.grad_y(x, y), m.T @ x - b)
    assert_allclose(phi.lipschitz, np.linalg.svd(m, compute_uv=False)[0], rtol=1e-9)
    assert_allclose(phi.value(x, y), x @ m @ y + a @ x - b @ y)


def test_bilinear_coupling_dimension_inference():
    phi = bilinear_coupling(a=np.array([1.0, 2.0]), d=3)
    assert (phi.p, phi.d) == (2, 3)
    assert phi.lipschitz == 0.0
    with pytest.raises(ValueError):
        bilinear_coupling()  # nothing to infer from
    with pytest.raises(ValueError, match="inconsistent coupling dimensions"):
        bilinear_coupling(m=np.ones((2, 3)), a=np.ones(2), b=np.ones(3), p=5)


def test_quadratic_coupling_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    pm = rng.standard_normal((3, 3))
    pm = pm @ pm.T
    rm = rng.standard_normal((2, 2))
    rm = rm @ rm.T
    m = rng.standard_normal((3, 2))
    phi = quadratic_coupling(pm, m, rm, a=rng.standard_normal(3), b=rng.standard_normal(2))
    x, y = rng.standard_normal(3), rng.standard_normal(2)
    eps = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = eps
        fd = (phi.value(x + e, y) - phi.value(x - e, y)) / (2 * eps)
        assert_allclose(phi.grad_x(x, y)[i], fd, atol=1e-6)
    for j in range(2):
        e = np.zeros(2)
        e[j] = eps
        fd = (phi.value(x, y + e) - phi.value(x, y - e)) / (2 * eps)
        assert_allclose(phi.grad_y(x, y)[j], fd, atol=1e-6)


def test_quadratic_coupling_rejects_indefinite_blocks():
    with pytest.raises(ValueError):
        quadratic_coupling(np.array([[-1.0]]), np.zeros((1, 1)), np.eye(1))


def test_quadratic_coupling_rejects_a_transposed_m():
    # a (d, p) matrix used to be reshaped to (p, d), scrambling its entries
    with pytest.raises(ValueError, match="inconsistent coupling dimensions"):
        quadratic_coupling(np.eye(2), np.arange(6.0).reshape(3, 2), np.eye(3))


def test_quadratic_coupling_rejects_offsets_of_the_wrong_length():
    with pytest.raises(ValueError, match="inconsistent coupling dimensions"):
        quadratic_coupling(np.eye(2), np.ones((2, 3)), np.eye(3), a=np.ones(3))
    with pytest.raises(ValueError, match="inconsistent coupling dimensions"):
        quadratic_coupling(np.eye(2), np.ones((2, 3)), np.eye(3), b=np.ones(2))


def test_saddle_forward_is_monotone_affine():
    # (grad_x, -grad_y) of a convex-concave quadratic has PSD symmetric part
    rng = np.random.default_rng(7)
    pm = rng.standard_normal((2, 2))
    pm = pm @ pm.T
    rm = rng.standard_normal((2, 2))
    rm = rm @ rm.T
    phi = quadratic_coupling(pm, rng.standard_normal((2, 2)), rm)
    fwd = saddle_forward(phi)
    jac = fwd.jacobian
    sym = 0.5 * (jac + jac.T)
    assert np.linalg.eigvalsh(sym).min() >= -1e-12
    z = rng.standard_normal(4)
    assert_allclose(fwd(z), np.concatenate([phi.grad_x(z[:2], z[2:]),
                                            -phi.grad_y(z[:2], z[2:])]))


def test_saddle_forward_bilinear_jacobian_is_skew():
    phi = bilinear_coupling(m=np.array([[2.0]]))
    jac = saddle_forward(phi).jacobian
    assert_array_equal(jac, [[0.0, 2.0], [-2.0, 0.0]])
    assert_array_equal(jac, -jac.T)


# ---------------------------------------------------------------------------
# sums across agents
# ---------------------------------------------------------------------------

def test_combine_l1_weights_add():
    combined = combine_proxes([l1_prox(0.5), l1_prox(1.5)])
    assert combined.params["weight"] == 2.0
    assert_allclose(combined(1.0, np.array([3.0])), [1.0])


def test_combine_identical_boxes():
    combined = combine_proxes([box_prox(-1.0, 1.0), box_prox(-1.0, 1.0)])
    assert_allclose(combined(1.0, np.array([4.0])), [1.0])


def test_combine_mismatched_boxes_rejected():
    with pytest.raises(ValueError):
        combine_proxes([box_prox(-1.0, 1.0), box_prox(-2.0, 2.0)])


def test_combine_quadratics_add():
    p1 = quadratic_prox(np.eye(2), np.array([1.0, 0.0]))
    p2 = quadratic_prox(2.0 * np.eye(2), np.array([0.0, 1.0]))
    combined = combine_proxes([p1, p2])
    assert_array_equal(combined.params["q_matrix"], 3.0 * np.eye(2))
    assert_array_equal(combined.params["q_vec"], [1.0, 1.0])


def test_combine_mixed_kinds_rejected():
    with pytest.raises(ValueError):
        combine_proxes([l1_prox(1.0), box_prox(0.0, 1.0)])
    product = product_resolvent(l1_prox(1.0), zero_prox(), split=1)
    with pytest.raises(ValueError, match="prox kind 'product' has no summation rule"):
        combine_proxes([product, product])


def test_combine_bilinear_couplings():
    c1 = bilinear_coupling(m=np.array([[1.0]]), a=np.array([1.0]), b=np.array([0.5]))
    c2 = bilinear_coupling(m=np.array([[2.0]]), a=np.array([-1.0]), b=np.array([0.5]))
    combined = combine_couplings([c1, c2])
    x, y = np.array([1.0]), np.array([1.0])
    assert_allclose(combined.grad_x(x, y), c1.grad_x(x, y) + c2.grad_x(x, y))
    assert_allclose(combined.grad_y(x, y), c1.grad_y(x, y) + c2.grad_y(x, y))
