"""Library couplings are data: a coupling's gradients are the two blocks of
its saddle map ``jacobian @ z + offset``, bit for bit what the solvers
evaluate, and sums of couplings are sums of that data."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from saddlenet import operators
from saddlenet.instances import seeded_couplings
from saddlenet.operators import (
    SmoothCoupling,
    bilinear_coupling,
    bilinear_couplings,
    combine_couplings,
    quadratic_coupling,
    quadratic_couplings,
    saddle_forward,
)

DIMS = [(3, 3), (4, 2), (1, 5), (0, 3), (3, 0), (8, 8)]


def psd_stack(rng, n, k):
    g = rng.standard_normal((n, k, k))
    return g @ np.swapaxes(g, 1, 2) / max(k, 1)


def library_couplings(p, d):
    """Couplings from each factory: the two stacked constructors and every seeded kind."""
    rng = np.random.default_rng(100 * p + d)
    m, a, b = rng.standard_normal((3, p, d)), rng.standard_normal((3, p)), rng.standard_normal((3, d))
    out = bilinear_couplings(m, a, b)
    out += quadratic_couplings(psd_stack(rng, 3, p), m, psd_stack(rng, 3, d), a, b)
    for kind in ("bilinear", "quadratic", "zero"):
        out += seeded_couplings(3, p, d, seed=p + d, kind=kind)
    return out


def bits(v):
    return np.asarray(v).tobytes()


@pytest.mark.parametrize("p, d", DIMS, ids=[f"p{p}-d{d}" for p, d in DIMS])
def test_gradients_are_bitwise_the_saddle_map_the_solvers_run(p, d):
    rng = np.random.default_rng(7)
    for c in library_couplings(p, d):
        forward = saddle_forward(c)
        for z in rng.standard_normal((20, p + d)):
            x, y = z[:p], z[p:]
            assert bits(np.concatenate([c.grad_x(x, y), -c.grad_y(x, y)])) == bits(forward(z))


@pytest.mark.parametrize("p, d", DIMS, ids=[f"p{p}-d{d}" for p, d in DIMS])
def test_library_couplings_carry_data_and_share_one_evaluation(p, d):
    for c in library_couplings(p, d):
        for grad, tail in ((c.grad_x, False), (c.grad_y, True)):
            assert grad.func is operators._saddle_block
            assert grad.args == (c.jacobian, c.offset, p, tail)
        assert c.value.func is operators._coupling_value and c.value.args == (c.params,)
        # a replaced coupling evaluates its own data
        assert dataclasses.replace(c, lipschitz=1.0).grad_x.args[0] is c.jacobian


def test_value_is_the_documented_formula():
    rng = np.random.default_rng(3)
    pm, rm = psd_stack(rng, 1, 3)[0], psd_stack(rng, 1, 2)[0]
    m, a, b = rng.standard_normal((3, 2)), rng.standard_normal(3), rng.standard_normal(2)
    x, y = rng.standard_normal(3), rng.standard_normal(2)
    bilinear = x @ m @ y + a @ x - b @ y
    assert_allclose(bilinear_coupling(m, a, b).value(x, y), bilinear, rtol=1e-14)
    assert_allclose(quadratic_coupling(pm, m, rm, a, b).value(x, y),
                    bilinear + x @ pm @ x / 2 - y @ rm @ y / 2, rtol=1e-14)


@pytest.mark.parametrize("kind", ["bilinear", "quadratic"])
@pytest.mark.parametrize("p, d", DIMS, ids=[f"p{p}-d{d}" for p, d in DIMS])
def test_a_single_kind_sum_is_bitwise_the_summed_blocks(kind, p, d):
    couplings = seeded_couplings(5, p, d, seed=11, kind=kind)
    combined = combine_couplings(couplings)
    assert combined.kind == kind
    summed = {key: sum(c.params[key] for c in couplings) for key in couplings[0].params}
    assert summed.keys() == combined.params.keys()
    for key, value in summed.items():
        assert bits(combined.params[key]) == bits(value), key
    # built from the summed blocks as the single-coupling factories build
    reference = (bilinear_coupling(summed["m"], summed["a"], summed["b"], p=p, d=d)
                 if kind == "bilinear" else
                 quadratic_coupling(summed["p_matrix"], summed["m"], summed["r_matrix"],
                                    summed["a"], summed["b"]))
    assert bits(combined.jacobian) == bits(reference.jacobian)
    assert bits(combined.offset) == bits(reference.offset)
    assert combined.lipschitz == reference.lipschitz


@pytest.mark.parametrize("p, d", DIMS, ids=[f"p{p}-d{d}" for p, d in DIMS])
def test_a_bilinear_plus_quadratic_sum_is_quadratic_with_the_summed_gradients(p, d):
    couplings = (seeded_couplings(2, p, d, seed=4, kind="bilinear")
                 + seeded_couplings(2, p, d, seed=5, kind="quadratic"))
    combined = combine_couplings(couplings)
    assert combined.kind == "quadratic"
    assert combined.lipschitz == operators.estimate_operator_norm(combined.jacobian)
    rng = np.random.default_rng(6)
    for z in rng.standard_normal((10, p + d)):
        x, y = z[:p], z[p:]
        for grad in ("grad_x", "grad_y"):
            expected = sum(getattr(c, grad)(x, y) for c in couplings)
            assert_allclose(getattr(combined, grad)(x, y), expected, rtol=0, atol=1e-13)
        assert_allclose(combined.value(x, y), sum(c.value(x, y) for c in couplings),
                        rtol=1e-13, atol=1e-13)


def test_a_custom_coupling_has_no_summation_rule():
    custom = SmoothCoupling(p=1, d=1, grad_x=lambda x, y: y, grad_y=lambda x, y: x, lipschitz=1.0)
    with pytest.raises(ValueError, match="coupling kind 'custom' has no summation rule"):
        combine_couplings([bilinear_coupling(m=[[1.0]]), custom])


def test_couplings_of_different_dimensions_are_not_summed():
    with pytest.raises(ValueError, match=r"share one \(p, d\)"):
        combine_couplings([bilinear_coupling(m=[[1.0]]), bilinear_coupling(m=np.ones((1, 2)))])
