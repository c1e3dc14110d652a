"""The blockwise coupling matrices are filled in place, bitwise the kron sum.

``inclusion._block_kron`` adds each block's matrix to the diagonal column
pairs of an ``(n, h, n, h)`` view, where it used to add one full-size
``kron(f(w), diag(mask))`` per block.  The product-space coupling and the
one-product forms must stay bitwise what the kron sum gave, on layouts with
one and with two graphs, with an empty y block (``d = 0``), and on
Laplacian weights, whose negative entries make ``-0.0`` kron products.
The one-product forms hold the per-agent exchange ``I + C (W - I)``, which
at one ``tau`` is ``c = 1``.
"""

import numpy as np
import pytest

from saddlenet import inclusion
from saddlenet.graphs import (
    BlockMixing,
    lazy_metropolis_mixing,
    metropolis_mixing,
    mixing_blocks,
    mixing_from_laplacian,
    path_graph,
    random_connected_graph,
    ring_graph,
    star_graph,
)
from saddlenet.instances import random_saddle_problems
from saddlenet.minmax import product_space_problem, stack_agents, stacked_block_mixing
from saddlenet.operators import _affine_rows


def kron_sum(layout, n, h, f):
    """The coupling as built before the in-place fill: one kron per block, summed."""
    out = np.zeros((n * h, n * h))
    for _, m, cols in layout:
        mask = np.zeros(h)
        mask[cols] = 1.0
        out += np.kron(f(m.w), np.diag(mask))
    return out


def psd_half(w):
    return inclusion._psd_sqrt((np.eye(len(w)) - w) / 2.0)


def laplacian_mixing(g, alpha=None):
    return mixing_from_laplacian(g, alpha or max(g.degree(i) for i in range(g.n)) + 1.0)


def pairs():
    """``(name, n, p, d, w1, w2)``: one graph for both blocks, two graphs, and no y block."""
    ring, path = ring_graph(6), path_graph(6)
    # alpha = 4 < the star's centre degree 5: a negative weight on the diagonal
    lap, star = laplacian_mixing(ring), laplacian_mixing(star_graph(6), 4.0)
    return [
        ("one-graph-metropolis", 6, 2, 2, metropolis_mixing(ring), metropolis_mixing(ring)),
        ("one-graph-laplacian", 6, 2, 1, lap, lap),
        ("two-graphs", 6, 1, 2, laplacian_mixing(path), lazy_metropolis_mixing(ring)),
        ("two-graphs-laplacian", 6, 2, 2, star, laplacian_mixing(path)),
        ("d0-laplacian", 6, 3, 0, star, star),
        ("d0-two-graphs", 6, 2, 0, metropolis_mixing(ring), laplacian_mixing(path)),
    ]


PAIRS = pairs()


def test_laplacian_weights_make_negative_zero_kron_products():
    # the case the in-place fill must get right: kron multiplies each negative weight by
    # the mask's zeros, and the sum turns those -0.0 into 0.0
    w = laplacian_mixing(star_graph(6), 4.0).w
    assert w[0, 0] < 0 and (psd_half(w) < 0).any()
    for f in (lambda w: w, psd_half):
        k = np.kron(f(w), np.diag([1.0, 0.0]))
        assert (np.signbit(k) & (k == 0)).any()


@pytest.mark.parametrize("name, n, p, d, w1, w2", PAIRS, ids=[case[0] for case in PAIRS])
def test_the_product_space_coupling_is_bitwise_the_kron_sum(name, n, p, d, w1, w2):
    problems = random_saddle_problems(n, p, d, seed=3)
    mixing = BlockMixing(w1, w2)
    layout = mixing_blocks(stacked_block_mixing(mixing, problems), p + d)
    expected = kron_sum(layout, n, p + d, psd_half)
    assert product_space_problem(problems, mixing).k.tobytes() == expected.tobytes()
    assert not np.signbit(expected[expected == 0]).any()


@pytest.mark.parametrize("name, n, p, d, w1, w2", PAIRS, ids=[case[0] for case in PAIRS])
def test_the_one_product_forms_are_bitwise_the_kron_construction(name, n, p, d, w1, w2):
    problems = random_saddle_problems(n, p, d, seed=4, coupling_kind="quadratic")
    agents, h, tau = stack_agents(problems), p + d, 0.05
    mixing = stacked_block_mixing(BlockMixing(w1, w2), problems)
    layout = mixing_blocks(mixing, h)
    steps = np.full(n, tau)
    kernels = inclusion._kernels(agents, mixing, h, steps)
    assert isinstance(kernels, inclusion._OneProduct)
    # the per-agent construction at c = tau_i / max tau = 1: I + 1.0 (W - I), and half of 1.0 (W - I)
    lazy = np.ones((n * h, 1)) * (kron_sum(layout, n, h, lambda w: w) - np.eye(n * h))
    forms = np.zeros((3, n * h, n * h))
    forms[0] = np.eye(n * h) + lazy
    forms[1] = 0.5 * lazy
    jac, _ = _affine_rows([a.forward for a in agents], h, steps)
    forms[2].reshape(n, h, n, h)[np.arange(n), :, np.arange(n), :] = jac
    assert kernels.forms.tobytes() == forms.reshape(3 * n * h, n * h).tobytes()


def layouts():
    """``(name, layout, n, h)``: single matrices over all columns, then the pairs' block layouts."""
    single = [("single-laplacian", laplacian_mixing(ring_graph(7))),
              ("single-metropolis", metropolis_mixing(random_connected_graph(7, 0.4, seed=2)))]
    out = [(name, mixing_blocks(m, 3), 7, 3) for name, m in single]
    out += [(name, mixing_blocks(BlockMixing(w1, w2, split=p), p + d), n, p + d)
            for name, n, p, d, w1, w2 in PAIRS]
    return out


LAYOUTS = layouts()


@pytest.mark.parametrize("name, layout, n, h", LAYOUTS, ids=[case[0] for case in LAYOUTS])
def test_the_fill_is_bitwise_the_kron_sum_for_any_block_matrix(name, layout, n, h):
    # np.negative turns every zero weight into -0.0: the fill must add, not assign
    for f in (lambda w: w, psd_half, np.negative):
        assert inclusion._block_kron(layout, n, h, f).tobytes() == kron_sum(layout, n, h, f).tobytes()
