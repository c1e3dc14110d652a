"""Vertex and matrix sizes are checked, not wrapped: a vertex outside
``0 .. n-1`` raises ``IndexError``, and a mixing matrix must be ``(n, n)``."""

import numpy as np
import pytest

from saddlenet.graphs import Graph, MixingMatrix, _metropolis_weights, random_connected_graph, ring_graph


@pytest.mark.parametrize("g", [ring_graph(6), Graph(1, []), random_connected_graph(500, 0.02, 11)],
                         ids=lambda g: f"n{g.n}")
@pytest.mark.parametrize("offset", [-1, -2, 0, 1])
def test_a_vertex_outside_the_graph_raises(g, offset):
    i = offset if offset < 0 else g.n + offset
    with pytest.raises(IndexError, match=f"vertex {i} out of range for n={g.n}"):
        g.neighbors(i)
    with pytest.raises(IndexError, match=f"vertex {i} out of range for n={g.n}"):
        g.degree(i)


def test_the_last_vertex_and_numpy_indices_still_work():
    g = ring_graph(6)
    assert g.neighbors(5) == g.neighbors(np.int64(5)) == (0, 4)
    assert g.degree(np.intp(0)) == 2
    with pytest.raises(TypeError):
        g.neighbors(1.0)


@pytest.mark.parametrize("shape", [(3, 3), (5, 3), (3, 5), (6, 6), (25,)])
def test_a_mixing_matrix_must_be_n_by_n(shape):
    with pytest.raises(ValueError, match=rf"matrix shape \({shape[0]},.*does not match n=5"):
        MixingMatrix(np.eye(25)[:shape[0], :shape[-1]] if len(shape) == 2 else np.ones(shape),
                     ring_graph(5), 0.0)


def test_a_matrix_of_the_graph_size_builds_on_either_product():
    for g in (ring_graph(5), ring_graph(500)):
        m = MixingMatrix(_metropolis_weights(g), g, 0.0)
        assert m.n == g.n and m.apply(np.ones((g.n, 2))).shape == (g.n, 2)
