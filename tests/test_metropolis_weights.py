"""Metropolis weights come from one builder, shared by the library and
``check-mixing``, and equal the per-vertex construction bit for bit."""

import numpy as np
import pytest

from saddlenet.cli import main
from saddlenet.graphs import (
    Graph,
    certify_mixing,
    complete_graph,
    graph_to_edge_list,
    metropolis_mixing,
    path_graph,
    random_connected_graph,
    ring_graph,
    star_graph,
)

GRAPHS = ([Graph(1, frozenset()), path_graph(2)]
          + [f(n) for f in (ring_graph, path_graph, star_graph, complete_graph) for n in (3, 7, 16)]
          + [random_connected_graph(n, density, seed) for n in (5, 60) for density in (0.05, 0.5)
             for seed in range(3)])


def per_vertex_weights(g):
    """Reference: a degree per vertex, then one row at a time."""
    n = g.n
    deg = [g.degree(i) for i in range(n)]
    w = np.zeros((n, n))
    for i, j in g.edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    for i in range(n):
        w[i, i] = 1.0 - w[i].sum()
    return w


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}-e{len(g.edges)}")
def test_weights_are_bitwise_the_per_vertex_construction(g):
    assert np.array_equal(metropolis_mixing(g).w, per_vertex_weights(g))


@pytest.mark.parametrize("g", [ring_graph(5), star_graph(6), random_connected_graph(30, 0.1, 4)],
                         ids=["ring5", "star6", "random30"])
def test_check_mixing_certifies_the_library_weights(tmp_path, capsys, g):
    path = tmp_path / "g.txt"
    path.write_text(graph_to_edge_list(g), encoding="utf-8")
    assert main(["check-mixing", str(path), "--scheme", "metropolis"]) == 0
    assert capsys.readouterr().out == certify_mixing(metropolis_mixing(g).w, g).summary() + "\n"
