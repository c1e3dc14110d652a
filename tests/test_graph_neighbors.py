"""Neighbor lists and the sorted edge array are built once per graph and equal
the edge-scan definitions."""

import pickle

import numpy as np
import pytest

from saddlenet.graphs import (
    Graph,
    complete_graph,
    is_connected,
    path_graph,
    random_connected_graph,
    ring_graph,
    star_graph,
)

GRAPHS = ([Graph(1, frozenset()), path_graph(2), ring_graph(7), star_graph(9), complete_graph(12),
           Graph.from_edges(5, [(4, 0), (3, 1), (1, 0), (2, 4)])]
          + [random_connected_graph(n, density, seed)
             for n in (2, 5, 40, 120) for density in (0.0, 0.02, 0.3) for seed in range(3)]
          + [random_connected_graph(300, 0.02, seed) for seed in range(3)])


def scanned_neighbors(g, i):
    """Reference: every edge that touches ``i``, scanned per call."""
    return tuple(sorted(b if a == i else a for a, b in g.edges if i in (a, b)))


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}-e{len(g.edges)}")
def test_neighbors_and_degrees_equal_the_edge_scan(g):
    for i in range(g.n):
        assert g.neighbors(i) == scanned_neighbors(g, i)
        assert g.degree(i) == len(scanned_neighbors(g, i))
        assert all(type(j) is int for j in g.neighbors(i))
    assert is_connected(g)


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}-e{len(g.edges)}")
def test_edges_are_pairs_of_python_ints(g):
    assert all(type(i) is int and type(j) is int and i < j for i, j in g.edges)
    assert "int64" not in repr(g)


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}-e{len(g.edges)}")
def test_edge_array_and_adjacency_equal_the_loop_forms(g):
    assert g.sorted_edges == tuple(sorted(g.edges))
    assert g.edge_array.tolist() == [list(e) for e in sorted(g.edges)]
    assert not g.edge_array.flags.writeable
    looped = np.zeros((g.n, g.n))
    for i, j in g.edges:
        looped[i, j] = looped[j, i] = 1.0
    assert np.array_equal(g.adjacency(), looped)


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (2, 2)], "self-loop at vertex 2"),
    ([(0, 1), (1, 4)], r"edge \(1, 4\) out of range for n=3"),
    ([(-1, 1)], r"edge \(-1, 1\) out of range for n=3"),
])
def test_bad_edges_are_rejected(edges, message):
    with pytest.raises(ValueError, match=message):
        Graph(3, frozenset(edges))


def test_graphs_with_equal_edges_are_equal_and_hash_alike():
    g = random_connected_graph(30, 0.2, seed=4)
    twin = Graph.from_edges(g.n, reversed(g.sorted_edges))
    assert g == twin and hash(g) == hash(twin)
    assert repr(g) == repr(Graph(g.n, g.edges))
    assert g != Graph.from_edges(g.n, g.sorted_edges[1:])
    assert pickle.loads(pickle.dumps(g)).neighbors(0) == g.neighbors(0)


def test_disconnected_graphs_are_still_found():
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
