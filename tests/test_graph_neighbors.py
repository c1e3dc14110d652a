"""Neighbor lists are built once per graph and equal the edge-scan definition."""

import pickle

import pytest

from saddlenet.graphs import Graph, is_connected, path_graph, random_connected_graph, ring_graph

GRAPHS = ([Graph(1, frozenset()), path_graph(2), ring_graph(7)]
          + [random_connected_graph(n, density, seed)
             for n in (5, 40, 120) for density in (0.02, 0.3) for seed in range(3)])


def scanned_neighbors(g, i):
    """Reference: every edge that touches ``i``, scanned per call."""
    return tuple(sorted(b if a == i else a for a, b in g.edges if i in (a, b)))


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}-e{len(g.edges)}")
def test_neighbors_and_degrees_equal_the_edge_scan(g):
    for i in range(g.n):
        assert g.neighbors(i) == scanned_neighbors(g, i)
        assert g.degree(i) == len(scanned_neighbors(g, i))
    assert is_connected(g)


def test_graphs_with_equal_edges_are_equal_and_hash_alike():
    g = random_connected_graph(30, 0.2, seed=4)
    twin = Graph.from_edges(g.n, reversed(g.sorted_edges))
    assert g == twin and hash(g) == hash(twin)
    assert repr(g) == repr(Graph(g.n, g.edges))
    assert g != Graph.from_edges(g.n, g.sorted_edges[1:])
    assert pickle.loads(pickle.dumps(g)).neighbors(0) == g.neighbors(0)


def test_disconnected_graphs_are_still_found():
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
