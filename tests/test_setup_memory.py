"""Set-up objects in O(|E|) memory: a graph keeps one sorted edge array and its
CSR neighbour lists, a gather mixing keeps its neighbour tables and no dense
``w``, and what they hand out is what they were built from."""

import pickle
import tracemalloc

import numpy as np
import pytest

from saddlenet.graphs import (
    Graph,
    MixingMatrix,
    _laplacian_weights,
    _metropolis_weights,
    complete_graph,
    laplacian,
    metropolis_mixing,
    mixing_from_laplacian,
    path_graph,
    random_connected_graph,
    ring_graph,
    star_graph,
)

# the corpus of test_graph_neighbors.py: every matrix on it takes the dense product
DENSE_GRAPHS = ([Graph(1, frozenset()), path_graph(2), ring_graph(7), star_graph(9), complete_graph(12),
                 Graph.from_edges(5, [(4, 0), (3, 1), (1, 0), (2, 4)])]
                + [random_connected_graph(n, density, seed)
                   for n in (2, 5, 40, 120) for density in (0.0, 0.02, 0.3) for seed in range(3)]
                + [random_connected_graph(300, 0.02, seed) for seed in range(3)])
GATHER_GRAPHS = [random_connected_graph(n, 0.02, 11) for n in (450, 500, 1000)]


def graph_id(g):
    return f"n{g.n}-e{len(g.edge_array)}"


def retained_mb(build):
    """What ``build()`` leaves allocated, in MB, after a first call has warmed every cache."""
    build()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept is not None
    return (after - before) / 1e6


def test_a_graph_and_its_mixing_at_two_thousand_agents_keep_o_of_e_memory():
    g = random_connected_graph(2000, 0.02, 11)
    assert len(g.edge_array) == 42179
    assert retained_mb(lambda: random_connected_graph(2000, 0.02, 11)) <= 2.0
    assert metropolis_mixing(g).product == "gather"
    assert retained_mb(lambda: metropolis_mixing(g)) <= 4.0


def alpha(g):
    """A Laplacian step that certifies: ``max degree + 1 > lambda_max(L) / 2``."""
    return max((g.degree(i) for i in range(g.n)), default=0) + 1.0


def weight_matrices(g):
    return {"metropolis": _metropolis_weights(g), "laplacian": _laplacian_weights(laplacian(g), alpha(g))}


@pytest.mark.parametrize("g, product", [pytest.param(g, "dense", id=graph_id(g)) for g in DENSE_GRAPHS]
                         + [pytest.param(g, "gather", id=graph_id(g)) for g in GATHER_GRAPHS])
def test_w_is_bitwise_the_constructed_weights_and_read_only(g, product):
    for name, w in weight_matrices(g).items():
        m = MixingMatrix(w, g, 0.0)
        assert m.product == product, name
        got = m.w
        assert got.shape == w.shape and got.dtype == w.dtype and got.tobytes() == w.tobytes(), name
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0] = 1.0
        if product == "gather":
            assert m._w is None and m.w is not got  # rebuilt per read, never kept
        else:
            assert m.w is got


@pytest.mark.parametrize("g", GATHER_GRAPHS, ids=graph_id)
def test_certified_gather_matrices_read_back_their_weights(g):
    weights = weight_matrices(g)
    for m, w in ((metropolis_mixing(g), weights["metropolis"]),
                 (mixing_from_laplacian(g, alpha(g)), weights["laplacian"])):
        assert m.product == "gather" and m.w.tobytes() == w.tobytes()


@pytest.mark.parametrize("g", [Graph(1, frozenset()), ring_graph(7), complete_graph(12),
                               random_connected_graph(40, 0.3, 2), random_connected_graph(500, 0.02, 11)],
                         ids=graph_id)
def test_a_graph_is_the_same_from_a_frozenset_a_list_or_an_array(g):
    pairs = g.sorted_edges
    messy = [(j, i) for i, j in pairs] + list(pairs[::2])  # reversed and repeated pairs
    array = np.array(pairs, dtype=np.int32).reshape(-1, 2)[::-1]
    built = [Graph(g.n, frozenset(pairs)), Graph(g.n, messy), Graph(g.n, iter(messy)), Graph(g.n, array)]
    for other in built:
        assert other == g and hash(other) == hash(g) and repr(other) == repr(g)
        assert other.edges == g.edges and other.edge_array.dtype == g.edge_array.dtype
        again = pickle.loads(pickle.dumps(other))
        assert again == g and hash(again) == hash(g) and repr(again) == repr(g)
        assert [again.neighbors(i) for i in range(g.n)] == [g.neighbors(i) for i in range(g.n)]
    assert "int64" not in repr(built[-1]) and "int32" not in repr(built[-1])


def test_a_graph_keeps_one_read_only_edge_array_and_csr_neighbour_lists():
    g = random_connected_graph(120, 0.1, 3)
    assert not g.edge_array.flags.writeable
    assert not g._indptr.flags.writeable and not g._heads.flags.writeable
    scanned = [sorted(b if a == i else a for a, b in g.edges if i in (a, b)) for i in range(g.n)]
    assert g._indptr.tolist() == np.cumsum([0] + [len(heads) for heads in scanned]).tolist()
    assert g._heads.tolist() == [j for heads in scanned for j in heads]
    with pytest.raises(AttributeError):
        g.n = 3
    with pytest.raises(AttributeError):
        g.edge_array = g.edge_array[:1]
    with pytest.raises(AttributeError, match="cannot delete field 'n'"):
        del g.n
    # a graph equals only a graph
    assert g == Graph(g.n, g.edge_array) and g != (g.n, g.edge_array) and g.__eq__(g.n) is NotImplemented


@pytest.mark.parametrize("edges", [[(0, 1, 2)], np.zeros((2, 3), dtype=int), [(0.5, 1)],
                                   np.array([[0.0, 1.0]])])
def test_edges_that_are_not_integer_pairs_are_rejected(edges):
    with pytest.raises(ValueError):
        Graph(3, edges)
