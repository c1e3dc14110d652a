import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from saddlenet.graphs import (
    Graph,
    GraphFormatError,
    MixingMatrix,
    _metropolis_weights,
    certify_mixing,
    complete_graph,
    graph_to_edge_list,
    is_connected,
    laplacian,
    metropolis_mixing,
    mixing_from_laplacian,
    named_topology,
    parse_edge_list,
    path_graph,
    random_connected_graph,
    ring_graph,
    star_graph,
)


# ---------------------------------------------------------------------------
# edge-list parsing
# ---------------------------------------------------------------------------

def test_parse_two_edges():
    g = parse_edge_list("0 1\n1 2")
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_parse_with_n_header():
    # an explicit node count allows isolated vertices
    g = parse_edge_list("n 4\n0 1")
    assert g.n == 4
    assert g.edges == frozenset({(0, 1)})
    assert not is_connected(g)


def test_parse_comments_and_blank_lines():
    g = parse_edge_list("# a triangle\n0 1\n\n1 2\n0 2  # closing edge\n")
    assert g.n == 3
    assert len(g.edges) == 3


def test_parse_self_loop_rejected():
    with pytest.raises(GraphFormatError):
        parse_edge_list("0 0")


def test_parse_garbage_names_line():
    with pytest.raises(GraphFormatError) as err:
        parse_edge_list("0 1\nfoo bar")
    assert "line 2" in str(err.value)


def test_parse_duplicate_edges_collapse():
    g = parse_edge_list("0 1\n1 0\n0 1")
    assert g.edges == frozenset({(0, 1)})


def test_edge_list_round_trip():
    g = ring_graph(6)
    again = parse_edge_list(graph_to_edge_list(g))
    assert again == g


# ---------------------------------------------------------------------------
# topologies and connectivity
# ---------------------------------------------------------------------------

def test_path_is_connected():
    assert is_connected(path_graph(3))


def test_two_isolated_nodes_not_connected():
    assert not is_connected(Graph.from_edges(2, []))


def test_ring_of_five_connected():
    assert is_connected(ring_graph(5))


def test_named_topologies():
    assert named_topology("path", 4) == path_graph(4)
    assert named_topology("ring", 4) == ring_graph(4)
    assert named_topology("star", 4) == star_graph(4)
    assert named_topology("complete", 4) == complete_graph(4)
    with pytest.raises(ValueError):
        named_topology("hypercube", 4)


def test_star_degrees():
    g = star_graph(5)
    assert g.degree(0) == 4
    assert all(g.degree(i) == 1 for i in range(1, 5))


def test_random_connected_graph_is_connected_and_reproducible():
    for seed in range(10):
        g = random_connected_graph(8, density=0.2, seed=seed)
        assert is_connected(g)
        assert g == random_connected_graph(8, density=0.2, seed=seed)


def looped_random_connected_graph(n, density, seed):
    """The one-coin-per-pair double loop that drew the random graphs before."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    edges = set()
    for k in range(1, n):
        anchor = order[int(rng.integers(0, k))]
        edges.add((min(anchor, order[k]), max(anchor, order[k])))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < density:
                edges.add((i, j))
    return Graph.from_edges(n, edges)


@pytest.mark.parametrize("n, density, seed", [
    (1, 0.3, 0), (2, 0.5, 1), (2, 1.0, 2), (3, 0.0, 3), (6, 1.0, 4), (9, 0.3, 5),
    (40, 0.1, 6), (50, 0.1, 7), (120, 0.02, 11), (200, 0.6, 12),
])
def test_random_connected_graph_draws_the_looped_graph(n, density, seed):
    g = random_connected_graph(n, density=density, seed=seed)
    assert g.sorted_edges == looped_random_connected_graph(n, density, seed).sorted_edges


# ---------------------------------------------------------------------------
# laplacian
# ---------------------------------------------------------------------------

def test_laplacian_single_edge():
    lap = laplacian(Graph.from_edges(2, [(0, 1)]))
    assert_array_equal(lap, [[1, -1], [-1, 1]])


def test_laplacian_no_edges():
    assert_array_equal(laplacian(Graph.from_edges(3, [])), np.zeros((3, 3)))


def test_laplacian_triangle():
    lap = laplacian(complete_graph(3))
    assert_array_equal(lap, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


# ---------------------------------------------------------------------------
# mixing constructions
# ---------------------------------------------------------------------------

def test_laplacian_mixing_path_alpha_two():
    w = mixing_from_laplacian(path_graph(2), 2.0)
    assert_allclose(w.w, [[0.5, 0.5], [0.5, 0.5]])
    assert_allclose(w.lambda_min, 0.0, atol=1e-12)


def test_laplacian_mixing_boundary_alpha_rejected():
    # alpha = lambda_max(L)/2 puts -1 in the spectrum, violating W > -I
    with pytest.raises(ValueError):
        mixing_from_laplacian(path_graph(2), 1.0)


def test_laplacian_mixing_triangle_spectrum():
    w = mixing_from_laplacian(complete_graph(3), 3.0)
    eig = np.sort(np.linalg.eigvalsh(w.w))
    assert_allclose(eig, [0.0, 0.0, 1.0], atol=1e-12)


def test_laplacian_mixing_disconnected_rejected():
    with pytest.raises(ValueError):
        mixing_from_laplacian(Graph.from_edges(3, [(0, 1)]), 2.0)


def test_metropolis_ring3_entries():
    w = metropolis_mixing(ring_graph(3))
    assert_allclose(w.w, np.full((3, 3), 1.0 / 3.0))
    eig = np.sort(np.linalg.eigvalsh(w.w))
    assert_allclose(eig, [0.0, 0.0, 1.0], atol=1e-12)


def test_metropolis_path2():
    w = metropolis_mixing(path_graph(2))
    assert_allclose(w.w, [[0.5, 0.5], [0.5, 0.5]])


def test_metropolis_star():
    # center 0 with three leaves: leaf weights 1/4, leaf diagonal 3/4
    w = metropolis_mixing(star_graph(4))
    assert_allclose(w.w[0, 1:], 0.25)
    assert_allclose(w.w[0, 0], 0.25)
    assert_allclose(np.diag(w.w)[1:], 0.75)


def test_mixing_matrix_is_read_only():
    w = metropolis_mixing(ring_graph(4))
    with pytest.raises(ValueError):
        w.w[0, 0] = 7.0


def test_mixing_apply_is_matmul():
    w = metropolis_mixing(ring_graph(4))
    x = np.arange(8.0).reshape(4, 2)
    assert_array_equal(w.apply(x), w.w @ x)


# ---------------------------------------------------------------------------
# the mixing product (dense or neighbour gather)
# ---------------------------------------------------------------------------

PRODUCT_GRAPHS = {
    "ring": ring_graph,
    "path": path_graph,
    "star": star_graph,
    "complete": complete_graph,
    "random": lambda n: random_connected_graph(n, min(1.0, 10.0 / n), 11),
}


@pytest.mark.parametrize("topology, n", [
    (topology, n) for topology in sorted(PRODUCT_GRAPHS) for n in (1, 5, 50, 300, 500, 1000)
    if n > 1 or topology not in ("ring", "star")  # a ring needs 3 vertices, a star 2
])
def test_mixing_apply_matches_matmul_to_rounding(topology, n):
    """Either product is ``w @ x`` to rounding; the dense one is ``w @ x`` bitwise.

    The Metropolis weights are built uncertified: only the product is under test.
    """
    g = PRODUCT_GRAPHS[topology](n)
    mixing = MixingMatrix(_metropolis_weights(g), g, 0.0)
    rng = np.random.default_rng(n)
    row_sum = np.abs(mixing.w).sum(axis=1).max()
    for h in (1, 3, 8):
        wide = rng.standard_normal((n, 2 * h + 1))
        for x in (wide[:, :h].copy(), wide[:, 1 : 2 * h + 1 : 2]):  # contiguous, a column slice
            got, want = mixing.apply(x), mixing.w @ x
            assert got.shape == want.shape
            if mixing.product == "dense":
                assert_array_equal(got, want)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(x).max() * row_sum


def test_the_benchmark_matrices_pick_their_product():
    ring5 = metropolis_mixing(ring_graph(5))
    random50_x = metropolis_mixing(random_connected_graph(50, 0.1, 7))
    random50_y = metropolis_mixing(ring_graph(50))
    assert [m.product for m in (ring5, random50_x, random50_y)] == ["dense"] * 3
    assert metropolis_mixing(random_connected_graph(500, 0.02, 11)).product == "gather"


def test_the_product_rule_reads_the_widest_row():
    """Sparse and large takes the gather; a dense row or a small ``n`` keeps ``w @ x``."""
    def product(g):
        return MixingMatrix(_metropolis_weights(g), g, 0.0).product

    assert product(ring_graph(500)) == "gather"
    assert product(star_graph(500)) == "dense"
    assert product(ring_graph(300)) == "dense"


def test_the_gather_reads_the_weights_not_the_graph():
    """Rows of any width, empty rows included, and the product is read-only."""
    g = ring_graph(600)
    rng = np.random.default_rng(0)
    w = np.zeros((600, 600))
    w[np.arange(600), np.arange(600)] = rng.uniform(size=600)
    w[5, 40:80] = rng.uniform(size=40)
    w[7] = 0.0
    mixing = MixingMatrix(w, g, 0.0)
    assert mixing.product == "gather"
    x = rng.standard_normal((600, 4))
    assert_allclose(mixing.apply(x), w @ x, rtol=0.0, atol=1e-12 * np.abs(x).max() * 41)
    assert not mixing.apply(x)[7].any()
    # a non-finite row reaches the rows that weight it and no other: the pad row is zero
    x[60] = np.inf
    assert_array_equal(np.flatnonzero(~np.isfinite(mixing.apply(x)).any(axis=1)), [5, 60])
    with pytest.raises(AttributeError):
        mixing.product = "dense"


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def test_certify_constructed_mixing_passes():
    g = path_graph(3)
    cert = certify_mixing(mixing_from_laplacian(g, 2.0).w, g)
    assert cert.passed
    assert cert.decentralized and cert.symmetric and cert.kernel and cert.spectral
    assert cert.unit_eigenvalue_multiplicity == 1


def test_certify_identity_fails_kernel():
    # eigenvalue 1 with full multiplicity: consensus is not forced
    g = path_graph(3)
    cert = certify_mixing(np.eye(3), g)
    assert not cert.passed
    assert not cert.kernel
    assert cert.unit_eigenvalue_multiplicity == 3
    assert cert.decentralized and cert.symmetric and cert.spectral


def test_certify_swap_fails_spectral():
    g = path_graph(2)
    cert = certify_mixing(np.array([[0.0, 1.0], [1.0, 0.0]]), g)
    assert not cert.passed
    assert not cert.spectral
    assert cert.lambda_min == pytest.approx(-1.0)


def test_certify_off_graph_support_fails():
    g = path_graph(3)  # 0-1-2, no (0,2) edge
    w = metropolis_mixing(ring_graph(3)).w  # dense 1/3 matrix uses (0,2)
    cert = certify_mixing(w, g)
    assert not cert.decentralized
    assert not cert.passed


def test_certify_asymmetric_fails():
    g = path_graph(2)
    cert = certify_mixing(np.array([[0.5, 0.5], [0.4, 0.6]]), g)
    assert not cert.symmetric
    assert not cert.passed


def test_certificate_summary_mentions_failure():
    g = path_graph(3)
    text = certify_mixing(np.eye(3), g).summary()
    assert "FAIL" in text
    assert "overall: FAIL" in text


def test_certify_both_constructions_on_corpus():
    graphs = [path_graph(n) for n in range(2, 8)]
    graphs += [ring_graph(n) for n in range(3, 8)]
    graphs += [star_graph(n) for n in range(3, 8)]
    graphs += [random_connected_graph(9, density=0.3, seed=s) for s in range(4)]
    for g in graphs:
        met = metropolis_mixing(g)
        assert certify_mixing(met.w, g).passed
        lap_max = float(np.linalg.eigvalsh(laplacian(g)).max())
        con = mixing_from_laplacian(g, 0.75 * lap_max)
        assert certify_mixing(con.w, g).passed


def eigenvector_certificate(w, graph, tol=1e-9):
    """The earlier rule: a full ``eigh``, then the unit eigenvector against the ones vector."""
    w = np.asarray(w, dtype=float)
    n = graph.n
    allowed = graph.adjacency().astype(bool) | np.eye(n, dtype=bool)
    off_support = np.abs(np.where(allowed, 0.0, w))
    decentralized = bool(off_support.max(initial=0.0) <= tol)
    notes = []
    if not decentralized:
        i, j = np.unravel_index(np.argmax(off_support), w.shape)
        notes.append(f"nonzero weight {w[i, j]!r} on non-edge ({i}, {j})")
    symmetric = bool(np.abs(w - w.T).max(initial=0.0) <= tol)
    if not symmetric:
        notes.append("matrix is not symmetric; spectral checks skipped")
        return dict(decentralized=decentralized, symmetric=False, kernel=False, spectral=False,
                    lambda_min=float("nan"), lambda_max=float("nan"),
                    unit_eigenvalue_multiplicity=0, notes=tuple(notes))
    vals, vecs = np.linalg.eigh((w + w.T) / 2.0)
    near_one = np.abs(vals - 1.0) <= tol
    multiplicity = int(near_one.sum())
    kernel = multiplicity == 1
    if kernel:
        v = vecs[:, int(np.argmax(near_one))]
        ones = np.ones(n) / np.sqrt(n)
        kernel = bool(min(np.abs(v - ones).max(), np.abs(v + ones).max()) <= tol)
        if not kernel:
            notes.append("unit eigenvector is not the consensus direction")
    elif multiplicity == 0:
        notes.append("no eigenvalue equal to 1")
    else:
        notes.append(f"eigenvalue 1 has multiplicity {multiplicity}")
    spectral = bool(vals[-1] <= 1.0 + tol and vals[0] > -1.0 + tol)
    if not spectral:
        notes.append("eigenvalues must lie in (-1, 1]")
    return dict(decentralized=decentralized, symmetric=True, kernel=kernel, spectral=spectral,
                lambda_min=float(vals[0]), lambda_max=float(vals[-1]),
                unit_eigenvalue_multiplicity=multiplicity, notes=tuple(notes))


def _certificate_cases():
    graphs = [path_graph(n) for n in range(2, 8)]
    graphs += [ring_graph(n) for n in range(3, 8)]
    graphs += [star_graph(n) for n in range(3, 8)]
    graphs += [random_connected_graph(9, density=0.3, seed=s) for s in range(4)]
    cases = []
    for g in graphs:
        lap_max = float(np.linalg.eigvalsh(laplacian(g)).max())
        cases += [(metropolis_mixing(g).w, g), (mixing_from_laplacian(g, 0.75 * lap_max).w, g)]
    cases += [
        (np.eye(3), path_graph(3)),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), path_graph(2)),
        (metropolis_mixing(ring_graph(3)).w, path_graph(3)),
        (np.array([[0.5, 0.5], [0.4, 0.6]]), path_graph(2)),
        # eigenvalue 1 is simple, but its eigenvector is e_1
        (np.diag([1.0, 0.5, 0.5]), path_graph(3)),
    ]
    return cases


def test_eigenvalue_certificate_matches_the_eigenvector_rule():
    for w, g in _certificate_cases():
        cert = certify_mixing(w, g)
        ref = eigenvector_certificate(w, g)
        for name in ("decentralized", "symmetric", "kernel", "spectral",
                     "unit_eigenvalue_multiplicity", "notes"):
            assert getattr(cert, name) == ref[name], name
        assert_allclose([cert.lambda_min, cert.lambda_max], [ref["lambda_min"], ref["lambda_max"]],
                        rtol=0.0, atol=1e-12)


def test_certify_simple_unit_eigenvalue_off_the_consensus_line_fails_kernel():
    cert = certify_mixing(np.diag([1.0, 0.5, 0.5]), path_graph(3))
    assert not cert.kernel and not cert.passed
    assert cert.unit_eigenvalue_multiplicity == 1
    assert cert.notes == ("unit eigenvector is not the consensus direction",)
