"""The set-up around the eigensolve works on edges, not on ``n x n`` passes:
the random graph's anchor draw, the certificate's support and symmetry
checks and the mixing product's scan.  Each result equals, bit for bit, the
loop or dense construction written out here as the reference.  The graph
corpus tests are in ``test_graph_neighbors.py`` and ``test_graphs.py``, the
inclusion agents' in ``test_stacked_constructors.py``."""

import math

import numpy as np
import pytest

from saddlenet.graphs import (
    Graph,
    MixingCertificate,
    MixingMatrix,
    _laplacian_weights,
    _metropolis_weights,
    certify_mixing,
    complete_graph,
    laplacian,
    path_graph,
    random_connected_graph,
    ring_graph,
    star_graph,
)


def graph_id(g):
    return f"n{g.n}-e{len(g.edges)}"


def per_vertex_anchors(rng, n):
    """Reference: one ``integers(0, k)`` call per vertex ``k = 1 .. n-1``."""
    return [int(rng.integers(0, k)) for k in range(1, n)]


@pytest.mark.parametrize("n", [1, 2, 3, 50, 500])
@pytest.mark.parametrize("seed", range(4))
def test_one_anchor_call_draws_the_per_vertex_stream(n, seed):
    looped, batched = np.random.default_rng(seed), np.random.default_rng(seed)
    assert batched.integers(0, np.arange(1, n)).tolist() == per_vertex_anchors(looped, n)
    # and leaves the generator where the loop left it
    assert batched.random(5).tobytes() == looped.random(5).tobytes()


def dense_certificate(w, graph, tol):
    """Reference: the certificate with its support and symmetry checks made over the
    whole ``n x n`` matrix, as they were before the edge checks."""
    w = np.asarray(w, dtype=float)
    n = graph.n
    notes = []
    allowed = graph.adjacency().astype(bool) | np.eye(n, dtype=bool)
    off_support = np.abs(np.where(allowed, 0.0, w))
    decentralized = bool(off_support.max(initial=0.0) <= tol)
    if not decentralized:
        i, j = np.unravel_index(np.argmax(off_support), w.shape)
        notes.append(f"nonzero weight {w[i, j]!r} on non-edge ({i}, {j})")
    symmetric = bool(np.abs(w - w.T).max(initial=0.0) <= tol)
    if symmetric:
        vals = np.linalg.eigvalsh((w + w.T) / 2.0)
        lam_min, lam_max = float(vals[0]), float(vals[-1])
        multiplicity = int((np.abs(vals - 1.0) <= tol).sum())
        kernel = multiplicity == 1
        if kernel:
            kernel = bool(np.abs(w.sum(axis=1) - 1.0).max() <= tol)
            if not kernel:
                notes.append("unit eigenvector is not the consensus direction")
        elif multiplicity == 0:
            notes.append("no eigenvalue equal to 1")
        else:
            notes.append(f"eigenvalue 1 has multiplicity {multiplicity}")
        spectral = bool(lam_max <= 1.0 + tol and lam_min > -1.0 + tol)
        if not spectral:
            notes.append("eigenvalues must lie in (-1, 1]")
    else:
        notes.append("matrix is not symmetric; spectral checks skipped")
        lam_min = lam_max = float("nan")
        multiplicity = 0
        kernel = spectral = False
    return MixingCertificate(decentralized, symmetric, kernel, spectral, lam_min, lam_max,
                             multiplicity, tol, tuple(notes))


def fields(certify, w, g, tol):
    """Every field of ``certify(w, g, tol)``, floats as bytes so that NaN and -0.0
    compare exactly."""
    with np.errstate(invalid="ignore"):  # inf - inf on the non-finite entries
        cert = certify(w, g, tol)
    return [np.float64(value).tobytes() if isinstance(value, float) else value
            for value in (getattr(cert, name) for name in cert.__dataclass_fields__)]


def near_misses(g, step):
    """Matrices at the edge of every check, ``(name, w)``; ``step`` is the tolerance probed."""
    base = _metropolis_weights(g)
    i, j = g.edge_array[0].tolist() if len(g.edges) else (0, 0)
    free = np.argwhere(np.triu(g.adjacency() == 0, 1)).tolist()  # non-edges (a, b), a < b
    a, b = free[0] if free else (None, None)
    cases = [("metropolis", base), ("zero diagonal", base - np.diag(np.diag(base)))]
    if g.n > 1:
        cases.append(("laplacian", _laplacian_weights(laplacian(g), float(2 * g.n))))

    def edit(name, *entries):
        w = base.copy()
        for r, c, v in entries:
            w[r, c] = v
        cases.append((name, w))

    for v in (np.nan, np.inf, -np.inf, 0.0, -0.0):
        edit(f"diagonal {v}", (0, 0, v))
        if len(g.edges):
            edit(f"edge {v}", (i, j, v))
            edit(f"symmetric edge {v}", (i, j, v), (j, i, v))
        if free:
            edit(f"off-support {v}", (a, b, v))
            edit(f"symmetric off-support {v}", (a, b, v), (b, a, v))
    for dv in (step / 2, step, 2 * step):
        if len(g.edges):
            edit(f"edge asymmetry {dv}", (i, j, base[i, j] + dv))
        if free:
            edit(f"symmetric off-support {dv}", (a, b, dv), (b, a, dv))
            edit(f"symmetric off-support {-dv}", (a, b, -dv), (b, a, -dv))
    return cases


CERT_GRAPHS = [Graph(1, frozenset()), path_graph(2), ring_graph(6), star_graph(5),
               random_connected_graph(30, 0.1, 3), complete_graph(4)]


@pytest.mark.parametrize("g", CERT_GRAPHS, ids=graph_id)
@pytest.mark.parametrize("tol", [1e-9, 0.0, -0.0, 1e-3, math.inf, -1e-9, math.nan])
def test_every_certificate_field_equals_the_dense_certificate(g, tol):
    for name, w in near_misses(g, tol if 0 < tol < math.inf else 1e-9):
        if math.isfinite(tol):
            assert fields(certify_mixing, w, g, tol) == fields(dense_certificate, w, g, tol), name
        else:  # an infinite tol would pass any matrix as symmetric
            with pytest.raises(ValueError, match="tol must be finite"):
                certify_mixing(w, g, tol)


def scanned_product(w):
    """Reference: the product rule with the nonzero scan made at every size."""
    n = len(w)
    rows, cols = np.nonzero(w)
    counts = np.bincount(rows, minlength=n)
    k = int(counts.max(initial=0))
    if n < 450 or 12 * k > n:
        return "dense", None, None
    slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    nbr = np.full((n, k), n)
    nbr[rows, slot] = cols
    wp = np.zeros((n, 1, k))
    wp[rows, 0, slot] = w[rows, cols]
    return "gather", nbr, wp


@pytest.mark.parametrize("g", [ring_graph(449), ring_graph(450), star_graph(500), Graph(1, frozenset()),
                               random_connected_graph(300, 0.02, 11),
                               random_connected_graph(500, 0.02, 11)], ids=graph_id)
def test_the_product_and_its_gather_tables_equal_the_scanned_rule(g):
    m = MixingMatrix(_metropolis_weights(g), g, 0.0)
    product, nbr, wp = scanned_product(m.w)
    assert m.product == product
    for got, want in ((m._nbr, nbr), (m._wp, wp)):
        if want is None:
            assert got is None
        else:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_a_matrix_on_its_support_is_certified_without_the_dense_support(monkeypatch):
    g = random_connected_graph(60, 0.1, 4)
    w = _metropolis_weights(g)
    expected = fields(certify_mixing, w, g, 1e-9)

    def no_dense_support(self):
        raise AssertionError("dense adjacency built")

    monkeypatch.setattr(Graph, "adjacency", no_dense_support)
    assert fields(certify_mixing, w, g, 1e-9) == expected
    i, j = g.edge_array[0]
    for a, b in ((i, j), (j, i)):  # an edge weighted on one side only is on the support
        one_sided = w.copy()
        one_sided[a, b] = 0.0
        cert = certify_mixing(one_sided, g)
        assert cert.decentralized and not cert.symmetric
    w[0, g.n - 1] = w[g.n - 1, 0] = 1e-12  # off the support (not an edge of this graph)
    with pytest.raises(AssertionError, match="dense adjacency"):
        certify_mixing(w, g)
