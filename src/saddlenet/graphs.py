"""Communication graphs and gossip mixing matrices.

A mixing matrix encodes one round of weighted neighbor averaging over an
undirected connected graph.  For the solvers in this package a matrix ``W``
is admissible when

* it is supported on the graph (``w_ij = 0`` for non-adjacent ``i != j``),
* it is symmetric,
* ``1`` is a simple eigenvalue with the all-ones eigenvector,
* every eigenvalue lies in ``(-1, 1]``.

Three standard constructions are provided (Laplacian-based, Metropolis and
lazy Metropolis weights) together with a numerical certificate for arbitrary
matrices.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BlockMixing",
    "Graph",
    "GraphFormatError",
    "MixingCertificate",
    "MixingMatrix",
    "certify_mixing",
    "complete_graph",
    "graph_to_edge_list",
    "is_connected",
    "laplacian",
    "lazy_metropolis_mixing",
    "metropolis_mixing",
    "mixing_blocks",
    "mixing_from_laplacian",
    "named_topology",
    "parse_edge_list",
    "path_graph",
    "random_connected_graph",
    "ring_graph",
    "star_graph",
]


class GraphFormatError(ValueError):
    """Raised when an edge-list document cannot be parsed."""


class Graph:
    """Simple undirected graph on vertices ``0 .. n-1``, immutable.

    ``Graph(n, edges)`` takes the edges as any iterable of ``(i, j)`` pairs (a
    frozenset, a list, ...) or as an ``(m, 2)`` integer array; reversed and
    repeated pairs collapse into one edge.  The graph keeps one edge
    representation, the read-only ``(m, 2)`` array ``edge_array`` of its
    ``(i, j)`` pairs with ``i < j`` in sorted order, and its neighbour lists in
    two int arrays (CSR): the neighbours of vertex ``i`` are
    ``_heads[_indptr[i]:_indptr[i + 1]]``, in increasing order.  That is
    ``32 |E| + 8 n`` bytes: 1.4 MB for the 42179 edges of
    ``random_connected_graph(2000, 0.02, 11)``, where a frozenset of tuples
    beside the array and per-vertex neighbour tuples took 10.5 MB.  ``edges``
    builds the frozenset of Python-int pairs on each read; equality, hashing,
    ``repr`` and pickling go by ``n`` and the edges.
    """

    __slots__ = ("n", "edge_array", "_indptr", "_heads")

    def __init__(self, n, edges):
        n = operator.index(n)
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if pairs.size == 0:
            pairs = np.zeros((0, 2), dtype=np.intp)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
            raise ValueError(f"edges must be pairs of vertex indices, got shape {pairs.shape} "
                             f"of {pairs.dtype}")
        lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        loops = np.flatnonzero(lo == hi)
        if loops.size:
            raise ValueError(f"self-loop at vertex {lo[loops[0]]}")
        bad = np.flatnonzero((lo < 0) | (hi >= n))
        if bad.size:
            raise ValueError(f"edge {(int(lo[bad[0]]), int(hi[bad[0]]))} out of range for n={n}")
        keys = np.sort(lo.astype(np.intp) * n + hi)
        distinct = np.ones(len(keys), dtype=bool)
        distinct[1:] = keys[1:] != keys[:-1]
        edge_array = np.stack(np.divmod(keys[distinct], n), axis=1)
        edge_array.flags.writeable = False
        # both directions of every edge, sorted by (tail, head): the heads of each
        # tail are its neighbours in increasing order
        tail, head = np.concatenate([edge_array, edge_array[:, ::-1]]).T
        heads = head[np.argsort(tail * n + head)]
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(tail, minlength=n), out=indptr[1:])
        heads.flags.writeable = indptr.flags.writeable = False
        for name, value in (("n", n), ("edge_array", edge_array), ("_indptr", indptr), ("_heads", heads)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.n, self.edge_array)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edge_array, other.edge_array)

    def __hash__(self):
        return hash((self.n, self.edge_array.tobytes()))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n!r}, edges={self.edges!r})"

    @classmethod
    def from_edges(cls, n, edges):
        """The graph of any iterable of pairs: the same as ``Graph(n, edges)``."""
        return cls(n, edges)

    @property
    def edges(self):
        """The edges as a frozenset of ``(i, j)`` Python-int pairs, ``i < j``, built per read."""
        return frozenset(self.sorted_edges)

    @property
    def sorted_edges(self):
        return tuple(zip(*self.edge_array.T.tolist()))

    def _span(self, i):
        i = operator.index(i)
        if not 0 <= i < self.n:
            raise IndexError(f"vertex {i} out of range for n={self.n}")
        return self._indptr[i], self._indptr[i + 1]

    def neighbors(self, i):
        a, b = self._span(i)
        return tuple(self._heads[a:b].tolist())

    def degree(self, i):
        a, b = self._span(i)
        return int(b - a)

    def adjacency(self):
        a = np.zeros((self.n, self.n))
        i, j = self.edge_array.T
        a[i, j] = a[j, i] = 1.0
        return a


def parse_edge_list(text):
    """Parse a plain-text edge list into a :class:`Graph`.

    One edge per line as ``i j`` (whitespace separated, zero-based).  Blank
    lines and ``#`` comments are ignored.  An optional ``n <count>`` header
    fixes the vertex count; otherwise it is ``1 + max index``.  Duplicate
    edges collapse; self-loops and out-of-range indices are errors.
    """
    declared_n = None
    raw_edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if declared_n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate 'n' header")
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: malformed header {line!r}")
            try:
                declared_n = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: malformed header {line!r}") from None
            if declared_n < 1:
                raise GraphFormatError(f"line {lineno}: vertex count must be positive")
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: malformed edge line {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: malformed edge line {line!r}") from None
        if i < 0 or j < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex index")
        if i == j:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {i}")
        raw_edges.append((lineno, min(i, j), max(i, j)))

    if declared_n is None:
        if not raw_edges:
            raise GraphFormatError("empty edge list and no 'n' header")
        declared_n = 1 + max(j for (_, _, j) in raw_edges)
    for lineno, i, j in raw_edges:
        if j >= declared_n:
            raise GraphFormatError(f"line {lineno}: vertex {j} exceeds declared n={declared_n}")
    return Graph(declared_n, [(i, j) for (_, i, j) in raw_edges])


def graph_to_edge_list(g):
    """Serialize a graph to the text format accepted by :func:`parse_edge_list`."""
    lines = [f"n {g.n}"]
    lines += [f"{i} {j}" for i, j in g.sorted_edges]
    return "\n".join(lines) + "\n"


def is_connected(g):
    """Breadth-first connectivity test (a single vertex counts as connected)."""
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in g.neighbors(i):
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return len(seen) == g.n


def laplacian(g):
    """Graph Laplacian ``L = D - A`` as a dense float array."""
    a = g.adjacency()
    return np.diag(a.sum(axis=1)) - a


# ---------------------------------------------------------------------------
# named topologies
# ---------------------------------------------------------------------------

def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def ring_graph(n):
    if n < 3:
        raise ValueError("ring needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n):
    if n < 2:
        raise ValueError("star needs at least 2 vertices")
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_connected_graph(n, density=0.3, seed=0):
    """Random connected graph: a random spanning tree plus Bernoulli edges.

    Vertices are attached in a random order, each to a uniformly chosen
    earlier vertex (guaranteeing connectivity); every remaining pair is then
    added independently with probability ``density``.  Fully reproducible
    from ``seed`` (PCG64).  Draw order: the vertex permutation, one anchor
    per vertex, one coin per non-tree pair.  The order has not changed since
    the draws were made one vertex at a time, so every seeded graph is the
    same; the edges are pairs of Python ints.
    """
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    # vertex order[k] joins order[u_k], u_k uniform in [0, k): one call draws
    # every u_k in turn, the stream of one call per vertex
    anchor = order[rng.integers(0, np.arange(1, n))]
    tree = np.sort(np.stack([anchor, order[1:]], axis=1), axis=1)
    # one coin per non-tree pair in (i < j) row-major order; pair (i, j) has
    # index start[i] + j - i - 1 in that order, and a kept coin's index among
    # the free pairs is shifted past the tree pairs before it
    start = np.arange(n) * (2 * n - 1 - np.arange(n)) // 2
    taken = np.sort(start[tree[:, 0]] + tree[:, 1] - tree[:, 0] - 1)
    kept = np.flatnonzero(rng.random(n * (n - 1) // 2 - len(taken)) < density)
    kept += np.searchsorted(taken - np.arange(len(taken)), kept, side="right")
    i = np.searchsorted(start, kept, side="right") - 1
    pairs = np.concatenate([tree, np.stack([i, kept - start[i] + i + 1], axis=1)])
    return Graph(n, pairs)


_TOPOLOGIES = {
    "path": path_graph,
    "ring": ring_graph,
    "star": star_graph,
    "complete": complete_graph,
}


def named_topology(name, n, density=0.3, seed=0):
    """Build one of the named graph families (``random`` takes density/seed)."""
    if name == "random":
        return random_connected_graph(n, density=density, seed=seed)
    try:
        return _TOPOLOGIES[name](n)
    except KeyError:
        raise ValueError(f"unknown topology {name!r}") from None


# ---------------------------------------------------------------------------
# mixing matrices
# ---------------------------------------------------------------------------

# The product rule: the neighbour gather when W is large and sparse, else the
# dense ``w @ x`` (measured crossover, see :class:`MixingMatrix`).
_GATHER_MIN_N = 450
_GATHER_MIN_N_OVER_K = 12


@dataclass(frozen=True, eq=False, init=False)
class MixingMatrix:
    """A certified mixing matrix bound to its communication graph.

    ``MixingMatrix(w, graph, lambda_min)`` takes an ``(n, n)`` ``w`` with
    ``n = graph.n`` (any other shape raises ``ValueError``).  ``apply``
    computes ``w @ x`` by one of two products, picked once here and recorded
    in the read-only ``product``; each product keeps only what it reads:

    * ``"dense"``: the matrix product ``w @ x``, O(n^2 h).  It keeps a
      read-only copy of ``w``, which ``w`` returns;
    * ``"gather"``: a padded neighbour gather, O(n K h).  Row ``i`` keeps the
      column indices and weights of its nonzeros (diagonal included) in
      ``_nbr[i]`` and ``_wp[i, 0]``; ``K`` is the widest row and shorter rows
      point at a zero pad row ``n``.  ``x`` is copied into an ``(n + 1, h)``
      buffer with a zero last row, and the output is
      ``matmul(_wp, take(pad, _nbr, axis=0))[:, 0, :]``.  These two tables
      are all it keeps: O(n K) memory, 2.1 MB for the Metropolis weights of
      ``random_connected_graph(2000, 0.02, 11)`` (``K = 66``) where the dense
      ``w`` took 32 MB.  Each read of ``w`` rebuilds the dense read-only
      matrix from the tables, one O(n^2) pass (0.36 ms at n = 500 and 8.5 ms
      at n = 2000 in a warm loop, one thread), and nothing keeps it; it is
      bitwise the constructed ``w``, except that a ``-0.0`` entry reads back
      as ``0.0``.

    The gather is picked when ``n >= 450`` and ``12 K <= n``.  It sums each
    row in another order, so it matches ``w @ x`` to rounding, not bitwise.
    The rule is fitted to products of ``(n, h)`` rows, ``h`` = 1, 3 and 8, on
    Metropolis weights; one product with ``h = 8`` took (µs, best of 9, one
    BLAS thread, 2-vCPU Intel Xeon VM):

    ==========  =====  ===  =====  ======
    graph        n      K   dense  gather
    ==========  =====  ===  =====  ======
    ring          300    3     37      32
    random 2 %    300   19     40      70
    random 2 %    400   22    155     105
    random 2 %    500   24    245     110
    random 5 %    500   46    216     269
    random 5 %    700   59    462     409
    random 2 %   1000   41    950     481
    random 10 %  1000  135    870    1277
    random 5 %   2000  136   4550    2353
    random 10 %  2000  259   4115    8979
    ==========  =====  ===  =====  ======

    Up to about n = 400, ``w`` fits in the L2 cache and the dense product
    wins on random graphs or loses by little (at n = 400 with ``h = 3`` it
    took 28 µs against 68 µs); from n = 450 on, the gather wins while rows
    hold at most about ``n / 12`` nonzeros.
    """

    graph: Graph
    lambda_min: float
    product: str
    _w: np.ndarray | None = field(repr=False)
    _nbr: np.ndarray | None = field(repr=False)
    _wp: np.ndarray | None = field(repr=False)

    def __init__(self, w, graph, lambda_min):
        w = np.asarray(w, dtype=float)  # copied below only if kept
        n = graph.n
        if w.shape != (n, n):
            raise ValueError(f"matrix shape {w.shape} does not match n={n}")
        # below the size rule the product is dense however sparse w is: no scan
        rows, cols = np.nonzero(w) if n >= _GATHER_MIN_N else (np.arange(0),) * 2
        counts = np.bincount(rows, minlength=n)
        k = int(counts.max(initial=0))
        nbr = wp = None
        if n < _GATHER_MIN_N or _GATHER_MIN_N_OVER_K * k > n:
            w = np.array(w)
            w.flags.writeable = False
        else:
            # slot of each nonzero within its row (np.nonzero walks w row by row)
            slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
            nbr = np.full((n, k), n)
            nbr[rows, slot] = cols
            wp = np.zeros((n, 1, k))
            wp[rows, 0, slot] = w[rows, cols]
            w = None
        for name, value in (("graph", graph), ("lambda_min", lambda_min),
                            ("product", "dense" if w is not None else "gather"),
                            ("_w", w), ("_nbr", nbr), ("_wp", wp)):
            object.__setattr__(self, name, value)

    @property
    def n(self):
        return self.graph.n

    @property
    def w(self):
        """The weights, read-only; on the gather product one O(n^2) rebuild per read, not kept."""
        if self._w is not None:
            return self._w
        rows, slots = np.nonzero(self._nbr < self.n)
        w = np.zeros((self.n, self.n))
        w[rows, self._nbr[rows, slots]] = self._wp[rows, 0, slots]
        w.flags.writeable = False
        return w

    def apply(self, x):
        """One averaging round applied to stacked per-agent rows."""
        x = np.asarray(x, dtype=float)
        if self._w is not None:
            return self._w @ x
        rows = x.reshape(len(x), -1)
        pad = np.empty((len(rows) + 1, rows.shape[1]))
        pad[:-1] = rows
        pad[-1] = 0.0
        out = np.matmul(self._wp, np.take(pad, self._nbr, axis=0))
        return out[:, 0, :].reshape(x.shape)


@dataclass(frozen=True, eq=False)
class BlockMixing:
    """Blockwise mixing: ``W1`` on the first ``split`` columns, ``W2`` after.

    ``split`` is only needed when the pair is used as a single operator on
    stacked ``(x, y)`` rows; the min-max functions set it to ``p`` themselves.
    It is None or a nonnegative int, and rows narrower than it are rejected.
    """

    w1: object
    w2: object
    split: int | None = None

    def __post_init__(self):
        if self.w1.n != self.w2.n:
            raise ValueError("both mixing matrices must have the same number of agents")
        split = self.split
        if split is not None and (isinstance(split, bool) or not isinstance(split, (int, np.integer))
                                  or split < 0):
            raise ValueError(f"split must be None or a nonnegative int, got {split!r}")

    @property
    def n(self):
        return self.w1.n

    @property
    def lambda_min(self):
        return min(self.w1.lambda_min, self.w2.lambda_min)

    def apply(self, z):
        """One exchange per block: ``W1`` on the first ``split`` columns, ``W2`` on the rest.

        When both blocks share one matrix (``w1 is w2``) a single product
        covers all columns; each block still counts as its own exchange.
        Otherwise both products are written into one output array: a block
        whose matrix mixes by the dense product (a ``product`` of
        ``"dense"``, read through a delegating proxy as on the bare matrix)
        is ``matmul`` of its ``w`` with the column view, and any other block
        is its own ``apply`` of that view.  Rows that are not C-contiguous
        are copied once first, since ``matmul`` sums a view that BLAS cannot
        take in another order.  The result is bitwise each block's product
        of its contiguous columns.
        """
        if self.split is None:
            raise ValueError("split must be set to apply a block mixing to stacked rows")
        z = np.asarray(z, dtype=float)
        _check_split(self.split, z.shape[1])
        if self.w1 is self.w2:
            return self.w1.apply(z)
        z = np.ascontiguousarray(z)
        out = np.empty(z.shape)
        for m, cols in ((self.w1, slice(0, self.split)), (self.w2, slice(self.split, None))):
            if getattr(m, "product", None) == "dense":
                np.matmul(m.w, z[:, cols], out=out[:, cols])
            else:
                out[:, cols] = m.apply(z[:, cols])
        return out


def _check_split(split, h):
    if split > h:
        raise ValueError(f"split {split} is wider than rows of width {h}")


def mixing_blocks(mixing, h):
    """What a round sends on rows of width ``h``: one ``(name, matrix, columns)`` per block.

    A :class:`BlockMixing` (anything with a ``w1``, so also a proxy that
    delegates to one) is block ``"x"`` on ``w1`` over columns ``[0, split)``
    and block ``"y"`` on ``w2`` over the rest; any other mixing is the
    single block ``"x"`` over all columns.  A block without columns (``"y"``
    when ``split = h``) sends nothing and is left out.  A ``split`` wider
    than ``h`` raises ``ValueError``.
    """
    if hasattr(mixing, "w1"):
        if mixing.split is None:
            raise ValueError("split must be set to lay out a block mixing")
        _check_split(mixing.split, h)
        blocks = (("x", mixing.w1, slice(0, mixing.split)), ("y", mixing.w2, slice(mixing.split, h)))
    else:
        blocks = (("x", mixing, slice(0, h)),)
    return tuple(block for block in blocks if range(h)[block[2]])


@dataclass(frozen=True)
class MixingCertificate:
    """Per-property result of checking a candidate mixing matrix."""

    decentralized: bool
    symmetric: bool
    kernel: bool
    spectral: bool
    lambda_min: float
    lambda_max: float
    unit_eigenvalue_multiplicity: int
    tol: float
    notes: tuple

    @property
    def passed(self):
        return self.decentralized and self.symmetric and self.kernel and self.spectral

    def summary(self):
        flag = lambda ok: "pass" if ok else "FAIL"  # noqa: E731
        lines = [
            f"decentralized (supported on graph):  {flag(self.decentralized)}",
            f"symmetric:                           {flag(self.symmetric)}",
            f"simple unit eigenvalue on consensus: {flag(self.kernel)}",
            f"spectrum in (-1, 1]:                 {flag(self.spectral)}",
            f"lambda_min = {self.lambda_min!r}",
            f"lambda_max = {self.lambda_max!r}",
            f"unit eigenvalue multiplicity = {self.unit_eigenvalue_multiplicity}",
            f"tolerance = {self.tol!r}",
        ]
        lines += list(self.notes)
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def certify_mixing(w, graph, tol=1e-9):
    """Check the four mixing-matrix properties of ``w`` against ``graph``.

    Properties are verified numerically to ``tol``: support on the graph,
    symmetry, a simple eigenvalue 1 on the consensus line (``|W 1 - 1|`` at
    most ``tol`` entrywise, which for a symmetric ``W`` makes the all-ones
    vector span that eigenspace), and all eigenvalues in ``(-1 + tol, 1 + tol]``.
    Eigenvalues come from a symmetric eigenvalue solver, so symmetry is
    checked first; if it fails, the spectral properties are reported as
    failed too.

    When ``tol >= 0`` and every nonzero of ``w`` (NaN included) lies on the
    diagonal or on an edge, one count of nonzeros shows ``w`` decentralized
    and symmetry is read off the diagonal and the edges alone; the dense
    support and ``w - w.T`` passes are skipped.  Any other input takes them.
    When the edges then read bitwise the same both ways, ``w`` goes to the
    eigensolver as it is; otherwise its symmetric part ``(w + w.T) / 2`` does.
    A NaN or infinite ``tol`` raises ``ValueError``: an infinite one would
    pass any matrix as symmetric and hand its entries to the eigensolver.
    """
    return _certificate(w, graph, tol)[1]


def _certificate(w, graph, tol, vals=None):
    """``w`` as floats and its :func:`certify_mixing` certificate at ``tol``; ``vals``, the
    ascending eigenvalues of ``w`` when the caller has them, stand in for the eigensolve."""
    if not np.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol!r}")
    w = np.asarray(w, dtype=float)
    n = graph.n
    if w.shape != (n, n):
        raise ValueError(f"matrix shape {w.shape} does not match n={n}")

    notes = []
    i, j = graph.edge_array.T
    diag, upper, lower = np.diagonal(w), w[i, j], w[j, i]
    exact = False  # the edges read bitwise the same both ways: w is its own symmetric part
    if 0.0 <= tol and np.count_nonzero(w) == sum(map(np.count_nonzero, (diag, upper, lower))):
        # every nonzero is on the support, so only the diagonal and the edges can be asymmetric
        decentralized = True
        symmetric = bool(np.abs(np.concatenate([diag - diag, upper - lower])).max(initial=0.0) <= tol)
        exact = upper.tobytes() == lower.tobytes()
    else:
        allowed = graph.adjacency().astype(bool) | np.eye(n, dtype=bool)
        off_support = np.abs(np.where(allowed, 0.0, w))
        decentralized = bool(off_support.max(initial=0.0) <= tol)
        if not decentralized:
            i, j = np.unravel_index(np.argmax(off_support), w.shape)
            notes.append(f"nonzero weight {w[i, j]!r} on non-edge ({i}, {j})")
        symmetric = bool(np.abs(w - w.T).max(initial=0.0) <= tol)

    if symmetric:
        vals = np.linalg.eigvalsh(w if exact else (w + w.T) / 2.0) if vals is None else vals
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

    return w, MixingCertificate(
        decentralized=decentralized,
        symmetric=symmetric,
        kernel=kernel,
        spectral=spectral,
        lambda_min=lam_min,
        lambda_max=lam_max,
        unit_eigenvalue_multiplicity=multiplicity,
        tol=tol,
        notes=tuple(notes),
    )


def _certified(g, scheme, alpha=None):
    w, cert = _SCHEMES[scheme](g, alpha, 1e-9)
    if not cert.passed:
        origin = f"alpha={alpha!r}" if scheme == "laplacian" else f"{scheme}_mixing"
        raise ValueError(f"{origin} gives a mixing matrix that fails its certificate:\n{cert.summary()}")
    return MixingMatrix(w, g, cert.lambda_min)


def mixing_from_laplacian(g, alpha):
    """Laplacian mixing ``W = I - L / alpha`` for ``alpha > lambda_max(L) / 2``.

    The certificate checks the bound on ``W``'s own spectrum, ``lambda_min(W)
    = 1 - lambda_max(L) / alpha > -1``, and a violation raises, as does an
    ``alpha`` within rounding of the bound or a disconnected graph (whose
    ``W`` has the eigenvalue 1 once per component).
    """
    return _certified(g, "laplacian", alpha)


def metropolis_mixing(g):
    """Metropolis weights ``w_ij = 1 / (1 + max(deg_i, deg_j))`` on edges.

    Diagonal entries take the complement so each row sums to one; the result
    is symmetric, doubly stochastic and admissible for any connected graph.
    """
    return _certified(g, "metropolis")


def _metropolis_weights(g):
    """The Metropolis weight matrix of ``g``, not certified; degrees come from one pass."""
    w = np.zeros((g.n, g.n))
    i, j = g.edge_array.T
    deg = np.bincount(g.edge_array.ravel(), minlength=g.n)
    w[i, j] = w[j, i] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def lazy_metropolis_mixing(g):
    """The least lazy shift ``(1 - c) I + c W`` of the Metropolis weights ``W`` that is PSD.

    ``c = 1 / (1 - lambda_min(W))`` when ``lambda_min(W) < 0``, which moves
    ``lambda_min`` to 0; otherwise ``W`` is kept as it is (stars, the 3-ring
    and complete graphs, whose ``lambda_min`` is 0).  A ``lambda_min`` within
    the eigensolver's rounding of 0, ``n`` machine epsilons (``||W|| = 1``),
    counts as 0, so those graphs keep their weights bitwise.  The shift has
    ``W``'s support, so a round sends the same messages, and it stays inside
    the theory: ``(I - W_c) / 2 = c (I - W) / 2``.
    It raises the step gate ``(1 + lambda_min) / (4 L)``, so runs take fewer
    rounds: 20103 -> 13012 on the README's 5-ring alg2 example at the config's
    default ``safety = 0.99``.  PG-EXTRA's lazy ``(I + W) / 2`` is the shift
    with ``c = 1/2``.  Its one eigensolve, of ``W``, certifies ``W_c``.
    """
    return _certified(g, "lazy_metropolis")


def _lazy_metropolis(g, alpha, tol):
    """The lazy Metropolis weights and their certificate; ``c`` and the spectrum from one ``eigvalsh``.

    The edges take ``c w_ij`` and the diagonal the complement, so each row
    sums to one as in :func:`_metropolis_weights`; in exact arithmetic that
    is ``(1 - c) I + c W``.  A diagonal formed as ``(1 - c) + c w_ii`` would
    leave rows about an ulp off one, and the dual sum would drift by that
    much a round: on the README 5-ring the one-product and the structured
    paths then end 2.5e-12 apart after 15603 rounds, against 1.9e-14 with
    the complement.  ``W``'s eigenvalues mapped by ``lambda -> 1 - c (1 - lambda)`` are
    ``W_c``'s, and :func:`certify_mixing`'s checks judge ``W_c`` itself on them.
    """
    w = _metropolis_weights(g)
    vals = np.linalg.eigvalsh(w)
    if vals[0] < -g.n * np.finfo(float).eps:
        c = 1.0 / (1.0 - vals[0])
        np.fill_diagonal(w, 0.0)
        w *= c
        np.fill_diagonal(w, 1.0 - w.sum(axis=1))
        vals = 1.0 - c * (1.0 - vals)
    return _certificate(w, g, tol, vals)


def _laplacian_weights(lap, alpha):
    """The weight matrix ``I - lap / alpha`` of a Laplacian, not certified; ``alpha > 0``."""
    if not alpha > 0:
        raise ValueError(f"alpha={alpha!r} must be positive")
    return np.eye(len(lap)) - lap / alpha


# each scheme's weights and their certificate at ``tol``, as ``(graph, alpha, tol) -> (w, cert)``
_SCHEMES = {"lazy_metropolis": _lazy_metropolis,
            "metropolis": lambda g, alpha, tol: _certificate(_metropolis_weights(g), g, tol),
            "laplacian": lambda g, alpha, tol: _certificate(_laplacian_weights(laplacian(g), alpha), g, tol)}
