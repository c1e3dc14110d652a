"""Communication graphs and gossip mixing matrices.

A mixing matrix encodes one round of weighted neighbor averaging over an
undirected connected graph.  For the solvers in this package a matrix ``W``
is admissible when

* it is supported on the graph (``w_ij = 0`` for non-adjacent ``i != j``),
* it is symmetric,
* ``1`` is a simple eigenvalue with the all-ones eigenvector,
* every eigenvalue lies in ``(-1, 1]``.

Two standard constructions are provided (Laplacian-based and Metropolis
weights) together with a numerical certificate for arbitrary matrices.
"""

from __future__ import annotations

import itertools
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


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0 .. n-1``.

    Edges are stored as a frozenset of ``(i, j)`` pairs with ``i < j``.  The
    read-only ``(m, 2)`` array ``edge_array`` holds them in sorted order, and
    the sorted neighbor tuples of every vertex are built from it once.
    """

    n: int
    edges: frozenset
    edge_array: np.ndarray = field(init=False, repr=False, compare=False)
    _adjacent: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        pairs = np.fromiter(itertools.chain.from_iterable(self.edges), dtype=np.intp,
                            count=2 * len(self.edges)).reshape(-1, 2)
        i, j = pairs.T
        loops = np.flatnonzero(i == j)
        if loops.size:
            raise ValueError(f"self-loop at vertex {i[loops[0]]}")
        bad = np.flatnonzero((i < 0) | (i > j) | (j >= self.n))
        if bad.size:
            raise ValueError(f"edge {tuple(pairs[bad[0]].tolist())} out of range for n={self.n}")
        pairs = pairs[np.argsort(i * self.n + j)]
        pairs.flags.writeable = False
        # both directions of every edge, sorted by (tail, head): the heads of each
        # tail are its neighbors in increasing order
        tail, head = np.concatenate([pairs, pairs[:, ::-1]]).T
        heads = head[np.argsort(tail * self.n + head)].tolist()
        ends = np.cumsum(np.bincount(tail, minlength=self.n)).tolist()
        object.__setattr__(self, "edge_array", pairs)
        object.__setattr__(self, "_adjacent",
                           tuple(tuple(heads[a:b]) for a, b in zip([0] + ends, ends)))

    @classmethod
    def from_edges(cls, n, edges):
        norm = frozenset((min(i, j), max(i, j)) for i, j in edges)
        return cls(n, norm)

    @property
    def sorted_edges(self):
        return tuple(zip(*self.edge_array.T.tolist()))

    def neighbors(self, i):
        return self._adjacent[i]

    def degree(self, i):
        return len(self.neighbors(i))

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
    return Graph(declared_n, frozenset((i, j) for (_, i, j) in raw_edges))


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
    return Graph(n, frozenset(zip(*pairs.T.tolist())))


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


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """A certified mixing matrix bound to its communication graph.

    ``apply`` computes ``w @ x`` by one of two products, picked once here and
    recorded in the read-only ``product``:

    * ``"dense"``: the matrix product ``w @ x``, O(n^2 h);
    * ``"gather"``: a padded neighbour gather, O(n K h).  Row ``i`` keeps the
      column indices and weights of its nonzeros (diagonal included) in
      ``nbr[i]`` and ``wp[i, 0]``; ``K`` is the widest row and shorter rows
      point at a zero pad row ``n``.  ``x`` is copied into an ``(n + 1, h)``
      buffer with a zero last row, and the output is
      ``matmul(wp, take(pad, nbr, axis=0))[:, 0, :]``.

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

    w: np.ndarray
    graph: Graph
    lambda_min: float
    product: str = field(init=False)
    _nbr: np.ndarray | None = field(init=False, repr=False, default=None)
    _wp: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        w = np.array(self.w, dtype=float)
        w.flags.writeable = False
        object.__setattr__(self, "w", w)
        n = len(w)
        # below the size rule the product is dense however sparse w is: no scan
        rows, cols = np.nonzero(w) if n >= _GATHER_MIN_N else (np.arange(0),) * 2
        counts = np.bincount(rows, minlength=n)
        k = int(counts.max(initial=0))
        if n < _GATHER_MIN_N or _GATHER_MIN_N_OVER_K * k > n:
            object.__setattr__(self, "product", "dense")
            return
        # slot of each nonzero within its row (np.nonzero walks w row by row)
        slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
        nbr = np.full((n, k), n)
        nbr[rows, slot] = cols
        wp = np.zeros((n, 1, k))
        wp[rows, 0, slot] = w[rows, cols]
        object.__setattr__(self, "product", "gather")
        object.__setattr__(self, "_nbr", nbr)
        object.__setattr__(self, "_wp", wp)

    @property
    def n(self):
        return self.graph.n

    def apply(self, x):
        """One averaging round applied to stacked per-agent rows."""
        x = np.asarray(x, dtype=float)
        if self.product == "dense":
            return self.w @ x
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
        vals = np.linalg.eigvalsh(w if exact else (w + w.T) / 2.0)
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

    return MixingCertificate(
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


def _certified(w, graph, origin):
    cert = certify_mixing(w, graph)
    if not cert.passed:
        raise ValueError(f"{origin} gives a mixing matrix that fails its certificate:\n{cert.summary()}")
    return MixingMatrix(w, graph, cert.lambda_min)


def mixing_from_laplacian(g, alpha):
    """Laplacian mixing ``W = I - L / alpha`` for ``alpha > lambda_max(L) / 2``.

    The certificate checks the bound on ``W``'s own spectrum, ``lambda_min(W)
    = 1 - lambda_max(L) / alpha > -1``, and a violation raises, as does an
    ``alpha`` within rounding of the bound or a disconnected graph (whose
    ``W`` has the eigenvalue 1 once per component).
    """
    return _certified(_laplacian_weights(laplacian(g), alpha), g, f"alpha={alpha!r}")


def metropolis_mixing(g):
    """Metropolis weights ``w_ij = 1 / (1 + max(deg_i, deg_j))`` on edges.

    Diagonal entries take the complement so each row sums to one; the result
    is symmetric, doubly stochastic and admissible for any connected graph.
    """
    return _certified(_metropolis_weights(g), g, "metropolis_mixing")


def _metropolis_weights(g):
    """The Metropolis weight matrix of ``g``, not certified; degrees come from one pass."""
    w = np.zeros((g.n, g.n))
    i, j = g.edge_array.T
    deg = np.bincount(g.edge_array.ravel(), minlength=g.n)
    w[i, j] = w[j, i] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def _laplacian_weights(lap, alpha):
    """The weight matrix ``I - lap / alpha`` of a Laplacian, not certified; ``alpha > 0``."""
    if not alpha > 0:
        raise ValueError(f"alpha={alpha!r} must be positive")
    return np.eye(len(lap)) - lap / alpha
