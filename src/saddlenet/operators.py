"""Proximal maps, smooth couplings and forward operators.

Everything here works on 1-D float arrays.  A :class:`Prox` is a callable
``prox(tau, point)`` evaluating the resolvent of ``tau`` times a maximally
monotone operator (for the library entries, the subdifferential of a proper
convex function).  A :class:`ForwardOperator` is a plain Lipschitz map with
a declared constant, evaluated explicitly by the solvers.

The decentralized solvers keep one row per agent in an ``n x h`` array;
:func:`batched_resolvent` and :func:`batched_forward` evaluate a whole list
of per-agent operators on such an array at once.

One point and a stack of rows are evaluated alike: a library prox (zero,
zero-set indicator, l1, box, quadratic and products of these) runs the row
kernel its ``kind`` and ``params`` select, a point as a stack of one row,
and a forward map with a ``jacobian`` is ``jacobian @ z + offset``.  Only
custom proxes and maps without a Jacobian call their own callables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ForwardOperator",
    "Prox",
    "SmoothCoupling",
    "affine_forward",
    "batched_forward",
    "batched_resolvent",
    "bilinear_coupling",
    "bilinear_couplings",
    "box_prox",
    "combine_couplings",
    "combine_proxes",
    "estimate_operator_norm",
    "l1_prox",
    "linear_forward",
    "make_prox",
    "operator_norms",
    "product_resolvent",
    "quadratic_coupling",
    "quadratic_couplings",
    "quadratic_prox",
    "quadratic_proxes",
    "saddle_forward",
    "zero_point_prox",
    "zero_prox",
]


class Prox:
    """Resolvent of a scaled maximally monotone operator.

    Calling ``prox(tau, point)`` returns the unique solution of the
    regularized inclusion; for a convex function ``g`` this is
    ``argmin_v g(v) + ||v - point||^2 / (2 tau)``.

    ``kind``/``params`` identify library members so that sums of identical
    families can be formed for centralized reference runs.  ``dim`` is the
    expected input length when the map is dimension-specific, else None.
    A library kind runs as one row of its batched kernel, built once per
    point length; any other kind calls ``fn(tau, point)``.
    """

    def __init__(self, fn=None, kind="custom", params=None, dim=None):
        self._fn = fn
        self.kind = kind
        self.params = dict(params or {})
        self.dim = dim
        self._rows = {}

    def __call__(self, tau, point):
        tau = _positive_step(tau)
        point = np.asarray(point, dtype=float)
        if self.kind not in _LIBRARY_KINDS:
            if self.dim is not None and point.shape != (self.dim,):
                raise ValueError(f"{self.kind} prox expects shape ({self.dim},), got {point.shape}")
            return self._fn(tau, point)
        if point.ndim != 1:
            raise ValueError(f"{self.kind} prox expects a 1-D point, got shape {point.shape}")
        h = len(point)
        if h not in self._rows:
            self._rows[h] = _prox_rows([self], h)
        return self._rows[h](point[None], tau)[0]

    def __repr__(self):
        return f"Prox(kind={self.kind!r}, params={self.params!r})"


def _positive_step(tau):
    """``tau`` as a float; raises unless it is positive (NaN included)."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    return float(tau)


def zero_prox():
    """Prox of the zero function: the identity."""
    return Prox(kind="zero")


def l1_prox(weight):
    """Soft thresholding, the prox of ``weight * ||.||_1``: ``v - clip(v, -t w, t w)``.

    This is ``sign(v) max(|v| - t w, 0)`` with one clip; the dead zone is
    ``+0.0``.
    """
    weight = float(weight)
    if weight < 0:
        raise ValueError("l1 weight must be nonnegative")
    return Prox(kind="l1", params={"weight": weight})


def box_prox(lo, hi):
    """Projection onto the box ``[lo, hi]`` (the step size is irrelevant)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise ValueError("box bounds must satisfy lo <= hi")
    dim = None
    if lo.ndim > 0 or hi.ndim > 0:
        dim = int(np.broadcast(lo, hi).shape[0])
    return Prox(kind="box_indicator", params={"lo": lo, "hi": hi}, dim=dim)


def quadratic_prox(q_matrix, q_vec=None):
    """Prox of ``v -> v' Q v / 2 + q' v`` for symmetric PSD ``Q``: a stack of one.

    Evaluates ``(I + tau Q)^{-1} (point - tau q)``, the inverse kept per ``tau``.
    """
    q_matrix = np.asarray(q_matrix, dtype=float)
    q_vec = np.zeros(q_matrix.shape[:1]) if q_vec is None else np.asarray(q_vec, dtype=float)
    return quadratic_proxes(q_matrix[None], q_vec[None])[0]


def quadratic_proxes(q_matrix, q_vec):
    """One :func:`quadratic_prox` per row of the stacks ``Q (n, h, h)`` and ``q (n, h)``.

    All ``Q`` are checked at once, with one batched ``eigvalsh``.
    """
    q_matrix = np.asarray(q_matrix, dtype=float)
    fault = _symmetric_psd_fault(q_matrix)
    if fault:
        raise ValueError(f"Q must be {fault}")
    n, h = q_matrix.shape[:2]
    q_vec = np.asarray(q_vec, dtype=float)
    if q_vec.shape != (n, h):
        raise ValueError("q has the wrong length")
    return [Prox(kind="quadratic", params={"q_matrix": q_matrix[i], "q_vec": q_vec[i]}, dim=h)
            for i in range(n)]


def _symmetric_psd_fault(stack):
    """What the ``(n, k, k)`` stack lacks first: ``"square"``, ``"symmetric"`` or
    ``"positive semidefinite"``; None when every matrix is symmetric PSD.

    Symmetry is held to 1e-12 and the smallest eigenvalue to -1e-10, over the
    whole stack at once.
    """
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        return "square"
    if np.abs(stack - np.swapaxes(stack, 1, 2)).max(initial=0.0) > 1e-12:
        return "symmetric"
    if stack.shape[1] and np.linalg.eigvalsh(stack)[:, 0].min(initial=np.inf) < -1e-10:
        return "positive semidefinite"
    return None


def zero_point_prox():
    """Prox of the indicator of the origin: the zero map."""
    return Prox(kind="zero_set_indicator")


_PROX_FACTORIES = {
    "zero": lambda **kw: zero_prox(),
    "l1": lambda weight=1.0, **kw: l1_prox(weight),
    "box_indicator": lambda lo=-1.0, hi=1.0, **kw: box_prox(lo, hi),
    "quadratic": lambda q_matrix=None, q_vec=None, **kw: quadratic_prox(q_matrix, q_vec),
    "zero_set_indicator": lambda **kw: zero_point_prox(),
}


def make_prox(kind, **params):
    """Build a library prox by kind name (see ``_PROX_FACTORIES`` keys)."""
    try:
        factory = _PROX_FACTORIES[kind]
    except KeyError:
        raise ValueError(f"unknown prox kind {kind!r}") from None
    return factory(**params)


def product_resolvent(first, second, split=None):
    """Blockwise prox on a product space: ``first`` on ``z[:split]``, ``second`` after.

    When both factors carry a ``dim`` the split is inferred; otherwise it
    must be given, and must equal the first factor's ``dim`` if it has one.
    Other lengths are checked when the kernel for one is built.
    """
    if split is None:
        if first.dim is None or second.dim is None:
            raise ValueError("split must be given when the factors have no declared dim")
        split = first.dim
    if first.dim is not None and first.dim != split:
        raise ValueError("split disagrees with the first factor's dim")
    total = None if None in (first.dim, second.dim) else first.dim + second.dim
    return Prox(kind="product", params={"first": first, "second": second, "split": split},
                dim=total)


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------

def estimate_operator_norm(m):
    """Largest singular value of ``m`` (exact, from an SVD); 0 for a zero matrix.

    Large couplings such as the product-space ``K`` carry their norm in
    closed form instead, since an SVD costs cubic time in their size.
    """
    return float(operator_norms(np.atleast_2d(np.asarray(m, dtype=float))[None])[0])


def operator_norms(stack):
    """:func:`estimate_operator_norm` of every matrix of an ``(n, r, c)`` stack.

    The instance builders take all their agents' norms in this one batched
    SVD.  An all-zero or empty matrix gets 0.
    """
    stack = np.asarray(stack, dtype=float)
    if not (stack.shape[1] and stack.shape[2]):
        return np.zeros(len(stack))
    return np.where(np.any(stack, axis=(1, 2)), np.linalg.norm(stack, 2, axis=(1, 2)), 0.0)


# ---------------------------------------------------------------------------
# forward operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ForwardOperator:
    """A Lipschitz map evaluated explicitly by the splitting methods.

    ``lipschitz`` is a declared upper bound (any valid bound is fine, it
    only enters step-size rules).  ``jacobian`` is the constant Jacobian
    matrix when the map is affine: setting it promises
    ``F(z) = jacobian @ z + F(0)``, and the map is evaluated through it,
    here and in :func:`batched_forward`, instead of calling ``fn`` (which
    may then be None).  Leave it None for genuinely nonlinear maps.
    ``offset`` is ``F(0)`` of an affine map; when it is None, ``fn`` is
    called once at 0 to set it.
    """

    fn: callable
    lipschitz: float
    jacobian: np.ndarray | None = None
    offset: np.ndarray | None = None

    def __post_init__(self):
        if self.jacobian is not None and self.offset is None:
            object.__setattr__(self, "offset", self.fn(np.zeros(len(self.jacobian))))

    def __call__(self, z):
        if self.jacobian is None:
            return self.fn(np.asarray(z, dtype=float))
        return self.jacobian @ z + self.offset


def linear_forward(matrix, lipschitz=None):
    return affine_forward(matrix, 0.0, lipschitz)


def affine_forward(matrix, offset, lipschitz=None):
    matrix = np.asarray(matrix, dtype=float)
    offset = np.asarray(offset, dtype=float)
    if lipschitz is None:
        lipschitz = estimate_operator_norm(matrix)
    return ForwardOperator(None, float(lipschitz), matrix, np.zeros(len(matrix)) + offset)


# ---------------------------------------------------------------------------
# smooth couplings
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SmoothCoupling:
    """A convex-concave coupling ``phi(x, y)`` with Lipschitz gradients.

    ``grad_x``/``grad_y`` take (x, y) with ``x`` of length ``p`` and ``y``
    of length ``d`` (``d = 0`` is allowed for pure minimization).  ``value``
    is optional and used only by finite-difference diagnostics.  The affine
    families carry the constant Jacobian of their saddle map in
    ``jacobian`` and its value at 0, ``(a, b)``, in ``offset`` (see
    :func:`saddle_forward`); both are None for custom couplings.
    """

    p: int
    d: int
    grad_x: callable
    grad_y: callable
    lipschitz: float
    value: callable | None = None
    kind: str = "custom"
    params: dict = field(default_factory=dict)
    jacobian: np.ndarray | None = None
    offset: np.ndarray | None = None


def bilinear_coupling(m=None, a=None, b=None, p=None, d=None):
    """``phi(x, y) = x' M y + a' x - b' y`` with ``L = ||M||``: a stack of one.

    Any of ``m``, ``a``, ``b`` may be omitted (zero); dimensions are taken
    from whatever is present, or from explicit ``p``/``d``.
    """
    if m is not None:
        m = np.atleast_2d(np.asarray(m, dtype=float))
        p = m.shape[0] if p is None else p
        d = m.shape[1] if d is None else d
    if a is not None:
        a = np.asarray(a, dtype=float)
        p = a.shape[0] if p is None else p
    if b is not None:
        b = np.asarray(b, dtype=float)
        d = b.shape[0] if d is None else d
    if p is None or d is None:
        raise ValueError("dimensions cannot be inferred; pass p and d")
    m = np.zeros((p, d)) if m is None else m
    a = np.zeros(p) if a is None else a
    b = np.zeros(d) if b is None else b
    if m.shape != (p, d):
        raise ValueError("inconsistent coupling dimensions")
    return bilinear_couplings(m[None], a[None], b[None])[0]


def quadratic_coupling(p_matrix, m, r_matrix, a=None, b=None):
    """``phi = x' P x / 2 + x' M y - y' R y / 2 + a' x - b' y`` with PSD ``P, R``: a stack of one.

    ``M`` is ``p x d`` and may be None (zero), as may ``a`` and ``b``.
    """
    p_matrix = np.atleast_2d(np.asarray(p_matrix, dtype=float))
    r_matrix = np.atleast_2d(np.asarray(r_matrix, dtype=float))
    p, d = p_matrix.shape[0], r_matrix.shape[0]
    m = np.zeros((p, d)) if m is None else np.atleast_2d(np.asarray(m, dtype=float))
    a = np.zeros(p) if a is None else np.asarray(a, dtype=float)
    b = np.zeros(d) if b is None else np.asarray(b, dtype=float)
    return quadratic_couplings(p_matrix[None], m[None], r_matrix[None], a[None], b[None])[0]


def _coupling_stacks(m, a, b):
    """``M (n, p, d)``, ``a (n, p)``, ``b (n, d)`` as float arrays, their shapes checked."""
    m, a, b = (np.asarray(v, dtype=float) for v in (m, a, b))
    if m.ndim != 3 or a.shape != m.shape[:2] or b.shape != m.shape[:1] + m.shape[2:]:
        raise ValueError("inconsistent coupling dimensions")
    return m, a, b


def _saddle_jacobians(m, p_matrix=None, r_matrix=None):
    """The stack ``[[P, M], [-M', R]]`` (zero blocks where ``P``/``R`` are None), by slices."""
    n, p, d = m.shape
    jac = np.zeros((n, p + d, p + d))
    jac[:, :p, p:] = m
    jac[:, p:, :p] = -np.swapaxes(m, 1, 2)
    if p_matrix is not None:
        jac[:, :p, :p] = p_matrix
        jac[:, p:, p:] = r_matrix
    return jac


def bilinear_couplings(m, a, b):
    """One :func:`bilinear_coupling` per row of the stacks ``M (n, p, d)``, ``a (n, p)``, ``b (n, d)``.

    The norms come from one batched SVD of the ``M`` stack and the Jacobians
    from one ``(n, p + d, p + d)`` array.
    """
    m, a, b = _coupling_stacks(m, a, b)
    n, p, d = m.shape
    jac = _saddle_jacobians(m)
    offset = np.concatenate([a, b], axis=1)
    lip = operator_norms(m).tolist()

    def one(i):
        mi, ai, bi = m[i], a[i], b[i]
        return SmoothCoupling(
            p=p,
            d=d,
            grad_x=lambda x, y: mi @ y + ai,
            grad_y=lambda x, y: mi.T @ x - bi,
            lipschitz=lip[i],
            value=lambda x, y: float(x @ mi @ y) + float(ai @ x) - float(bi @ y),
            kind="bilinear",
            params={"m": mi, "a": ai, "b": bi},
            jacobian=jac[i],
            offset=offset[i],
        )

    return [one(i) for i in range(n)]


def quadratic_couplings(p_matrix, m, r_matrix, a, b):
    """One :func:`quadratic_coupling` per row of the stacks ``P (n, p, p)``, ``M (n, p, d)``,
    ``R (n, d, d)``, ``a (n, p)`` and ``b (n, d)``.

    ``P`` and ``R`` are checked over the whole stack (one batched ``eigvalsh``
    each); ``L`` is the norm of the Jacobian ``[[P, M], [-M', R]]``, all
    taken in one batched SVD.
    """
    p_matrix = np.asarray(p_matrix, dtype=float)
    r_matrix = np.asarray(r_matrix, dtype=float)
    for name, mat in (("P", p_matrix), ("R", r_matrix)):
        fault = _symmetric_psd_fault(mat)
        if fault == "positive semidefinite":
            raise ValueError(f"{name} must be positive semidefinite")
        if fault:
            raise ValueError(f"{name} must be square symmetric")
    m, a, b = _coupling_stacks(m, a, b)
    n, p, d = m.shape
    if p_matrix.shape != (n, p, p) or r_matrix.shape != (n, d, d):
        raise ValueError("inconsistent coupling dimensions")
    jac = _saddle_jacobians(m, p_matrix, r_matrix)
    offset = np.concatenate([a, b], axis=1)
    lip = operator_norms(jac).tolist()

    def one(i):
        pm, mi, rm, ai, bi = p_matrix[i], m[i], r_matrix[i], a[i], b[i]

        def value(x, y):
            return (0.5 * float(x @ pm @ x) + float(x @ mi @ y)
                    - 0.5 * float(y @ rm @ y) + float(ai @ x) - float(bi @ y))

        return SmoothCoupling(
            p=p,
            d=d,
            grad_x=lambda x, y: pm @ x + mi @ y + ai,
            grad_y=lambda x, y: mi.T @ x - rm @ y - bi,
            lipschitz=lip[i],
            value=value,
            kind="quadratic",
            params={"p_matrix": pm, "m": mi, "r_matrix": rm, "a": ai, "b": bi},
            jacobian=jac[i],
            offset=offset[i],
        )

    return [one(i) for i in range(n)]


def saddle_forward(coupling):
    """Monotone forward map ``z = (x, y) -> (grad_x phi, -grad_y phi)``.

    This is the operator the splitting methods evaluate on the product
    space; it carries the coupling's constant Jacobian and offset when it
    has them, and then evaluates through them, so the solvers evaluate it
    batched and diagnostics can batch differences.  A coupling that lacks
    either is evaluated through its gradients.
    """
    if coupling.jacobian is not None and coupling.offset is not None:
        return ForwardOperator(None, coupling.lipschitz, coupling.jacobian, coupling.offset)
    p = coupling.p

    def fn(z):
        x, y = z[:p], z[p:]
        return np.concatenate([coupling.grad_x(x, y), -coupling.grad_y(x, y)])

    return ForwardOperator(fn, coupling.lipschitz, coupling.jacobian, coupling.offset)


# ---------------------------------------------------------------------------
# sums across agents (centralized reference problems)
# ---------------------------------------------------------------------------

def combine_proxes(proxes):
    """Prox of the sum of the underlying functions, for matching library kinds.

    Sums are exact for: zero, l1 (weights add), identical boxes, quadratics
    (Q and q add) and identical zero-set indicators.  Anything else raises,
    because the prox of a sum is not composable in general.
    """
    kinds = {p.kind for p in proxes}
    if len(kinds) != 1:
        raise ValueError(f"cannot combine mixed prox kinds {sorted(kinds)}")
    kind = kinds.pop()
    if kind in ("zero", "zero_set_indicator"):
        return Prox(kind=kind)
    if kind == "l1":
        return l1_prox(sum(p.params["weight"] for p in proxes))
    if kind == "box_indicator":
        first = proxes[0].params
        for p in proxes[1:]:
            if (np.any(np.asarray(p.params["lo"]) != np.asarray(first["lo"]))
                    or np.any(np.asarray(p.params["hi"]) != np.asarray(first["hi"]))):
                raise ValueError("box indicators must share identical bounds to be summed")
        return box_prox(first["lo"], first["hi"])
    if kind == "quadratic":
        q = sum(p.params["q_matrix"] for p in proxes)
        qv = sum(p.params["q_vec"] for p in proxes)
        return quadratic_prox(q, qv)
    raise ValueError(f"prox kind {kind!r} has no summation rule")


def combine_couplings(couplings):
    """Coupling whose value and gradients are the sum of the given ones."""
    kinds = {c.kind for c in couplings}
    if len(kinds) != 1:
        raise ValueError(f"cannot combine mixed coupling kinds {sorted(kinds)}")
    kind = kinds.pop()
    if kind == "bilinear":
        return bilinear_coupling(
            m=sum(c.params["m"] for c in couplings),
            a=sum(c.params["a"] for c in couplings),
            b=sum(c.params["b"] for c in couplings),
        )
    if kind == "quadratic":
        return quadratic_coupling(
            sum(c.params["p_matrix"] for c in couplings),
            sum(c.params["m"] for c in couplings),
            sum(c.params["r_matrix"] for c in couplings),
            a=sum(c.params["a"] for c in couplings),
            b=sum(c.params["b"] for c in couplings),
        )
    raise ValueError(f"coupling kind {kind!r} has no summation rule")


# ---------------------------------------------------------------------------
# row-batched evaluation (one row per agent)
# ---------------------------------------------------------------------------

def _grouped(items, keys, build, identity=None):
    """Row function over ``items`` built per group of equal ``keys``.

    ``build(key, members)`` returns ``part(rows, *args)`` for the rows of one
    group; the groups' outputs are scattered back by row index.  Rows whose
    key is ``identity`` map to themselves: when there are other groups too,
    the output starts as a copy of the input and only those are scattered.
    """
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    if len(groups) == 1:
        key, idx = groups.popitem()
        return build(key, [items[i] for i in idx])
    keep = identity in groups
    parts = [(np.array(idx), build(key, [items[i] for i in idx]))
             for key, idx in groups.items() if key != identity]

    def rows(u, *args):
        out = u.copy() if keep else np.empty_like(u)
        for idx, part in parts:
            out[idx] = part(u[idx], *args)
        return out

    return rows


def _per_row(members):
    """The members' own callables, called once per row."""
    return lambda u, *args: np.stack([m(*args, u[j]) for j, m in enumerate(members)])


class _QuadraticRows:
    """``(I + t Q_i)^{-1} (u_i - t q_i)`` for every row, one ``matmul`` per call.

    ``I + t Q_i`` has eigenvalues >= 1, so its explicit inverse is well
    conditioned; the inverse stack is kept for the last ``t`` seen.
    """

    def __init__(self, proxes):
        self.q_matrix = np.stack([p.params["q_matrix"] for p in proxes])
        self.q_vec = np.stack([p.params["q_vec"] for p in proxes])
        self.tau = None

    def __call__(self, u, t):
        if t != self.tau:
            self.inverse = np.linalg.inv(np.eye(self.q_matrix.shape[1]) + t * self.q_matrix)
            self.tau = t
        return np.matmul(self.inverse, (u - t * self.q_vec)[:, :, None])[:, :, 0]


# the kinds evaluated from ``kind``/``params`` by a row kernel
_LIBRARY_KINDS = ("zero", "zero_set_indicator", "l1", "box_indicator", "quadratic", "product")

# the kinds whose prox is a clip: l1 (``u - clip(u, -t w, t w)``), the box and the identity
_CLIP_KINDS = ("zero", "l1", "box_indicator")


def _is_clip(prox):
    """Whether ``prox`` is a clip kind or a product of them."""
    if prox.kind == "product":
        return _is_clip(prox.params["first"]) and _is_clip(prox.params["second"])
    return prox.kind in _CLIP_KINDS


def _clip_columns(prox, h):
    """Per-column ``(lo, hi, weight, is_l1)`` of the clip-family ``prox`` on ``h`` columns.

    A box column clips to ``[lo, hi]``, a zero column to ``[-inf, inf]``; an
    l1 column carries its weight.  The dims are checked as on a whole row.
    """
    if prox.dim is not None and prox.dim != h:
        raise ValueError(f"{prox.kind} prox expects shape ({prox.dim},), got ({h},)")
    if prox.kind == "product":
        split = prox.params["split"]
        if split > h:
            raise ValueError("point is shorter than the first block")
        first = _clip_columns(prox.params["first"], split)
        second = _clip_columns(prox.params["second"], h - split)
        return tuple(np.concatenate(pair) for pair in zip(first, second))
    lo, hi, weight = np.full(h, -np.inf), np.full(h, np.inf), np.zeros(h)
    if prox.kind == "box_indicator":
        lo, hi = np.broadcast_to(prox.params["lo"], (h,)), np.broadcast_to(prox.params["hi"], (h,))
    elif prox.kind == "l1":
        weight = np.full(h, prox.params["weight"])
    return lo, hi, weight, np.full(h, prox.kind == "l1")


class _ClipRows:
    """Rows of clip-family proxes: one clip of the whole row, then ``u - clip`` on the l1 columns.

    The l1 columns clip to ``[-t w, t w]`` (soft thresholding), the others to
    their box (infinite for zero).  Each distinct prox object's columns are
    derived once; the ``(n, h)`` bounds are kept for the last ``t`` seen.
    """

    def __init__(self, proxes, h):
        columns = {}
        for prox in proxes:
            if id(prox) not in columns:
                columns[id(prox)] = _clip_columns(prox, h)
        self.box_lo, self.box_hi, self.weight, l1 = (
            np.stack(col) for col in zip(*(columns[id(p)] for p in proxes)))
        self.l1 = l1
        # where= mask of the subtraction: all of the row, some columns or none
        self.where = True if l1.all() else (l1 if l1.any() else None)
        self.tau = None

    def __call__(self, u, t):
        if t != self.tau:
            threshold = t * self.weight
            self.lo = np.where(self.l1, -threshold, self.box_lo)
            self.hi = np.where(self.l1, threshold, self.box_hi)
            self.tau = t
        out = np.maximum(u, self.lo)
        np.minimum(out, self.hi, out=out)
        if self.where is not None:
            np.subtract(u, out, out=out, where=self.where)
        return out


def _prox_rows(proxes, h):
    """``part(u, t)`` evaluating ``proxes[i](t, u[i])`` on every row."""
    keys = []
    for prox in proxes:
        if prox.dim is not None and prox.dim != h:
            raise ValueError(f"{prox.kind} prox expects shape ({prox.dim},), got ({h},)")
        if prox.kind != "zero" and _is_clip(prox):
            keys.append("clip")
        elif prox.kind == "product":
            if prox.params["split"] > h:
                raise ValueError("point is shorter than the first block")
            keys.append(("product", prox.params["split"]))
        else:
            keys.append(prox.kind)
    return _grouped(proxes, keys, lambda key, members: _library_rows(key, members, h),
                    identity="zero")


def _library_rows(key, proxes, h):
    """Batched form of one library kind from its ``params``; other kinds run per row."""
    if key == "zero":
        return lambda u, t: u.copy()
    if key == "zero_set_indicator":
        return lambda u, t: np.zeros_like(u)
    if key == "clip":
        return _ClipRows(proxes, h)
    if key == "quadratic":
        return _QuadraticRows(proxes)
    if isinstance(key, tuple):
        _, split = key
        first = _prox_rows([p.params["first"] for p in proxes], split)
        second = _prox_rows([p.params["second"] for p in proxes], h - split)
        return lambda u, t: np.concatenate([first(u[:, :split], t), second(u[:, split:], t)], axis=1)
    return _per_row(proxes)


def batched_resolvent(proxes, h):
    """All agents' resolvents at once: ``fn(tau, u)`` has rows ``proxes[i](tau, u[i])``.

    Library kinds (zero, zero-set indicator, l1, box, quadratic and products
    of these) are evaluated from their ``kind``/``params`` on all their rows
    together -- the same trust :func:`combine_proxes` places in those fields.
    l1, box and products of zero, l1 and box share one clip kernel.
    Agents of different kinds are grouped by row; any other kind keeps its
    own callable, called once per row.  Each prox's ``dim`` is checked
    against the row length ``h`` here, ``tau`` on every call.
    """
    rows = _prox_rows(proxes, h)
    return lambda tau, u: rows(u, _positive_step(tau))


def _affine_rows(forwards, h, scale=1.0):
    """``(scale J, scale F(0))`` of affine maps, stacked: ``(n, h, h)`` and ``(n, h)``.

    Every map must carry a ``jacobian`` and its ``offset`` ``F(0)``, as a
    :class:`ForwardOperator` does.  The offset stack is None when every
    offset is zero.
    """
    jac = [np.asarray(f.jacobian, dtype=float) for f in forwards]
    if any(j.shape != (h, h) for j in jac):
        raise ValueError(f"forward jacobians must be ({h}, {h})")
    offset = [np.asarray(f.offset, dtype=float) for f in forwards]
    if any(o.shape != (h,) for o in offset):
        raise ValueError(f"forward offsets must be ({h},)")
    jac, offset = np.stack(jac), np.stack(offset)
    if scale != 1.0:
        jac *= scale
        offset *= scale
    return jac, (offset if offset.any() else None)


def batched_forward(forwards, h, scale=1.0):
    """All agents' forward maps at once: ``fn(z)`` has rows ``scale * forwards[i](z[i])``.

    A map with a ``jacobian`` is affine by that field's contract and is
    evaluated as ``(scale J_i) z_i + scale F_i(0)`` with one ``matmul`` over
    the stacked Jacobians and offsets (:func:`_affine_rows`); the add is
    skipped when every offset is zero.  Maps without one are called once
    per row.
    """

    def build(affine, members):
        if not affine:
            rows = _per_row(members)
            return rows if scale == 1.0 else lambda z: scale * rows(z)
        jac, offset = _affine_rows(members, h, scale)
        if offset is None:
            return lambda z: np.matmul(jac, z[:, :, None])[:, :, 0]
        return lambda z: np.matmul(jac, z[:, :, None])[:, :, 0] + offset

    return _grouped(forwards, [f.jacobian is not None for f in forwards], build)
