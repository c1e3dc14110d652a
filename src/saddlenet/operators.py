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
and a forward map with a ``jacobian`` is ``jacobian @ z + offset``.  A
library coupling (bilinear, quadratic) carries data and no callables: its
gradients are the two blocks of its saddle map ``jacobian @ z + offset``,
and sums of couplings sum that data.  Only custom proxes, custom couplings
and maps without a Jacobian call their own callables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

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
    ``tau`` is one number.  A library kind runs as one row of :func:`batched_resolvent`,
    kept per point length; any other kind calls ``fn(tau, point)`` with a positive float.
    """

    def __init__(self, fn=None, kind="custom", params=None, dim=None):
        self._fn = fn
        self.kind = kind
        self.params = dict(params or {})
        self.dim = dim
        self._rows = {}

    def __call__(self, tau, point):
        point = np.asarray(point, dtype=float)
        if self.kind not in _LIBRARY_KINDS:
            if np.ndim(tau):
                raise ValueError(f"tau must be one number, got shape {np.shape(tau)}")
            if not tau > 0:  # NaN included
                raise ValueError("tau must be positive")
            if self.dim is not None and point.shape != (self.dim,):
                raise ValueError(f"{self.kind} prox expects shape ({self.dim},), got {point.shape}")
            return self._fn(float(tau), point)
        if point.ndim != 1:
            raise ValueError(f"{self.kind} prox expects a 1-D point, got shape {point.shape}")
        rows = self._rows.get(len(point))
        if rows is None:
            rows = self._rows[len(point)] = batched_resolvent([self], len(point))
        return rows(tau, point[None])[0]

    def __repr__(self):
        return f"Prox(kind={self.kind!r}, params={self.params!r})"


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
    """A convex-concave coupling ``phi(x, y)``, ``x`` of length ``p`` and ``y`` of length ``d``.

    ``d = 0`` is allowed for pure minimization.  A library coupling
    (``bilinear`` or ``quadratic``) carries data and no callables of its
    own: its blocks in ``params``, the constant Jacobian
    ``[[P, M], [-M', R]]`` of its saddle map in ``jacobian`` and the map at
    0, ``(a, b)``, in ``offset``.  Its ``grad_x`` and ``-grad_y`` are the
    two blocks of that map (:func:`saddle_forward`) and its ``value`` reads
    ``params``: one shared evaluation each, bound to the data whenever the
    coupling is made (``dataclasses.replace`` too).  A custom coupling
    brings ``grad_x(x, y)`` and ``grad_y(x, y)``, and optionally ``value``,
    which only finite-difference diagnostics use.
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

    def __post_init__(self):
        if self.kind != "custom":
            data = (self.jacobian, self.offset, self.p)
            object.__setattr__(self, "grad_x", partial(_saddle_block, *data, False))
            object.__setattr__(self, "grad_y", partial(_saddle_block, *data, True))
            object.__setattr__(self, "value", partial(_coupling_value, self.params))


def _saddle_block(jacobian, offset, p, tail, x, y):
    """``grad_x`` (the head) or ``grad_y`` (the tail, negated) of the saddle map at ``(x, y)``.

    The map is the expression :class:`ForwardOperator` evaluates, so the
    blocks are bitwise those of :func:`saddle_forward`.
    """
    out = jacobian @ np.concatenate([x, y]) + offset
    return -out[p:] if tail else out[:p]


def _coupling_value(params, x, y):
    """``phi(x, y)`` from a library coupling's blocks; ``P`` and ``R`` absent when bilinear."""
    value = float(x @ params["m"] @ y) + float(params["a"] @ x) - float(params["b"] @ y)
    if "p_matrix" in params:
        value += 0.5 * float(x @ params["p_matrix"] @ x) - 0.5 * float(y @ params["r_matrix"] @ y)
    return value


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


def bilinear_couplings(m, a, b):
    """One :func:`bilinear_coupling` per row of the stacks ``M (n, p, d)``, ``a (n, p)``, ``b (n, d)``."""
    return _library_couplings("bilinear", m, a, b)


def quadratic_couplings(p_matrix, m, r_matrix, a, b):
    """One :func:`quadratic_coupling` per row of the stacks ``P (n, p, p)``, ``M (n, p, d)``,
    ``R (n, d, d)``, ``a (n, p)`` and ``b (n, d)``.

    ``P`` and ``R`` are checked over the whole stack, one batched
    ``eigvalsh`` each.
    """
    p_matrix = np.asarray(p_matrix, dtype=float)
    r_matrix = np.asarray(r_matrix, dtype=float)
    for name, mat in (("P", p_matrix), ("R", r_matrix)):
        fault = _symmetric_psd_fault(mat)
        if fault == "positive semidefinite":
            raise ValueError(f"{name} must be positive semidefinite")
        if fault:
            raise ValueError(f"{name} must be square symmetric")
    return _library_couplings("quadratic", m, a, b, p_matrix, r_matrix)


def _library_couplings(kind, m, a, b, p_matrix=None, r_matrix=None):
    """The couplings of the stacks, their shapes checked; bilinear when ``p_matrix`` is None.

    The Jacobians ``[[P, M], [-M', R]]`` (zero ``P`` and ``R`` blocks when
    bilinear) fill one ``(n, p + d, p + d)`` array by slice assignment, and
    the Lipschitz constants come from one batched norm: ``||M||`` when
    bilinear, else ``||J||``.
    """
    m, a, b = (np.asarray(v, dtype=float) for v in (m, a, b))
    if m.ndim != 3 or a.shape != m.shape[:2] or b.shape != m.shape[:1] + m.shape[2:]:
        raise ValueError("inconsistent coupling dimensions")
    n, p, d = m.shape
    jac = np.zeros((n, p + d, p + d))
    jac[:, :p, p:] = m
    jac[:, p:, :p] = -np.swapaxes(m, 1, 2)
    if p_matrix is None:
        blocks = {"m": m, "a": a, "b": b}
        lip = operator_norms(m).tolist()
    else:
        if p_matrix.shape != (n, p, p) or r_matrix.shape != (n, d, d):
            raise ValueError("inconsistent coupling dimensions")
        jac[:, :p, :p] = p_matrix
        jac[:, p:, p:] = r_matrix
        blocks = {"p_matrix": p_matrix, "m": m, "r_matrix": r_matrix, "a": a, "b": b}
        lip = operator_norms(jac).tolist()
    offset = np.concatenate([a, b], axis=1)
    return [SmoothCoupling(p, d, None, None, lip[i], kind=kind,
                           params={key: stack[i] for key, stack in blocks.items()},
                           jacobian=jac[i], offset=offset[i])
            for i in range(n)]


def saddle_forward(coupling):
    """Monotone forward map ``z = (x, y) -> (grad_x phi, -grad_y phi)``.

    This is the operator the splitting methods evaluate on the product
    space.  A coupling with a ``jacobian`` and ``offset`` gives the affine
    map of that data, which the solvers evaluate batched and diagnostics
    can difference; a custom coupling is evaluated through its gradients.
    """
    if coupling.jacobian is not None and coupling.offset is not None:
        return ForwardOperator(None, coupling.lipschitz, coupling.jacobian, coupling.offset)
    p = coupling.p

    def fn(z):
        x, y = z[:p], z[p:]
        return np.concatenate([coupling.grad_x(x, y), -coupling.grad_y(x, y)])

    return ForwardOperator(fn, coupling.lipschitz)


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
    """Coupling whose value and gradients are the sum of the given ones.

    Both library kinds are affine in their blocks, so the sum's ``jacobian``
    and ``offset`` are the sums of the terms' and its blocks are read back
    from them.  The sum is bilinear when every term is (``L = ||M||``) and
    quadratic otherwise; a custom coupling has no summation rule.
    """
    for c in couplings:
        if c.kind not in ("bilinear", "quadratic"):
            raise ValueError(f"coupling kind {c.kind!r} has no summation rule")
    if len({(c.p, c.d) for c in couplings}) != 1:
        raise ValueError("couplings to combine must share one (p, d)")
    p = couplings[0].p
    jac = sum(c.jacobian for c in couplings)
    offset = sum(c.offset for c in couplings)
    if all(c.kind == "bilinear" for c in couplings):
        return bilinear_coupling(jac[:p, p:], offset[:p], offset[p:])
    return quadratic_coupling(jac[:p, :p], jac[:p, p:], jac[p:, p:], offset[:p], offset[p:])


# ---------------------------------------------------------------------------
# row-batched evaluation (one row per agent)
# ---------------------------------------------------------------------------

def _grouped(keys, build, identity=None):
    """Row function built per group of equal ``keys``.

    ``build(key, idx)`` returns ``part(rows)`` for the rows ``idx`` of one
    group; the groups' outputs are scattered back by row index.  Rows whose
    key is ``identity`` map to themselves: when there are other groups too,
    the output starts as a copy of the input and only those are scattered.
    """
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    if len(groups) == 1:
        key, idx = groups.popitem()
        return build(key, idx)
    keep = identity in groups
    parts = [(np.array(idx), build(key, idx)) for key, idx in groups.items() if key != identity]

    def rows(u):
        out = u.copy() if keep else np.empty_like(u)
        for idx, part in parts:
            out[idx] = part(u[idx])
        return out

    return rows


def _row_steps(tau, n, what="row"):
    """``tau`` as a frozen ``(n,)`` float array, one step per ``what``: a number is every entry."""
    steps = np.array(tau, dtype=float)  # a copy: the caller's array cannot change the steps
    if steps.shape not in ((), (n,)):
        raise ValueError(f"tau must be a number or have one entry per {what} ({n}), got shape {steps.shape}")
    return np.broadcast_to(steps, (n,))


def _column(step, dims=1):
    """A per-row step (a number broadcasts too) shaped to scale each row's ``dims`` trailing axes."""
    return np.reshape(step, (-1, *(1,) * dims))


def _per_row(members):
    """The members' own callables, called once per row."""
    return lambda u: np.stack([m(u[j]) for j, m in enumerate(members)])


def _quadratic_rows(proxes, t):
    """``(I + t_i Q_i)^{-1} (u_i - t_i q_i)`` for every row, one ``matmul`` per call.

    ``I + t Q_i`` has eigenvalues >= 1, so its explicit inverse is well
    conditioned; the inverse stack and ``t q`` are formed once, at the step ``t``.
    """
    q_matrix = np.stack([p.params["q_matrix"] for p in proxes])
    inverse = np.linalg.inv(np.eye(q_matrix.shape[1]) + _column(t, 2) * q_matrix)
    shift = _column(t) * np.stack([p.params["q_vec"] for p in proxes])
    return lambda u: np.matmul(inverse, (u - shift)[:, :, None])[:, :, 0]


# the kinds evaluated from ``kind``/``params`` by a row kernel
_LIBRARY_KINDS = ("zero", "zero_set_indicator", "l1", "box_indicator", "quadratic", "product")

# the kinds whose prox is a clip: l1 (``u - clip(u, -t w, t w)``), the box and the identity
_CLIP_KINDS = ("zero", "l1", "box_indicator")


def _is_clip(prox):
    """Whether ``prox`` is a clip kind or a product of them."""
    if prox.kind == "product":
        return _is_clip(prox.params["first"]) and _is_clip(prox.params["second"])
    return prox.kind in _CLIP_KINDS


def _check_dims(prox, h):
    """Raise unless ``prox`` and, in a product, each factor fits its share of a row of length ``h``."""
    if prox.dim is not None and prox.dim != h:
        raise ValueError(f"{prox.kind} prox expects shape ({prox.dim},), got ({h},)")
    if prox.kind == "product":
        split = prox.params["split"]
        if split > h:
            raise ValueError("point is shorter than the first block")
        _check_dims(prox.params["first"], split)
        _check_dims(prox.params["second"], h - split)


def _clip_columns(prox, h):
    """Per-column ``(lo, hi, weight, is_l1)`` of the clip-family ``prox`` on ``h`` columns (dims checked).

    A box column clips to ``[lo, hi]``, a zero column to ``[-inf, inf]``; an
    l1 column carries its weight.
    """
    if prox.kind == "product":
        split = prox.params["split"]
        first = _clip_columns(prox.params["first"], split)
        second = _clip_columns(prox.params["second"], h - split)
        return tuple(np.concatenate(pair) for pair in zip(first, second))
    lo, hi, weight = np.full(h, -np.inf), np.full(h, np.inf), np.zeros(h)
    if prox.kind == "box_indicator":
        lo, hi = np.broadcast_to(prox.params["lo"], (h,)), np.broadcast_to(prox.params["hi"], (h,))
    elif prox.kind == "l1":
        weight = np.full(h, prox.params["weight"])
    return lo, hi, weight, np.full(h, prox.kind == "l1")


def _clip_rows(proxes, h, t):
    """Rows of clip-family proxes: one clip of the whole row, then ``u - clip`` on the l1 columns.

    The l1 columns clip to ``[-t w, t w]`` (soft thresholding), the others to
    their box (infinite for zero).  Each distinct prox object's columns are
    derived once, and the ``(n, h)`` bounds are formed at the step ``t``.
    """
    columns = {}
    for prox in proxes:
        if id(prox) not in columns:
            columns[id(prox)] = _clip_columns(prox, h)
    box_lo, box_hi, weight, l1 = (np.stack(col) for col in zip(*(columns[id(p)] for p in proxes)))
    threshold = _column(t) * weight
    lo = np.where(l1, -threshold, box_lo)
    hi = np.where(l1, threshold, box_hi)
    # where= mask of the subtraction: all of the row, some columns or none
    where = True if l1.all() else (l1 if l1.any() else None)

    def rows(u):
        out = np.maximum(u, lo)
        np.minimum(out, hi, out=out)
        if where is not None:
            np.subtract(u, out, out=out, where=where)
        return out

    return rows


def _prox_rows(proxes, h, tau):
    """``rows(u)`` evaluating ``proxes[i](tau_i, u[i])`` on every row.

    ``tau`` is a float array with one positive entry per row; the kernels are
    built for it, so a run's step is fixed.  Each distinct prox's dims are
    checked first.
    """
    keys = []
    for prox in {id(p): p for p in proxes}.values():
        _check_dims(prox, h)
    for prox in proxes:
        if prox.kind != "zero" and _is_clip(prox):
            keys.append("clip")
        elif prox.kind == "product":
            keys.append(("product", prox.params["split"]))
        else:
            keys.append(prox.kind)
    return _grouped(keys, lambda key, idx: _library_rows(key, [proxes[i] for i in idx], h, tau[idx]),
                    identity="zero")


def _library_rows(key, proxes, h, t):
    """Batched form of one library kind from its ``params`` at the step ``t``; other kinds run per row."""
    if key == "zero":
        return lambda u: u.copy()
    if key == "zero_set_indicator":
        return np.zeros_like
    if key == "clip":
        return _clip_rows(proxes, h, t)
    if key == "quadratic":
        return _quadratic_rows(proxes, t)
    if isinstance(key, tuple):
        _, split = key
        first = _prox_rows([p.params["first"] for p in proxes], split, t)
        second = _prox_rows([p.params["second"] for p in proxes], h - split, t)
        return lambda u: np.concatenate([first(u[:, :split]), second(u[:, split:])], axis=1)
    return _per_row([partial(p, step) for p, step in zip(proxes, t.tolist())])


def batched_resolvent(proxes, h):
    """All agents' resolvents at once: ``fn(tau, u)`` has rows ``proxes[i](tau_i, u[i])``.

    ``tau`` is one step for every row or one per row.  Library kinds (zero,
    zero-set indicator, l1, box, quadratic and products of these) are
    evaluated from their ``kind``/``params`` on all their rows together --
    the same trust :func:`combine_proxes` places in those fields.  l1, box
    and products of zero, l1 and box share one clip kernel.  Agents of
    different kinds are grouped by row; any other kind keeps its own
    callable, called once per row.  Each prox's ``dim`` is checked against
    the row length ``h`` here, ``tau`` on every call.  The kernels are built
    on the first call and kept for the last ``tau`` seen (a run builds its
    own at its step instead).
    """
    for prox in {id(p): p for p in proxes}.values():
        _check_dims(prox, h)
    kept = [None, None]

    def fn(tau, u):
        steps = _row_steps(tau, len(proxes))
        if not (steps > 0).all():
            raise ValueError("tau must be positive")
        if not np.array_equal(steps, kept[0]):
            kept[:] = steps, _prox_rows(proxes, h, steps)
        return kept[1](u)

    return fn


def _affine_rows(forwards, h, scale=1.0):
    """``(scale J, scale F(0))`` of affine maps, stacked: ``(n, h, h)`` and ``(n, h)``.

    ``scale`` is one number for every map or one per map.  Every map must carry a
    ``jacobian`` and its ``offset`` ``F(0)``, as a :class:`ForwardOperator`
    does.  The offset stack is None when every offset is zero.
    """
    jac = [np.asarray(f.jacobian, dtype=float) for f in forwards]
    if any(j.shape != (h, h) for j in jac):
        raise ValueError(f"forward jacobians must be ({h}, {h})")
    offset = [np.asarray(f.offset, dtype=float) for f in forwards]
    if any(o.shape != (h,) for o in offset):
        raise ValueError(f"forward offsets must be ({h},)")
    jac, offset = np.stack(jac), np.stack(offset)
    jac *= _column(scale, 2)
    offset *= _column(scale)
    return jac, (offset if offset.any() else None)


def batched_forward(forwards, h, scale=1.0):
    """All agents' forward maps at once: ``fn(z)`` has rows ``scale_i * forwards[i](z[i])``.

    ``scale`` is one number for every row or one per row, turned into an
    ``(n,)`` array here.  A map with a ``jacobian`` is affine by that field's
    contract and is evaluated as ``(scale J_i) z_i + scale F_i(0)`` with one
    ``matmul`` over the stacked Jacobians and offsets (:func:`_affine_rows`);
    the add is skipped when every offset is zero.  Maps without one are
    called once per row.
    """
    scale = _row_steps(scale, len(forwards))

    def build(affine, idx):
        members, s = [forwards[i] for i in idx], scale[idx]
        if not affine:
            rows, s = _per_row(members), _column(s)
            return lambda z: s * rows(z)
        jac, offset = _affine_rows(members, h, s)
        if offset is None:
            return lambda z: np.matmul(jac, z[:, :, None])[:, :, 0]
        return lambda z: np.matmul(jac, z[:, :, None])[:, :, 0] + offset

    return _grouped([f.jacobian is not None for f in forwards], build)
