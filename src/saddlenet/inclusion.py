"""Decentralized solver for sums of monotone operators over a network.

``n`` agents each hold a resolvent ``J_{tau A_i}`` and a monotone Lipschitz
map ``B_i``; the network seeks a consensus ``x*`` with
``0 in sum_i (A_i + B_i)(x*)``.  The iteration keeps per-agent rows stacked
in an ``n x h`` array and needs one neighbor exchange and one ``B_i``
evaluation per round:

    v^k     = 2 B(x^k) - B(x^{k-1})                     (rows)
    u^{k+1} = W x^k + u^k - (x^{k-1} + W x^{k-1}) / 2 - tau (v^k - v^{k-1})
    x^{k+1} = J_{tau A}(u^{k+1})                         (rows)

with ``v^0 = B(x^0)`` and ``u^1 = x^0 - tau v^0`` (or ``W x^0 - tau v^0``
when initial mixing is requested).  Admissible steps satisfy
``0 < tau < (1 + lambda_min(W)) / (4 L)`` with ``L = max_i L_i``.

The same recursion with the plain gradient ``v^k = B(x^k)`` for a smooth
``B_i = grad h_i`` is the PG-EXTRA baseline, ``0 < tau < (1 + lambda_min(W)) / L``;
one implementation below runs both, and the reflection is all that differs.
:func:`product_space_reference` runs the underlying primal-dual iteration
(``pdtr`` with the explicit square-root coupling matrix); it exists to check
that the communication-friendly recursion above is the same method.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .graphs import mixing_blocks
from .operators import ForwardOperator, Prox, batched_forward, batched_resolvent, zero_prox
from .primal_dual import PdtrState, PrimalDualProblem, StepSizeError, StepSizes, pdtr_step
from .trace import run_loop

__all__ = [
    "AgentInclusion",
    "StackedIterate",
    "consensus_gap",
    "inclusion_init",
    "inclusion_run",
    "inclusion_step",
    "pg_extra_init",
    "pg_extra_run",
    "pg_extra_step",
    "product_space_reference",
    "stepsize_bound",
    "uniform_lipschitz",
]


@dataclass(frozen=True, eq=False)
class AgentInclusion:
    """One agent's share of the inclusion: a resolvent and a forward map."""

    resolvent: object
    forward: object

    @property
    def lipschitz(self):
        return self.forward.lipschitz


def uniform_lipschitz(agents):
    """The network-wide constant is the worst agent's declared bound."""
    return max(a.lipschitz for a in agents)


def stepsize_bound(mixing, lipschitz):
    """Admissible step-size supremum ``(1 + lambda_min(W)) / (4 L)``.

    The bound is open: ``tau`` must be strictly below it.  A nonpositive
    ``L`` is rejected; declare any valid upper bound (for example 1) for
    forward maps with vanishing curvature.
    """
    if lipschitz <= 0:
        raise ValueError("lipschitz must be positive; declare an upper bound")
    return (1.0 + mixing.lambda_min) / (4.0 * lipschitz)


@dataclass(eq=False, slots=True)
class StackedIterate:
    """Stacked per-agent state of the decentralized iteration.

    ``v`` and ``prev_v`` are the forward rows of the difference term for the
    current and previous round (reflected, or plain for PG-EXTRA); ``bx``
    caches ``B(x)`` at the current ``x`` so each step costs a single fresh
    forward evaluation per agent.  ``wx_prev`` caches ``W prev_x`` (the
    previous round's exchange) so each step mixes once; when it is None the
    step computes it.  ``kernels`` holds the agents' row-batched operators,
    built once per run.

    Round 0 holds only ``x = x0``, the ``u`` the bootstrap steps from
    (``x0``, or ``W x0`` when premixing, which is then also ``wx_prev``) and
    the kernels; the next step is the bootstrap.  Steps build a new iterate
    and never write to the one they step from.
    """

    u: np.ndarray
    x: np.ndarray
    prev_x: np.ndarray | None = None
    v: np.ndarray | None = None
    prev_v: np.ndarray | None = None
    bx: np.ndarray | None = None
    wx_prev: np.ndarray | None = None
    kernels: object = field(default=None, repr=False)


@dataclass(frozen=True, eq=False)
class _AgentKernels:
    """Row-batched resolvent and forward of the agent list ``source``."""

    source: list
    resolvent: object
    forward: object

    @classmethod
    def build(cls, agents, h):
        return cls(agents, batched_resolvent([a.resolvent for a in agents], h),
                   batched_forward([a.forward for a in agents], h))


def _pg_extra_bound(mixing, lipschitz):
    return (1.0 + mixing.lambda_min) / lipschitz if lipschitz > 0 else float("inf")


def _check_setup(agents, mixing, x0, tau, reflect):
    """``x0`` as float rows after the shape checks and the step gate.

    ``reflect`` selects the method, and with it the gate: ``(1 + lambda_min) /
    (4 L)`` for the reflected recursion, ``(1 + lambda_min) / L`` for PG-EXTRA.
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(agents)
    if mixing.n != n:
        raise ValueError(f"mixing operates on {mixing.n} agents, got {n}")
    if x0.ndim != 2 or x0.shape[0] != n:
        raise ValueError(f"x0 must be (n, h) with n={n}, got {x0.shape}")
    lip = uniform_lipschitz(agents)
    bound = stepsize_bound(mixing, lip) if reflect else _pg_extra_bound(mixing, lip)
    if not 0.0 < tau < bound:
        raise StepSizeError(f"step size exceeds its bound: tau={tau!r} not in (0, {bound!r})")
    return x0


def _bootstrap(ops, start, tau, reflect):
    """Round 1 from the round-0 iterate ``start`` (see :class:`StackedIterate`).

    ``ops`` supplies ``resolvent`` and ``forward``: the batched kernels on
    stacked rows, or one agent's own operators on its row.
    """
    x0 = start.x
    v0 = ops.forward(x0)
    u1 = start.u - tau * v0
    x1 = ops.resolvent(tau, u1)
    bx1 = ops.forward(x1)
    v1 = 2.0 * bx1 - v0 if reflect else bx1
    return StackedIterate(u=u1, x=x1, prev_x=x0, v=v1, prev_v=v0, bx=bx1,
                          wx_prev=start.wx_prev, kernels=ops)


def _advance(ops, wx, state, tau, reflect):
    """One round of the recursion given this round's exchange ``wx = W x``.

    ``state.wx_prev`` must be set; ``ops`` is as in :func:`_bootstrap`.
    """
    # u_new = ((wx + u) - 0.5 (prev_x + wx_prev)) - tau (v - prev_v), in two temporaries
    u_new = wx + state.u
    tmp = state.prev_x + state.wx_prev
    tmp *= 0.5
    u_new -= tmp
    np.subtract(state.v, state.prev_v, out=tmp)
    tmp *= tau
    u_new -= tmp
    x_new = ops.resolvent(tau, u_new)
    bx_new = ops.forward(x_new)
    if reflect:
        v_new = 2.0 * bx_new
        v_new -= state.bx
    else:
        v_new = bx_new
    return StackedIterate(u=u_new, x=x_new, prev_x=state.x, v=v_new, prev_v=state.v,
                          bx=bx_new, wx_prev=wx, kernels=ops)


def _start(agents, mixing, x0, tau, premix, reflect):
    """The round-0 iterate after :func:`_check_setup`; builds the agents' kernels."""
    x0 = _check_setup(agents, mixing, x0, tau, reflect)
    wx0 = mixing.apply(x0) if premix else None
    return StackedIterate(u=x0 if wx0 is None else wx0, x=x0, wx_prev=wx0,
                          kernels=_AgentKernels.build(agents, x0.shape[1]))


def _step(agents, mixing, state, tau, reflect):
    """Dense round: the bootstrap from round 0, else one exchange and :func:`_advance`."""
    kernels = state.kernels
    if kernels is None or kernels.source is not agents:
        kernels = _AgentKernels.build(agents, state.x.shape[1])
    if state.prev_x is None:
        return _bootstrap(kernels, state, tau, reflect)
    wx = mixing.apply(state.x)
    if state.wx_prev is None:
        state = replace(state, wx_prev=mixing.apply(state.prev_x))
    return _advance(kernels, wx, state, tau, reflect)


def inclusion_init(agents, mixing, x0, tau, premix=False):
    """Bootstrap the iteration from ``x0`` (one row per agent).

    With ``premix=False`` no communication is needed before the first
    exchange: ``u^1 = x^0 - tau B(x^0)``.  With ``premix=True`` the first
    point is averaged once, ``u^1 = W x^0 - tau B(x^0)``, which corresponds
    to starting the underlying primal-dual method from a nonzero dual point;
    both variants converge to the same solution set.
    """
    return _step(agents, mixing, _start(agents, mixing, x0, tau, premix, True), tau, reflect=True)


def inclusion_step(agents, mixing, state, tau):
    """Advance the stacked iterate by one communication round (one exchange)."""
    return _step(agents, mixing, state, tau, reflect=True)


def consensus_gap(x):
    """Largest distance from an agent's row to the row average."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return 0.0
    dev = x - x.mean(axis=0)
    return float(np.linalg.norm(dev, axis=1).max(initial=0.0))


def _stacked_columns(reference, split=None):
    """Trace columns of stacks of rows: consensus gaps and the distance to ``reference``.

    The observer takes a list of ``(n, h)`` row arrays and returns a dict of
    columns, each a list with one value per array.  With ``split`` the
    consensus gaps are reported per block: ``x`` on the first ``split``
    columns, ``y`` on the rest.  One pass over the ``(K, n, h)`` stack forms
    the row means and the squared deviations; each block's gap is the square
    root of its largest row sum.
    Every reduction runs along the same axis, in the same order, as on one
    array, so each column is bitwise :func:`consensus_gap` of the block and
    ``np.linalg.norm`` of the mean's distance to ``reference``.
    """
    blocks = ({"consensus_gap_x": slice(None)} if split is None else
              {"consensus_gap_x": slice(None, split), "consensus_gap_y": slice(split, None)})

    def columns(xs):
        stack = np.array(xs)
        mean = np.add.reduce(stack, 1) / stack.shape[1]
        dev = stack - mean[:, None]
        sq = dev * dev
        out = {name: np.sqrt(np.add.reduce(sq[:, :, cols], 2).max(axis=1, initial=0.0)).tolist()
               for name, cols in blocks.items()}
        if reference is not None:
            out["distance_to_reference"] = [_norm(m - reference) for m in mean]
        return out

    return columns


def _norm(d):
    """``np.linalg.norm(d)`` (Frobenius) without its wrapper: ``sqrt(d . d)`` on the raveled array."""
    d = d.ravel()
    return float(np.sqrt(d.dot(d)))


def _run_stacked(agents, mixing, x0, tau, stop, premix, reference, reflect, split=None):
    """:func:`~saddlenet.trace.run_loop` over the recursion from round 0.

    The residual is ``||x_new - x_old||_F`` and the other columns are
    :func:`_stacked_columns`.
    """
    columns = _stacked_columns(reference, split)
    return run_loop(lambda s: _step(agents, mixing, s, tau, reflect),
                    _start(agents, mixing, x0, tau, premix, reflect), stop,
                    lambda old, new: _norm(new.x - old.x),
                    lambda states: columns([s.x for s in states]))


def inclusion_run(agents, mixing, x0, tau, stop=None, premix=False, reference=None):
    """Run the decentralized iteration until the Frobenius residual meets ``stop``.

    ``reference``, when given, is a single solution row; the trace then
    carries the distance from the row average to it.  Returns the final
    :class:`StackedIterate` and the trace (first row is the bootstrap step;
    a run that takes no step returns the round-0 iterate).
    """
    return _run_stacked(agents, mixing, x0, tau, stop, premix, reference, reflect=True)


# ---------------------------------------------------------------------------
# explicit product-space reference
# ---------------------------------------------------------------------------

def _psd_sqrt(mat):
    """Symmetric square root of the PSD ``mat``; eigenvalues at roundoff level count as 0.

    ``eigh`` returns the consensus eigenvalue of ``(I - W)/2`` as about
    ``1e-17`` rather than 0, and its square root (about ``3e-9``) would
    leave ``K 1`` nonzero: the dual of a product-space run would drift by
    ``sigma K x*`` every step and never settle.
    """
    vals, vecs = np.linalg.eigh(mat)
    vals = np.where(vals <= mat.shape[0] * np.finfo(float).eps * vals[-1], 0.0, vals)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _product_space_problem(agents, mixing, h):
    """The stacked inclusion as one primal-dual problem on the flattened rows.

    The ``n x h`` rows are flattened row-major; the coupling matrix applies
    the symmetric square root of ``(I - W)/2`` to each block's columns of the
    mixing's layout (:func:`~saddlenet.graphs.mixing_blocks`), and the dual
    resolvent is the identity.  ``k_norm`` is passed in closed form,
    ``sqrt((1 - lambda_min(W)) / 2)``: an SVD of the ``(n h) x (n h)``
    coupling would cost O((n h)^3).
    """
    n = len(agents)
    k = np.zeros((n * h, n * h))
    for _, m, cols in mixing_blocks(mixing, h):
        mask = np.zeros(h)
        mask[cols] = 1.0
        k += np.kron(_psd_sqrt((np.eye(n) - m.w) / 2.0), np.diag(mask))
    kernels = _AgentKernels.build(agents, h)

    def res_fn(t, z):
        return kernels.resolvent(t, z.reshape(n, h)).reshape(-1)

    def fwd_fn(z):
        return kernels.forward(z.reshape(n, h)).reshape(-1)

    return PrimalDualProblem(
        resolvent=Prox(res_fn, kind="stacked", dim=n * h),
        forward=ForwardOperator(fwd_fn, uniform_lipschitz(agents)),
        dual_resolvent=zero_prox(),
        k=k,
        k_norm=float(np.sqrt((1.0 - mixing.lambda_min) / 2.0)),
    )


def product_space_reference(agents, mixing, x0, tau, iterations, premix=False):
    """Iterate the underlying primal-dual method with its explicit coupling.

    Runs :func:`~saddlenet.primal_dual.pdtr_step` with ``sigma = 1/tau`` on
    the product-space problem.  It keeps the dual block ``y`` that the
    communication-friendly recursion eliminates, and ``K`` is the square root
    of ``(I - W)/2``:

        x^{k+1} = J_{tau A}(x^k - tau K y^k - tau v^k)
        y^{k+1} = y^k + (1/tau) K (2 x^{k+1} - x^k)

    with ``y^0 = 0`` (or ``y^0 = (2/tau) K x^0`` for the premixed variant,
    which is the same dual shift as ``premix`` in :func:`inclusion_init`).
    Returns the list of ``x`` arrays after each of ``iterations`` steps;
    entry 0 therefore aligns with the state produced by
    :func:`inclusion_init`.
    """
    x0 = _check_setup(agents, mixing, x0, tau, reflect=True)
    n, h = x0.shape
    problem = _product_space_problem(agents, mixing, h)
    z0 = x0.reshape(-1)
    y0 = (2.0 / tau) * (problem.k @ z0) if premix else np.zeros_like(z0)
    state = PdtrState.start(problem, z0, y0)
    steps = StepSizes(tau, 1.0 / tau)
    out = []
    for _ in range(iterations):
        state = pdtr_step(problem, state, steps)
        out.append(state.x.reshape(n, h))
    return out


# ---------------------------------------------------------------------------
# PG-EXTRA baseline
# ---------------------------------------------------------------------------

def pg_extra_init(agents, mixing, x0, tau, premix=False):
    """Bootstrap PG-EXTRA; agents carry (prox, smooth gradient) pairs.

    This is :func:`inclusion_init` with the plain gradient difference, gated
    at ``0 < tau < (1 + lambda_min(W)) / L``.
    """
    return _step(agents, mixing, _start(agents, mixing, x0, tau, premix, False), tau, reflect=False)


def pg_extra_step(agents, mixing, state, tau):
    """One PG-EXTRA round (plain gradient difference, no reflection, one exchange)."""
    return _step(agents, mixing, state, tau, reflect=False)


def pg_extra_run(agents, mixing, x0, tau, stop=None, premix=False, reference=None):
    """Run PG-EXTRA; same trace conventions as :func:`inclusion_run`."""
    return _run_stacked(agents, mixing, x0, tau, stop, premix, reference, reflect=False)
