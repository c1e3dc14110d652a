"""Decentralized solver for sums of monotone operators over a network.

``n`` agents each hold a resolvent ``J_{tau A_i}`` and a monotone Lipschitz
map ``B_i``; the network seeks a consensus ``x*`` with
``0 in sum_i (A_i + B_i)(x*)``.  The iteration keeps per-agent rows stacked
in an ``n x h`` array and needs one neighbor exchange and one ``B_i``
evaluation per round.  With ``v^k = 2 B(x^k) - B(x^{k-1})`` it is

    u^{k+1} = W x^k + u^k - (x^{k-1} + W x^{k-1}) / 2 - tau (v^k - v^{k-1})
    x^{k+1} = J_{tau A}(u^{k+1})                         (rows)

with ``u^1 = x^0 - tau B(x^0)`` (or ``W x^0 - tau B(x^0)`` when initial
mixing is requested).  Admissible steps satisfy
``0 < tau < (1 + lambda_min(W)) / (4 L)`` with ``L = max_i L_i``.

It runs in its dual form, where the eliminated dual block is a running sum
``g`` (as in PG-EXTRA and NIDS).  Each new ``x`` comes with its images
``w = W x``, ``half = (W x - x) / 2`` and ``b = tau B(x)``, formed at once
(the round's one exchange and one forward).  Every round, the first
included, is

    u = w + e
    g <- g + half                            (the images of the old x)
    x <- J_{tau A}(u)
    w, half, b <- the images of the new x
    e <- g - (2 b - b_prev)

from the images of ``x^0``, ``g = x^0 - W x^0`` (0 when premixing) and
``e = g - b``.  Summing the recursion above telescopes to ``u^{k+1} = W x^k
+ g^k - tau v^k``, which is this form.  Every column of ``g`` sums to zero
over the agents, because ``1' (W - I) = 0``.

The same recursion with the plain gradient, ``e = g - b``, for a smooth
``B_i = grad h_i`` is the PG-EXTRA baseline, ``0 < tau < (1 + lambda_min(W)) / L``;
one round, :func:`_round`, runs both, and the reflection is all that
differs.  The stacked kernels form the images with ``mixing.apply`` and the
batched forward; on a small stack whose forwards are all affine and whose
blocks mix over dense matrices, they are one matrix product
(:class:`_OneProduct`).  The harness's agents run the same round on their
own rows, with the exchange they receive.
:func:`product_space_reference` runs the underlying primal-dual iteration
(``pdtr`` with the explicit square-root coupling matrix); it exists to check
that the communication-friendly recursion above is the same method.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .graphs import Graph, metropolis_mixing, mixing_blocks
from .operators import (
    ForwardOperator,
    Prox,
    _affine_rows,
    batched_forward,
    batched_resolvent,
    zero_prox,
)
from .primal_dual import PdtrState, PrimalDualProblem, StepSizeError, StepSizes, pdtr_step
from .trace import _norm, per_state, run_loop

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
    """Stacked per-agent state of the decentralized iteration, in dual form.

    ``x = J_{tau A}(u)`` holds the agents' rows and ``u`` the point they were
    resolved from.  ``w = W x`` and ``half = (W x - x) / 2`` are the exchange
    of this ``x``, formed with ``b = tau B(x)`` as soon as ``x`` was made.
    ``g`` is the dual running sum that replaces the eliminated dual block: it
    starts at ``x_0 - W x_0`` (at 0 when premixing), and every round adds the
    ``half`` of the ``x`` it steps from, so each column of ``g`` sums to zero
    over the agents.  ``e = g - (2 b - b_prev)`` (``g - b`` for PG-EXTRA) is
    what the next round adds to the exchange: ``u_next = w + e``.

    ``tau`` is the run's step; it is fixed, because the kernels fold it into
    the forward stack.  ``kernels`` holds the agents' row-batched operators,
    built once per run.  A step from a state without ``w`` or ``kernels``
    forms them anew.

    Round 0 holds ``u = x = x0`` and the ``g``, ``b`` and ``e`` of the start.
    Steps build a new iterate and never write to the one they step from.
    """

    u: np.ndarray
    x: np.ndarray
    g: np.ndarray
    b: np.ndarray
    e: np.ndarray
    tau: float
    w: np.ndarray | None = field(default=None, repr=False)
    half: np.ndarray | None = field(default=None, repr=False)
    kernels: object = field(default=None, repr=False)


# The one-product kernel is picked while n h is at most this; above it
# ``mixing.apply`` and the batched forward cost less than one (3 n h, n h)
# matrix-vector product.  A round of a ring min-max stack with h = 6 took
# (µs, one-product against structured, best of 15-25 interleaved 2000-round
# runs, one BLAS thread, 2-vCPU VM): n h = 30: 9.5-11.5 against 11.7-12.6;
# 72: 11.7-12.0 against 12.8-13.1; 96: 12.9-16.5 against 13.0-13.3;
# 120: 17.2-21.2 against 16.3-20.5.
_ONE_PRODUCT_MAX_NH = 80


class _Kernels:
    """Row-batched resolvent and ``tau B`` of the agent list ``source``, on ``mixing``.

    :meth:`images` forms the exchange of a new iterate with ``mixing.apply``
    and its ``b`` with the batched forward.
    """

    def __init__(self, agents, mixing, h, tau, layout):
        self.source, self.mixing, self.layout, self.h = agents, mixing, layout, h
        self.resolvent = batched_resolvent([a.resolvent for a in agents], h)
        self.forward = batched_forward([a.forward for a in agents], h, scale=tau)

    def serves(self, agents, mixing):
        """Built from ``agents``, on ``mixing`` or on one with the same blocks."""
        return self.source is agents and (
            mixing is self.mixing or mixing_blocks(mixing, self.h) == self.layout)

    def images(self, x):
        """``W x``, ``(W x - x) / 2`` and ``b = tau B(x)`` of the rows ``x``."""
        w = self.mixing.apply(x)
        half = w - x
        half *= 0.5
        return w, half, self.forward(x)


class _OneProduct(_Kernels):
    """The kernels of a small stack whose forwards are all affine and whose
    blocks mix over dense matrices.

    One ``(3 n h, n h)`` matrix, built once per run, maps the flattened rows
    of a new iterate to ``W x``, ``(W x - x) / 2`` and ``tau J x`` at once
    (``J`` the block-diagonal Jacobian of the forwards), so a round's whole
    linear part is one matrix-vector product; ``b`` adds the forwards'
    ``tau F(0)`` when one is nonzero.
    """

    def __init__(self, agents, mixing, h, tau, layout):
        n = len(agents)
        self.source, self.mixing, self.layout, self.h = agents, mixing, layout, h
        self.resolvent = batched_resolvent([a.resolvent for a in agents], h)
        jac, self.offset = _affine_rows([a.forward for a in agents], h, tau)
        mix = _block_kron(layout, n, h, lambda w: w)
        forms = np.zeros((3, n * h, n * h))
        forms[0] = mix
        forms[1] = 0.5 * (mix - np.eye(n * h))
        forms[2].reshape(n, h, n, h)[np.arange(n), :, np.arange(n), :] = jac
        self.forms = forms.reshape(3 * n * h, n * h)
        self.shape = (3, n, h)

    def images(self, x):
        out = self.forms.dot(x.ravel()).reshape(self.shape)
        return out[0], out[1], (out[2] if self.offset is None else out[2] + self.offset)


def _block_kron(layout, n, h, f):
    """The sum of ``kron(f(w), diag(mask))`` over a ``mixing_blocks`` layout, ``mask`` a block's columns.

    Each block adds ``f(w)`` to the ``(i, c, j, c)`` entries of an ``(n, h, n, h)``
    view, ``c`` one of its columns, with no ``(n h, n h)`` temporary; the sum
    is the kron sum bitwise (adding to zeros turns a ``-0.0`` into ``0.0``).
    """
    out = np.zeros((n, h, n, h))
    for _, m, cols in layout:
        block = f(m.w)
        for c in range(h)[cols]:
            out[:, c, :, c] += block
    return out.reshape(n * h, n * h)


def _kernels(agents, mixing, h, tau):
    """The one-product kernels when they apply (see :class:`_OneProduct`), else :class:`_Kernels`.

    The pick reads only the forwards' ``jacobian`` and the block matrices'
    ``w``, so a mixing or a forward wrapped in a delegating proxy takes the
    same path as the bare one.
    """
    layout = mixing_blocks(mixing, h)
    if (len(agents) * h <= _ONE_PRODUCT_MAX_NH and all(a.forward.jacobian is not None for a in agents)
            and all(getattr(m, "w", None) is not None for _, m, _ in layout)):
        return _OneProduct(agents, mixing, h, tau, layout)
    return _Kernels(agents, mixing, h, tau, layout)


def _step_gate(mixing, lipschitz, reflect):
    """The open bound on ``tau`` of the method ``reflect`` selects: ``(1 + lambda_min) /
    (4 L)`` for the reflected recursion, ``(1 + lambda_min) / L`` for PG-EXTRA."""
    if reflect:
        return stepsize_bound(mixing, lipschitz)
    return (1.0 + mixing.lambda_min) / lipschitz if lipschitz > 0 else float("inf")


def _check_setup(agents, mixing, x0, tau, reflect):
    """``x0`` as float rows after the shape checks and :func:`_step_gate`."""
    x0 = np.asarray(x0, dtype=float)
    n = len(agents)
    if mixing.n != n:
        raise ValueError(f"mixing operates on {mixing.n} agents, got {n}")
    if x0.ndim != 2 or x0.shape[0] != n:
        raise ValueError(f"x0 must be (n, h) with n={n}, got {x0.shape}")
    bound = _step_gate(mixing, uniform_lipschitz(agents), reflect)
    if not 0.0 < tau < bound:
        raise StepSizeError(f"step size exceeds its bound: tau={tau!r} not in (0, {bound!r})")
    return x0


def _dual_step(g, b, b_prev, reflect):
    """``e = g - (2 b - b_prev)``, or ``g - b`` without the reflection."""
    if not reflect:
        return g - b
    v = b + b
    v -= b_prev
    return np.subtract(g, v, out=v)


def _round(ops, state, reflect):
    """One round of the dual recursion from ``state``, which carries the exchange of its ``x``.

    ``ops`` supplies ``resolvent`` and ``images`` (the exchange and ``b =
    tau B`` of a new ``x``): the stacked kernels, or one agent's own
    operators on its row, whose exchange the harness delivers.  Nothing is
    checked: the caller has matched ``ops`` to ``state``.  The new iterate
    is built positionally, in the field order of :class:`StackedIterate`.
    """
    u = state.w + state.e
    x = ops.resolvent(state.tau, u)
    w, half, b = ops.images(x)
    g = state.g + state.half
    return StackedIterate(u, x, g, b, _dual_step(g, b, state.b, reflect), state.tau, w, half,
                          state.kernels)


def _start(agents, mixing, x0, tau, premix, reflect):
    """The round-0 iterate after :func:`_check_setup`; builds the agents' kernels."""
    x0 = _check_setup(agents, mixing, x0, tau, reflect)
    return _round_zero(_kernels(agents, mixing, x0.shape[1], tau), x0, tau, premix)


def _round_zero(kernels, x0, tau, premix=False):
    """The round-0 iterate of the rows ``x0`` on ``kernels``, unchecked."""
    w, half, b = kernels.images(x0)
    g = np.zeros_like(x0) if premix else x0 - w
    return StackedIterate(u=x0, x=x0, g=g, b=b, e=g - b, tau=tau, w=w, half=half, kernels=kernels)


def _step(agents, mixing, state, tau, reflect):
    """One checked round: one exchange, one resolvent and one forward of every agent.

    The public one-step functions come here: ``tau`` must be the run's, and
    kernels that do not serve ``agents`` and ``mixing`` are built anew.  A
    run, which fixed all three, calls :func:`_round` itself.
    """
    if tau != state.tau:
        raise ValueError(f"this run steps with tau={state.tau!r}, not {tau!r}; start a new run")
    kernels = state.kernels
    if kernels is None or state.w is None or not kernels.serves(agents, mixing):
        kernels = _kernels(agents, mixing, state.x.shape[1], tau)
        w, half, _ = kernels.images(state.x)
        state = replace(state, w=w, half=half, kernels=kernels)
    return _round(kernels, state, reflect)


def inclusion_init(agents, mixing, x0, tau, premix=False):
    """Start from ``x0`` (one row per agent) and run round 1.

    With ``premix=False`` the first point is ``u^1 = x^0 - tau B(x^0)``: the
    dual sum starts at ``x^0 - W x^0``.  With ``premix=True`` the first
    point is averaged once, ``u^1 = W x^0 - tau B(x^0)``, which corresponds
    to starting the underlying primal-dual method from a nonzero dual point;
    both variants converge to the same solution set.  ``tau`` is fixed for
    the run: a step with another ``tau`` raises ``ValueError``.
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
    columns, each with one value per array; the gaps are float arrays, which
    the trace stores as they are.  With ``split`` the consensus gaps are
    reported per block: ``x`` on the first ``split`` columns, ``y`` on the
    rest.  One pass over the ``(K, n, h)`` stack forms
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
        out = {name: np.sqrt(np.add.reduce(sq[:, :, cols], 2).max(axis=1, initial=0.0))
               for name, cols in blocks.items()}
        if reference is not None:
            out["distance_to_reference"] = [_norm(m - reference) for m in mean]
        return out

    return columns


def _residual(old, new):
    """``||(x_new - x_old, g_new - g_old)||_F``: a round adds ``old.half`` to the dual sum ``g``."""
    return _norm(new.x - old.x, old.half)


def _run_stacked(agents, mixing, x0, tau, stop, premix, reference, reflect, split=None):
    """:func:`~saddlenet.trace.run_loop` over the recursion from round 0.

    Every round is :func:`_round` on the kernels that :func:`_start` built
    for this run: the run fixed ``tau``, the agents and the mixing, so the
    checks of :func:`_step` are left to the public one-step functions.
    """
    columns = _stacked_columns(reference, split)
    start = _start(agents, mixing, x0, tau, premix, reflect)
    kernels = start.kernels
    return run_loop(lambda s: _round(kernels, s, reflect), start, stop, _residual,
                    lambda states: columns([s.x for s in states]))


def inclusion_run(agents, mixing, x0, tau, stop=None, premix=False, reference=None):
    """Run the decentralized iteration until the norm of a round's change of ``(x, g)`` meets ``stop``.

    ``reference``, when given, is a single solution row; the trace then
    carries the distance from the row average to it.  Returns the final
    :class:`StackedIterate` and the trace (first row is round 1;
    a run that takes no step returns the round-0 iterate).
    """
    return _run_stacked(agents, mixing, x0, tau, stop, premix, reference, reflect=True)


# ---------------------------------------------------------------------------
# forb: the round of one agent
# ---------------------------------------------------------------------------

# One agent on the one-vertex mixing W = [[1]] runs the reflected
# forward-backward method (Malitsky & Tam 2020): w = x and half = 0, so g
# stays 0, and the gate (1 + 1) / (4 L) is its 1 / (2 L).
_ONE_VERTEX = metropolis_mixing(Graph.from_edges(1, []))


@dataclass(frozen=True, eq=False)
class ForbState:
    """A view of forb's one-row :class:`StackedIterate`, with ``x`` its row.

    :meth:`start` holds the 1-D ``x0`` alone; the first :func:`forb_step`
    forms the round-0 iterate and the kernels at its ``tau``.
    """

    stacked: StackedIterate

    @property
    def x(self):
        return self.stacked.x[0]

    @classmethod
    def start(cls, forward, x0):
        """The start at ``x0``; the first step evaluates ``forward`` there, at its ``tau``."""
        row = np.asarray(x0, dtype=float)[None]
        return cls(StackedIterate(row, row, None, None, None, None))


def _forb_start(resolvent, forward, row, tau):
    """forb's round-0 iterate at the ``(1, h)`` ``row``, unchecked: forb gates ``tau`` itself."""
    return _round_zero(_kernels([AgentInclusion(resolvent, forward)], _ONE_VERTEX, row.shape[1], tau), row, tau)


def forb_step(resolvent, forward, state, tau):
    """Reflected forward-backward step ``x+ = J(x - 2 tau B(x) + tau B(x-))``, ``x- = x0`` at the start.

    It is one round of one agent on ``W = [[1]]``.  The first step fixes
    ``tau`` (another raises ``ValueError``); steps with its ``resolvent`` and
    ``forward`` reuse its kernels.
    """
    s = state.stacked
    if s.tau is None:
        s = _forb_start(resolvent, forward, s.x, tau)
    agents = s.kernels.source
    if agents[0].resolvent is not resolvent or agents[0].forward is not forward:
        agents = [AgentInclusion(resolvent, forward)]
    return ForbState(_step(agents, _ONE_VERTEX, s, tau, reflect=True))


def forb_run(resolvent, forward, x0, tau, stop=None, observe=None):
    """Reflected forward-backward iteration; needs ``tau < 1 / (2 L)``, or any ``tau`` when ``L = 0``.

    It runs the round of one agent on ``W = [[1]]``, whose ``g`` stays 0: its
    residual is ``||x_new - x_old||``.  ``observe(state)``,
    when given, returns the other trace columns of one state as a dict of
    numbers, with the same columns for every state and every chunk of the
    run (:func:`~saddlenet.trace.per_state`).
    """
    if forward.lipschitz > 0 and not tau < 1.0 / (2.0 * forward.lipschitz):
        raise StepSizeError(
            f"tau={tau!r} must be below 1/(2L)={1.0 / (2.0 * forward.lipschitz)!r}"
        )
    start = _forb_start(resolvent, forward, np.asarray(x0, dtype=float)[None], tau)
    kernels, columns = start.kernels, per_state(observe)
    state, trace = run_loop(lambda s: _round(kernels, s, True), start, stop, _residual,
                            columns and (lambda states: columns([ForbState(s) for s in states])))
    return ForbState(state), trace


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
    k = _block_kron(mixing_blocks(mixing, h), n, h, lambda w: _psd_sqrt((np.eye(n) - w) / 2.0))
    resolvent = batched_resolvent([a.resolvent for a in agents], h)
    forward = batched_forward([a.forward for a in agents], h)

    def res_fn(t, z):
        return resolvent(t, z.reshape(n, h)).reshape(-1)

    def fwd_fn(z):
        return forward(z.reshape(n, h)).reshape(-1)

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
    at ``0 < tau < (1 + lambda_min(W)) / L`` for gradients (:func:`pg_extra_run`).
    """
    return _step(agents, mixing, _start(agents, mixing, x0, tau, premix, False), tau, reflect=False)


def pg_extra_step(agents, mixing, state, tau):
    """One PG-EXTRA round (no reflection); its gate assumes gradients (see :func:`pg_extra_run`)."""
    return _step(agents, mixing, state, tau, reflect=False)


def pg_extra_run(agents, mixing, x0, tau, stop=None, premix=False, reference=None):
    """Run PG-EXTRA; same trace conventions as :func:`inclusion_run`.

    The gate ``(1 + lambda_min(W)) / L`` assumes every ``B_i`` is a gradient
    (a symmetric Jacobian), unchecked because acceptance ``test_08`` counts
    :class:`~saddlenet.harness.PgExtraProgram`'s messages on other monotone
    maps.  A run on those can stall: ``random_inclusion_agents(40, 4, seed=44,
    pool=("zero", "quadratic", "l1"))`` over Metropolis weights of
    ``random_connected_graph(40, 0.1, seed=40)``, from seed-40 standard normal rows at
    0.9 of the gate, keeps its residual in 0.96-1.12 from round 100 to 20000.
    """
    return _run_stacked(agents, mixing, x0, tau, stop, premix, reference, reflect=False)
