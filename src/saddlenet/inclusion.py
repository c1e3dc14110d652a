"""Decentralized solver for sums of monotone operators over a network.

``n`` agents each hold a resolvent ``J_{tau A_i}`` and a monotone Lipschitz
map ``B_i``; the network seeks a consensus ``x*`` with
``0 in sum_i (A_i + B_i)(x*)``.  The iteration keeps per-agent rows stacked
in an ``n x h`` array and needs one neighbor exchange and one ``B_i``
evaluation per round.  With ``v^k = 2 B(x^k) - B(x^{k-1})`` it is

    u^{k+1} = W x^k + u^k - (x^{k-1} + W x^{k-1}) / 2 - tau (v^k - v^{k-1})
    x^{k+1} = J_{tau A}(u^{k+1})                         (rows)

with ``u^1 = x^0 - tau B(x^0)`` (or ``W x^0 - tau B(x^0)`` when initial
mixing is requested).  Each agent steps at its own ``tau_i``: a run turns
its ``tau``, one number or one per agent, into one ``(n,)`` array at entry.

It runs in its dual form, where the eliminated dual block is a running sum
``g`` (as in PG-EXTRA and NIDS).  Each new ``x`` comes with its images
``w = W x``, ``half = (W x - x) / 2`` and ``b = tau B(x)``, formed at once
(the round's one exchange and one forward).  Agent ``i`` scales its exchange
by ``c_i = tau_i / max tau``: ``half = c (W x - x) / 2`` and ``w = x + 2 half``,
the per-agent lazy mixing ``I - C (I - W)`` of NIDS, and ``b_i = tau_i B_i(x_i)``.
At equal steps ``c = 1``, and the stacked kernels keep ``w = W x`` as the
mixing formed it.  This is the primal-dual method below with the
diagonal step ``T = diag(tau_i)`` and ``sigma = 1 / max tau`` (Pock &
Chambolle 2011), admissible exactly when

    2 max_i tau_i L_i + rho < 1,   rho = max_b lambda_max(C^{1/2} (I - W_b) C^{1/2}) / 2

over the mixing's blocks ``W_b``, ``C = diag(c)`` (:func:`_rho`).  So agent
``i``'s gate is ``(1 - rho) / (2 L_i)``, and ``rho`` depends on the steps
only through their ratios ``c``.  Since ``C <= I``, ``rho <= (1 -
lambda_min(W)) / 2``, the closed form: at equal steps it is ``rho``, and the
gate is ``(1 + lambda_min(W)) / (4 L)`` for one ``tau`` with ``L = max_i L_i``.
The exact ``rho`` of unequal steps takes one ``n x n`` eigensolve per distinct
block.

Every round, the first included, is

    u = w + e
    g <- g + half                            (the images of the old x)
    x <- J_{tau A}(u)                         (row i at tau_i)
    w, half, b <- the images of the new x
    e <- g - (2 b - b_prev)

from the images of ``x^0``, ``g = x^0 - W x^0`` (0 when premixing) and
``e = g - b``.  Summing the recursion above telescopes to ``u^{k+1} = W x^k
+ g^k - tau v^k``, which is this form.  Every column of ``g`` sums to zero
over the agents, because ``1' (W - I) = 0``.

The same recursion with the plain gradient, ``e = g - b``, for a smooth
``B_i = grad h_i`` is the PG-EXTRA baseline, ``0 < tau < (1 + lambda_min(W)) / L``
at one ``tau`` (its per-agent gate is not derived); one round, :func:`_round`,
runs both, and the reflection is all that differs.  One function,
:func:`_exchange`, forms ``w`` and ``half`` from ``W x`` everywhere: the
stacked kernels from ``mixing.apply``, with ``b`` from the batched forward;
the one-product kernel (:class:`_OneProduct`: a small stack of affine
forwards on dense mixing) once per run, on the unit rows; the harness's
agents from the average they receive, with their row of the batched forward.
:func:`product_space_reference` runs the underlying primal-dual iteration
(``pdtr`` with the explicit square-root coupling matrix and the diagonal
step); it exists to check that the communication-friendly recursion above is
the same method.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .graphs import Graph, metropolis_mixing, mixing_blocks
from .operators import (
    ForwardOperator,
    Prox,
    _affine_rows,
    _prox_rows,
    _row_steps,
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


def _step_gate(mixing, lipschitz, reflect, share=1.0, rho=None):
    """``share`` of the open bound on ``tau``, ``(1 + lambda_min) / (c L)``: ``c = 4`` for the
    reflected recursion (forb's, on :data:`_ONE_VERTEX`, is ``1 / (2 L)``), 1 for PG-EXTRA.
    Every gate and auto step (``share = safety``) is evaluated here.  With the ``rho`` of unequal
    reflected steps (:func:`_rho`) it is ``(1 - rho) / (2 L)``, and at the closed-form ``rho``
    the closed form, bitwise.  At ``L = 0`` it is inf (``B`` constant: PDHG with
    ``tau sigma ||K||^2 = rho < 1``)."""
    if lipschitz < 0:
        raise ValueError(f"lipschitz must be nonnegative, got {lipschitz!r}")
    if lipschitz == 0:
        return float("inf")
    if rho is None or not reflect or rho == _closed_rho(mixing):
        return share * (1.0 + mixing.lambda_min) / ((4.0 if reflect else 1.0) * lipschitz)
    return share * (1.0 - rho) / (2.0 * lipschitz)


def _chosen_step(mixing, lipschitz, reflect, share):
    """``share`` of the gate, or where it is inf (``L = 0``) of the gate at ``L = 1``: every finite
    step picked at a gate that may be inf (config, CLI, :func:`~saddlenet.minmax.saddle_residual`)."""
    return _step_gate(mixing, lipschitz or 1.0, reflect, share)


def _closed_rho(mixing):
    """``(1 - lambda_min(W)) / 2``: ``rho`` at equal steps, and a bound on it at any steps."""
    return (1.0 - mixing.lambda_min) / 2.0


def _rho(mixing, c, h):
    """The coupling term of the condition ``2 max_i tau_i L_i + rho < 1`` at step ratios ``c``.

    ``rho = max_b lambda_max(C^{1/2} (I - W_b) C^{1/2}) / 2`` over the blocks
    of ``mixing`` on rows of width ``h`` (:func:`~saddlenet.graphs.mixing_blocks`),
    ``C = diag(c)``, ``c_i = tau_i / max tau``: one ``eigvalsh`` per distinct
    block (a block with only ``apply``, ``n`` and ``lambda_min`` is formed by
    one ``apply`` to the identity), and never above the closed form
    (:func:`_closed_rho`), which it is, bitwise, at equal ``c``.
    """
    closed = _closed_rho(mixing)
    c = np.asarray(c, dtype=float)
    if c.min() == c.max():
        return closed
    root = np.sqrt(c)
    top = max(np.linalg.eigvalsh(np.diag(c) - root[:, None] * _dense(m) * root)[-1]
              for m in {id(m): m for _, m, _ in mixing_blocks(mixing, h)}.values())
    return min(float(top) / 2.0, closed)


def _dense(m):
    """The ``(n, n)`` weights of the mixing matrix ``m``: its ``w``, or one ``apply`` to the identity."""
    w = getattr(m, "w", None)
    return m.apply(np.eye(m.n)) if w is None else w


def _steps_rho(mixing, tau, h):
    """The ``rho`` of the ``(n,)`` steps ``tau``, :func:`_rho` at their ratios ``tau / max tau``:
    what every agent's gate is checked at (:func:`_check_setup`) and reported at.  None (the
    closed form) unless every step is positive and finite, which the check refuses."""
    return _rho(mixing, tau / tau.max(), h) if 0.0 < tau.min() <= tau.max() < np.inf else None


def _agent_gates(agents, mixing, reflect=True, rho=None):
    """Each agent's own open gate, :func:`_step_gate` at its declared ``L_i`` (inf at ``L_i = 0``)
    and the run's ``rho`` (the closed form when None)."""
    return [_step_gate(mixing, a.lipschitz, reflect, rho=rho) for a in agents]


def stepsize_bound(mixing, lipschitz):
    """Admissible step-size supremum ``(1 + lambda_min(W)) / (4 L)``, open: ``tau`` must be
    strictly below it.  It is inf at ``L = 0``; a negative ``L`` raises ``ValueError``."""
    return _step_gate(mixing, lipschitz, True)


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

    ``tau`` is the run's step, a frozen ``(n,)`` float array with one entry
    per agent (equal entries when the run takes one ``tau``).  It is fixed,
    because the kernels are built for it.
    ``kernels`` holds the agents' row-batched operators, built once per run.
    A step from a state without ``w`` or ``kernels`` forms them anew.

    Round 0 holds ``u = x = x0`` and the ``g``, ``b`` and ``e`` of the start.
    Steps build a new iterate and never write to the one they step from.
    """

    u: np.ndarray
    x: np.ndarray
    g: np.ndarray
    b: np.ndarray
    e: np.ndarray
    tau: np.ndarray
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


def _exchange(x, wx, c_half):
    """``w`` and ``half = c (W x - x) / 2`` of the rows ``x`` from ``wx = W x``, ``c_half`` holding
    ``c / 2``, ``c_i = tau_i / max tau``: ``w = x + 2 half``, the per-agent lazy mixing ``I - C (I - W)``
    of NIDS.  At equal steps ``c_half`` is None: ``w = W x`` as the mixing formed it.  Every exchange
    of the package is formed here (the harness's agents pass one row and ``c_half`` a number)."""
    half = wx - x
    if c_half is None:
        half *= 0.5
        return wx, half
    half *= c_half
    w = half + half
    w += x
    return w, half


class _Kernels:
    """Row-batched resolvent and ``tau B`` of the agent list ``source``, on ``mixing``, at the steps ``tau``.

    :meth:`images` forms the exchange of a new iterate (:func:`_exchange`,
    ``lazy`` holding ``c / 2``, None at equal steps) from ``mixing.apply``, and
    its ``b`` with the batched forward.
    """

    def __init__(self, agents, mixing, h, tau, layout):
        self.source, self.mixing, self.layout, self.h = agents, mixing, layout, h
        self.resolvent = _prox_rows([a.resolvent for a in agents], h, tau)
        self.forward = batched_forward([a.forward for a in agents], h, scale=tau)
        self.lazy = None if tau.min() == tau.max() else (tau / tau.max() * 0.5)[:, None]

    def serves(self, agents, mixing):
        """Built from ``agents``, on ``mixing`` or on one with the same blocks."""
        return self.source is agents and (
            mixing is self.mixing or mixing_blocks(mixing, self.h) == self.layout)

    def images(self, x):
        """``w``, ``half`` and ``b = tau B(x)`` of the rows ``x``."""
        return (*_exchange(x, self.mixing.apply(x), self.lazy), self.forward(x))


class _OneProduct(_Kernels):
    """The kernels of a small stack whose forwards are all affine and whose
    blocks mix over dense matrices.

    One ``(3 n h, n h)`` matrix, built once per run, maps the flattened rows
    of a new iterate to ``w``, ``half`` and ``tau J x`` at once (``J`` the
    block-diagonal Jacobian of the forwards), so a round's whole linear part
    is one matrix-vector product; ``b`` adds the forwards' ``tau F(0)`` when
    one is nonzero.  Column ``k`` of the two exchange blocks is the stacked
    :func:`_exchange` of the ``k``-th unit row array, so they are ``W`` as
    ``apply`` forms it at equal steps and ``I + C (W - I)`` else; the rows of
    ``J`` are ``tau_i J_i`` (:func:`~saddlenet.operators._affine_rows`).
    """

    def __init__(self, agents, mixing, h, tau, layout):
        super().__init__(agents, mixing, h, tau, layout)
        n = len(agents)
        jac, self.offset = _affine_rows([a.forward for a in agents], h, tau)
        forms = np.zeros((3, n * h, n * h))
        for k, unit in enumerate(np.eye(n * h).reshape(n * h, n, h)):
            w, half = _exchange(unit, mixing.apply(unit), self.lazy)
            forms[0, :, k], forms[1, :, k] = w.ravel(), half.ravel()
        forms[2].reshape(n, h, n, h)[np.arange(n), :, np.arange(n), :] = jac
        self.forms = forms.reshape(3 * n * h, n * h)
        self.shape = (3, n, h)

    def images(self, x):
        out = self.forms.dot(x.ravel()).reshape(self.shape)
        return out[0], out[1], (out[2] if self.offset is None else out[2] + self.offset)


def _block_kron(layout, n, h, f):
    """The product-space coupling: ``kron(f(w), diag(mask))`` summed over a ``mixing_blocks`` layout.

    Each block adds ``f(w)`` to the ``(i, c, j, c)`` entries of an ``(n, h, n, h)``
    view, ``c`` one of its columns (``mask``), with no ``(n h, n h)`` temporary; the sum
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


def _check_setup(agents, mixing, x0, tau, reflect):
    """``x0`` as float rows and ``tau`` as one frozen step per agent, after the shape checks and the gate.

    Every agent's step is checked against its own gate (:func:`_agent_gates`)
    at the ``rho`` of the steps' ratios (:func:`_steps_rho`): together, the exact
    condition ``2 max_i tau_i L_i + rho < 1``.  One ``tau`` for every agent is
    so gated at ``max_i L_i``, whose closed-form gate is bitwise the least.
    PG-EXTRA takes one ``tau``: its per-agent gate is not derived.
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(agents)
    if mixing.n != n:
        raise ValueError(f"mixing operates on {mixing.n} agents, got {n}")
    if x0.ndim != 2 or x0.shape[0] != n:
        raise ValueError(f"x0 must be (n, h) with n={n}, got {x0.shape}")
    tau = _row_steps(tau, n, "agent")
    if not reflect and tau.min() < tau.max():
        raise ValueError("PG-EXTRA steps at one tau: its per-agent gate is not derived")
    gates = _agent_gates(agents, mixing, reflect, _steps_rho(mixing, tau, x0.shape[1]))
    for i, (step, gate) in enumerate(zip(tau.tolist(), gates)):
        if not 0.0 < step < gate:
            raise StepSizeError(f"step size exceeds its bound: the step of agent {i} exceeds its own gate: "
                                f"tau_{i}={step!r} not in (0, {gate!r})")
    return x0, tau


def _dual_step(g, b, b_prev, reflect):
    """``e = g - (2 b - b_prev)``, or ``g - b`` without the reflection."""
    if not reflect:
        return g - b
    v = b + b
    v -= b_prev
    return np.subtract(g, v, out=v)


def _round(ops, state, reflect):
    """One round of the dual recursion from ``state``, which carries the exchange of its ``x``.

    ``ops`` supplies ``resolvent`` (at the run's step) and ``images`` (the
    exchange and ``b = tau B`` of a new ``x``): the stacked kernels, or one
    agent's own operators on its row, whose exchange the harness delivers.
    Nothing is checked: the caller has matched ``ops`` to ``state``.  The new iterate
    is built positionally, in the field order of :class:`StackedIterate`.
    """
    u = state.w + state.e
    x = ops.resolvent(u)
    w, half, b = ops.images(x)
    g = state.g + state.half
    return StackedIterate(u, x, g, b, _dual_step(g, b, state.b, reflect), state.tau, w, half,
                          state.kernels)


def _start(agents, mixing, x0, tau, premix, reflect):
    """The round-0 iterate after :func:`_check_setup`; builds the agents' kernels."""
    x0, tau = _check_setup(agents, mixing, x0, tau, reflect)
    kernels = _kernels(agents, mixing, x0.shape[1], tau)
    w, half, b = kernels.images(x0)
    g = np.zeros_like(x0) if premix else x0 - w
    return StackedIterate(u=x0, x=x0, g=g, b=b, e=g - b, tau=tau, w=w, half=half, kernels=kernels)


def _step(agents, mixing, state, tau, reflect):
    """One checked round: one exchange, one resolvent and one forward of every agent.

    The public one-step functions come here: ``tau`` must be the run's, and
    kernels that do not serve ``agents`` and ``mixing`` are built anew.  A
    run, which fixed all three, calls :func:`_round` itself.
    """
    tau = _row_steps(tau, len(agents), "agent")
    if not np.array_equal(tau, state.tau):
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
    """Largest distance from an agent's row to the row average: the trace's own column."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return 0.0
    return float(_stacked_columns(None)([x])["consensus_gap_x"][0])


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
    array, so each gap is bitwise the largest ``np.linalg.norm`` of a row's distance to
    the row average, and the distance is ``np.linalg.norm`` of the mean's to ``reference``.
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


def forb_step(resolvent, forward, state, tau):
    """Reflected forward-backward step ``x+ = J(x - 2 tau B(x) + tau B(x-))``, ``x- = x0`` at the start.

    It is one round of one agent on ``W = [[1]]``, gated as :func:`forb_run` is.
    The first step fixes ``tau`` (another raises ``ValueError``); steps with its
    ``resolvent`` and ``forward`` reuse its kernels.
    """
    s = state.stacked
    if s.tau is None:
        s = _start([AgentInclusion(resolvent, forward)], _ONE_VERTEX, s.x, tau, False, True)
    agents = s.kernels.source
    if agents[0].resolvent is not resolvent or agents[0].forward is not forward:
        agents = [AgentInclusion(resolvent, forward)]
    return ForbState(_step(agents, _ONE_VERTEX, s, tau, reflect=True))


def forb_run(resolvent, forward, x0, tau, stop=None, observe=None):
    """Reflected forward-backward iteration: the round of one agent on ``W = [[1]]``.

    It is gated as that round (:func:`_step_gate` on :data:`_ONE_VERTEX`),
    ``0 < tau < 1 / (2 L)``, any ``tau > 0`` when ``L = 0``.  Its ``g`` stays 0,
    so its residual is ``||x_new - x_old||``.  ``observe(state)``,
    when given, returns the other trace columns of one state as a dict of
    numbers, with the same columns for every state and every chunk of the
    run (:func:`~saddlenet.trace.per_state`).
    """
    start = _start([AgentInclusion(resolvent, forward)], _ONE_VERTEX, np.asarray(x0, dtype=float)[None],
                   tau, False, True)
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

    Runs :func:`~saddlenet.primal_dual.pdtr_step` on the product-space
    problem with the primal step ``T = diag(tau_i) (x) I_h`` (``tau`` one
    number or one per agent, gated as :func:`inclusion_init` gates it) and
    ``sigma = 1 / max tau``.  It keeps the dual block ``y`` that the
    communication-friendly recursion eliminates, and ``K`` is the square root
    of ``(I - W)/2``:

        x^{k+1} = J_{T A}(x^k - T K y^k - T v^k)
        y^{k+1} = y^k + sigma K (2 x^{k+1} - x^k)

    with ``y^0 = 0`` (or ``y^0 = 2 sigma K x^0`` for the premixed variant,
    which is the same dual shift as ``premix`` in :func:`inclusion_init`).
    Eliminating ``s = T K' y`` gives the recursion's exchange, scaled by
    ``c = sigma T``.  Returns the list of ``x`` arrays after each of
    ``iterations`` steps; entry 0 therefore aligns with the state produced
    by :func:`inclusion_init`.
    """
    x0, tau = _check_setup(agents, mixing, x0, tau, reflect=True)
    n, h = x0.shape
    # the resolvent of T A: each agent's rows at its own step
    rows = _prox_rows([a.resolvent for a in agents], h, tau)
    problem = replace(_product_space_problem(agents, mixing, h),
                      resolvent=lambda _, z: rows(z.reshape(n, h)).reshape(-1))
    z0 = x0.reshape(-1)
    top = float(tau.max())
    y0 = (2.0 / top) * (problem.k @ z0) if premix else np.zeros_like(z0)
    state = PdtrState.start(problem, z0, y0)
    steps = StepSizes(np.repeat(tau, h), 1.0 / top)
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
