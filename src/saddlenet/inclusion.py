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

The same recursion with the plain (unreflected) gradient difference and a
smooth ``B_i = grad h_i`` is the PG-EXTRA baseline, also provided here.
:func:`product_space_reference` runs the underlying primal-dual iteration
with the explicit square-root coupling matrix kept around; it exists to
check that the communication-friendly recursion above is the same method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import batched_forward, batched_resolvent
from .primal_dual import StepSizeError
from .trace import ConvergenceTrace, StoppingRule, TraceRow

__all__ = [
    "AgentInclusion",
    "ConsensusReport",
    "PgExtraState",
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


@dataclass(frozen=True, eq=False)
class StackedIterate:
    """Stacked per-agent state of the decentralized iteration.

    ``v`` and ``prev_v`` are the reflected forward rows for the current and
    previous round; ``bx`` caches ``B(x)`` at the current ``x`` so each step
    costs a single fresh forward evaluation per agent.  ``wx_prev`` caches
    ``W prev_x`` (the previous round's exchange) so each step mixes once;
    when it is None the step computes it.  ``kernels`` holds the agents'
    row-batched operators, built once per run.
    """

    u: np.ndarray
    x: np.ndarray
    prev_x: np.ndarray
    v: np.ndarray
    prev_v: np.ndarray
    bx: np.ndarray
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


def _kernels(agents, state):
    """The state's kernels when they were built for ``agents``, else fresh ones."""
    if state.kernels is not None and state.kernels.source is agents:
        return state.kernels
    return _AgentKernels.build(agents, state.x.shape[1])


def _mixed_prev(mixing, state):
    return state.wx_prev if state.wx_prev is not None else mixing.apply(state.prev_x)


def _check_setup(agents, mixing, x0, tau):
    x0 = np.asarray(x0, dtype=float)
    n = len(agents)
    if mixing.n != n:
        raise ValueError(f"mixing operates on {mixing.n} agents, got {n}")
    if x0.ndim != 2 or x0.shape[0] != n:
        raise ValueError(f"x0 must be (n, h) with n={n}, got {x0.shape}")
    bound = stepsize_bound(mixing, uniform_lipschitz(agents))
    if not 0.0 < tau < bound:
        raise StepSizeError(
            f"step size exceeds (1+lambda_min)/(4L): tau={tau!r} not in (0, {bound!r})"
        )
    return x0


def inclusion_init(agents, mixing, x0, tau, premix=False):
    """Bootstrap the iteration from ``x0`` (one row per agent).

    With ``premix=False`` no communication is needed before the first
    exchange: ``u^1 = x^0 - tau B(x^0)``.  With ``premix=True`` the first
    point is averaged once, ``u^1 = W x^0 - tau B(x^0)``, which corresponds
    to starting the underlying primal-dual method from a nonzero dual point;
    both variants converge to the same solution set.
    """
    x0 = _check_setup(agents, mixing, x0, tau)
    kernels = _AgentKernels.build(agents, x0.shape[1])
    v0 = kernels.forward(x0)
    wx0 = mixing.apply(x0) if premix else None
    u1 = (wx0 if premix else x0) - tau * v0
    x1 = kernels.resolvent(tau, u1)
    bx1 = kernels.forward(x1)
    v1 = 2.0 * bx1 - v0
    return StackedIterate(u=u1, x=x1, prev_x=x0, v=v1, prev_v=v0, bx=bx1,
                          wx_prev=wx0, kernels=kernels)


def inclusion_step(agents, mixing, state, tau):
    """Advance the stacked iterate by one communication round (one exchange)."""
    kernels = _kernels(agents, state)
    wx = mixing.apply(state.x)
    u_new = (wx + state.u - 0.5 * (state.prev_x + _mixed_prev(mixing, state))
             - tau * (state.v - state.prev_v))
    x_new = kernels.resolvent(tau, u_new)
    bx_new = kernels.forward(x_new)
    v_new = 2.0 * bx_new - state.bx
    return StackedIterate(u=u_new, x=x_new, prev_x=state.x, v=v_new, prev_v=state.v, bx=bx_new,
                          wx_prev=wx, kernels=kernels)


def consensus_gap(x):
    """Largest distance from an agent's row to the row average."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return 0.0
    dev = x - x.mean(axis=0)
    return float(np.linalg.norm(dev, axis=1).max(initial=0.0))


@dataclass(frozen=True)
class ConsensusReport:
    """Termination summary of a decentralized run."""

    consensus_gap: float
    fp_residual: float
    distance_to_reference: float | None = None


def _frob_diff(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def _run_rounds(state, step, residual, observe, stop):
    """Step a bootstrapped ``state`` (round 1) until ``stop`` ends the run.

    ``residual(state)`` is a round's fixed-point residual and
    ``observe(state)`` the other trace columns of that round.  The trace's
    ``status`` records why the run stopped; a non-finite residual stops it
    as diverged and the last state with a finite residual is returned.
    """
    trace = ConvergenceTrace()
    last = state
    it = 1
    while True:
        res = residual(state)
        if not math.isfinite(res):
            trace.status = "diverged"
            return last, trace
        trace.append(TraceRow(iteration=it, fp_residual=res, **observe(state)))
        if res <= stop.tol:
            trace.status = "converged"
            return state, trace
        if it >= stop.max_iters:
            trace.status = "budget"
            return state, trace
        last = state
        state = step(state)
        it += 1


def _run_stacked(step, state, stop, reference):
    """:func:`_run_rounds` with the stacked iterates' residual and columns."""

    def observe(s):
        dist = None
        if reference is not None:
            dist = float(np.linalg.norm(s.x.mean(axis=0) - reference))
        return {"consensus_gap_x": consensus_gap(s.x), "distance_to_reference": dist}

    return _run_rounds(state, step, lambda s: _frob_diff(s.x, s.prev_x), observe,
                       stop or StoppingRule())


def inclusion_run(agents, mixing, x0, tau, stop=None, premix=False, reference=None):
    """Run the decentralized iteration until the Frobenius residual meets ``stop``.

    ``reference``, when given, is a single solution row; the trace then
    carries the distance from the row average to it.  Returns the final
    :class:`StackedIterate` and the trace (first row is the bootstrap step).
    """
    state = inclusion_init(agents, mixing, x0, tau, premix=premix)
    return _run_stacked(lambda s: inclusion_step(agents, mixing, s, tau), state, stop, reference)


def final_report(state, reference=None):
    """Consensus summary of a finished run."""
    dist = None
    if reference is not None:
        dist = float(np.linalg.norm(np.asarray(state.x).mean(axis=0) - reference))
    return ConsensusReport(
        consensus_gap=consensus_gap(state.x),
        fp_residual=_frob_diff(state.x, state.prev_x),
        distance_to_reference=dist,
    )


# ---------------------------------------------------------------------------
# explicit product-space reference
# ---------------------------------------------------------------------------

def _psd_sqrt(mat):
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _sqrt_half_complement(mixing):
    """Symmetric square root of ``(I - W) / 2`` per block of the mixing."""
    if hasattr(mixing, "blocks"):
        ops = [(_psd_sqrt((np.eye(m.n) - m.w) / 2.0), lo, hi) for (m, lo, hi) in mixing.blocks()]

        def apply(z):
            return np.concatenate([k @ z[:, lo:hi] for (k, lo, hi) in ops], axis=1)

        return apply
    k = _psd_sqrt((np.eye(mixing.n) - mixing.w) / 2.0)
    return lambda z: k @ z


def product_space_reference(agents, mixing, x0, tau, iterations, premix=False):
    """Iterate the underlying primal-dual method with its explicit coupling.

    Maintains the dual block ``y`` and applies the square root of
    ``(I - W)/2`` directly instead of the communication-friendly recursion:

        x^{k+1} = J_{tau A}(x^k - tau K y^k - tau v^k)
        y^{k+1} = y^k + (1/tau) K (2 x^{k+1} - x^k)

    with ``y^0 = 0`` (or ``y^0 = (2/tau) K x^0`` for the premixed variant,
    which is the same dual shift as ``premix`` in :func:`inclusion_init`).
    Returns the list of ``x`` arrays after each of ``iterations`` steps;
    entry 0 therefore aligns with the state produced by
    :func:`inclusion_init`.
    """
    x = _check_setup(agents, mixing, x0, tau)
    kernels = _AgentKernels.build(agents, x.shape[1])
    kop = _sqrt_half_complement(mixing)
    y = (2.0 / tau) * kop(x) if premix else np.zeros_like(x)
    bx_prev = kernels.forward(x)
    out = []
    for _ in range(iterations):
        bx = kernels.forward(x)
        v = 2.0 * bx - bx_prev
        x_new = kernels.resolvent(tau, x - tau * kop(y) - tau * v)
        y = y + kop(2.0 * x_new - x) / tau
        bx_prev = bx
        x = x_new
        out.append(x)
    return out


# ---------------------------------------------------------------------------
# PG-EXTRA baseline
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PgExtraState:
    """Stacked PG-EXTRA state; ``grad`` caches the smooth gradients at ``x``.

    ``wx_prev`` and ``kernels`` are cached as in :class:`StackedIterate`.
    """

    u: np.ndarray
    x: np.ndarray
    prev_x: np.ndarray
    grad: np.ndarray
    prev_grad: np.ndarray
    wx_prev: np.ndarray | None = None
    kernels: object = field(default=None, repr=False)


def _pg_extra_bound(mixing, lipschitz):
    return (1.0 + mixing.lambda_min) / lipschitz if lipschitz > 0 else float("inf")


def pg_extra_init(agents, mixing, x0, tau, premix=False):
    """Bootstrap PG-EXTRA; agents carry (prox, smooth gradient) pairs."""
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 2 or x0.shape[0] != len(agents):
        raise ValueError(f"x0 must be (n, h), got {x0.shape}")
    bound = _pg_extra_bound(mixing, uniform_lipschitz(agents))
    if not 0.0 < tau < bound:
        raise StepSizeError(f"tau={tau!r} not in (0, {bound!r})")
    kernels = _AgentKernels.build(agents, x0.shape[1])
    g0 = kernels.forward(x0)
    wx0 = mixing.apply(x0) if premix else None
    u1 = (wx0 if premix else x0) - tau * g0
    x1 = kernels.resolvent(tau, u1)
    return PgExtraState(u=u1, x=x1, prev_x=x0, grad=kernels.forward(x1), prev_grad=g0,
                        wx_prev=wx0, kernels=kernels)


def pg_extra_step(agents, mixing, state, tau):
    """One PG-EXTRA round (plain gradient difference, no reflection, one exchange)."""
    kernels = _kernels(agents, state)
    wx = mixing.apply(state.x)
    u_new = (wx + state.u - 0.5 * (state.prev_x + _mixed_prev(mixing, state))
             - tau * (state.grad - state.prev_grad))
    x_new = kernels.resolvent(tau, u_new)
    return PgExtraState(u=u_new, x=x_new, prev_x=state.x,
                        grad=kernels.forward(x_new), prev_grad=state.grad,
                        wx_prev=wx, kernels=kernels)


def pg_extra_run(agents, mixing, x0, tau, stop=None, premix=False, reference=None):
    """Run PG-EXTRA; same trace conventions as :func:`inclusion_run`."""
    state = pg_extra_init(agents, mixing, x0, tau, premix=premix)
    return _run_stacked(lambda s: pg_extra_step(agents, mixing, s, tau), state, stop, reference)
