"""Decentralized solver for convex-concave min-max problems.

``n`` agents hold private convex ``f_i``, ``g_i`` (through proxes) and a
smooth coupling ``phi_i``; the network solves

    min_x max_y  sum_i  f_i(x) + phi_i(x, y) - g_i(y)

at consensus.  Each block mixes over its own matrix (``W1`` for the
minimization variables, ``W2`` for the maximization variables; they may
live on different graphs with the same agents).  Per round and agent the
iteration costs one gradient of ``phi_i``, one prox of each of ``f_i`` and
``g_i``, and one neighbor exchange per block:

    vx^k = 2 grad_x phi(x^k, y^k) - grad_x phi(x^{k-1}, y^{k-1})
    ux^{k+1} = W1 x^k + ux^k - (x^{k-1} + W1 x^{k-1}) / 2 - tau (vx^k - vx^{k-1})
    x^{k+1} = prox_{tau f}(ux^{k+1})

and the mirrored y-block with ``vy = -2 grad_y phi + grad_y phi(prev)`` and
``prox_{tau g}``.  Steps must satisfy
``0 < tau < (1 + min(lambda_min(W1), lambda_min(W2))) / (4 L)``.

Stacking ``z_i = (x_i, y_i)`` with the blockwise mixing and the monotone map
``(grad_x phi_i, -grad_y phi_i)`` turns this into the decentralized
inclusion iteration; :func:`stack_agents` builds exactly that reduction and
the test-suite holds the two paths to agreement at machine precision.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .inclusion import AgentInclusion, _run_rounds, consensus_gap
from .operators import (
    batched_forward,
    batched_resolvent,
    combine_couplings,
    combine_proxes,
    product_resolvent,
    saddle_forward,
)
from .primal_dual import ForbState, StepSizeError, forb_step
from .trace import StoppingRule

__all__ = [
    "AgentSaddleProblem",
    "BlockMixing",
    "MinMaxState",
    "minmax_init",
    "minmax_run",
    "minmax_step",
    "product_space_problem",
    "saddle_residual",
    "stack_agents",
    "stacked_block_mixing",
    "stepsize_bound_pair",
    "sum_saddle_problem",
]


@dataclass(frozen=True, eq=False)
class AgentSaddleProblem:
    """One agent's private share of the min-max problem."""

    prox_min: object
    prox_max: object
    coupling: object

    @property
    def p(self):
        return self.coupling.p

    @property
    def d(self):
        return self.coupling.d

    @property
    def lipschitz(self):
        return self.coupling.lipschitz


@dataclass(frozen=True, eq=False)
class BlockMixing:
    """Blockwise mixing: ``W1`` on the first ``split`` columns, ``W2`` after.

    ``split`` is only needed when the pair is used as a single operator on
    stacked ``(x, y)`` rows; the min-max iteration itself applies the two
    matrices directly.
    """

    w1: object
    w2: object
    split: int | None = None

    def __post_init__(self):
        if self.w1.n != self.w2.n:
            raise ValueError("both mixing matrices must have the same number of agents")

    @property
    def n(self):
        return self.w1.n

    @property
    def lambda_min(self):
        return min(self.w1.lambda_min, self.w2.lambda_min)

    def blocks(self):
        if self.split is None:
            raise ValueError("split is not set")
        total = None  # upper bound checked by apply()
        return ((self.w1, 0, self.split), (self.w2, self.split, total))

    def apply(self, z):
        if self.split is None:
            raise ValueError("split must be set to apply a block mixing to stacked rows")
        z = np.asarray(z, dtype=float)
        left = self.w1.w @ np.ascontiguousarray(z[:, : self.split])
        right = self.w2.w @ np.ascontiguousarray(z[:, self.split :])
        return np.concatenate([left, right], axis=1)


def stepsize_bound_pair(mixing_pair, lipschitz):
    """Admissible supremum ``(1 + min lambda_min) / (4 L)`` for two mixings."""
    if lipschitz <= 0:
        raise ValueError("lipschitz must be positive; declare an upper bound")
    return (1.0 + mixing_pair.lambda_min) / (4.0 * lipschitz)


@dataclass(frozen=True, eq=False)
class MinMaxState:
    """Stacked per-agent state; ``grad_x``/``grad_y`` cache the coupling
    gradients at the current ``(x, y)`` so a step needs one fresh gradient.

    ``wx_prev``/``wy_prev`` cache ``W1 prev_x`` and ``W2 prev_y`` (the
    previous round's exchanges) so each step mixes each block once; when
    they are None the step computes them.  ``kernels`` holds the agents'
    row-batched operators, built once per run.
    """

    ux: np.ndarray
    uy: np.ndarray
    x: np.ndarray
    y: np.ndarray
    prev_x: np.ndarray
    prev_y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    prev_vx: np.ndarray
    prev_vy: np.ndarray
    grad_x: np.ndarray
    grad_y: np.ndarray
    wx_prev: np.ndarray | None = None
    wy_prev: np.ndarray | None = None
    kernels: object = field(default=None, repr=False)


@dataclass(frozen=True, eq=False)
class _SaddleKernels:
    """Row-batched proxes and coupling map of the agent list ``source``.

    The gradients come from the stacked map ``saddle_forward`` on
    ``z = (x | y)``, the same kernel the stacked inclusion evaluates, so the
    two iterations run identical arithmetic.
    """

    source: list
    prox_min: object
    prox_max: object
    forward: object

    @classmethod
    def build(cls, problems):
        p, d = problems[0].p, problems[0].d
        return cls(problems,
                   batched_resolvent([prob.prox_min for prob in problems], p),
                   batched_resolvent([prob.prox_max for prob in problems], d),
                   batched_forward([saddle_forward(prob.coupling) for prob in problems], p + d))

    def gradients(self, x, y):
        """``(grad_x phi_i, grad_y phi_i)`` at every agent's ``(x_i, y_i)``."""
        out = self.forward(np.concatenate([x, y], axis=1))
        p = x.shape[1]
        return out[:, :p], -out[:, p:]


def _check_minmax(problems, mixing, x0, y0, tau):
    n = len(problems)
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if mixing.n != n:
        raise ValueError(f"mixing operates on {mixing.n} agents, got {n}")
    p, d = problems[0].p, problems[0].d
    for prob in problems:
        if (prob.p, prob.d) != (p, d):
            raise ValueError("all agents must share the same (p, d)")
    if x0.shape != (n, p) or y0.shape != (n, d):
        raise ValueError(f"expected x0 {(n, p)} and y0 {(n, d)}, got {x0.shape} and {y0.shape}")
    lip = max(prob.lipschitz for prob in problems)
    bound = stepsize_bound_pair(mixing, lip if lip > 0 else _declared(problems))
    if not 0.0 < tau < bound:
        raise StepSizeError(
            f"step size exceeds (1+lambda_min)/(4L): tau={tau!r} not in (0, {bound!r})"
        )
    return x0, y0


def _declared(problems):
    # all-zero couplings carry no curvature; any positive declared bound works
    return 1.0


def minmax_init(problems, mixing, x0, y0, tau):
    """Bootstrap from per-agent rows ``x0``, ``y0`` (no communication needed)."""
    x0, y0 = _check_minmax(problems, mixing, x0, y0, tau)
    kernels = _SaddleKernels.build(problems)
    gx0, gy0 = kernels.gradients(x0, y0)
    vx0 = gx0
    vy0 = -gy0
    ux1 = x0 - tau * vx0
    uy1 = y0 - tau * vy0
    x1 = kernels.prox_min(tau, ux1)
    y1 = kernels.prox_max(tau, uy1)
    gx1, gy1 = kernels.gradients(x1, y1)
    return MinMaxState(
        ux=ux1, uy=uy1, x=x1, y=y1, prev_x=x0, prev_y=y0,
        vx=2.0 * gx1 - gx0, vy=-2.0 * gy1 + gy0, prev_vx=vx0, prev_vy=vy0,
        grad_x=gx1, grad_y=gy1, kernels=kernels,
    )


def minmax_step(problems, mixing, state, tau):
    """Advance both blocks by one communication round (one exchange per block)."""
    kernels = state.kernels
    if kernels is None or kernels.source is not problems:
        kernels = _SaddleKernels.build(problems)
    w1, w2 = mixing.w1, mixing.w2
    wx = w1.apply(state.x)
    wy = w2.apply(state.y)
    wx_prev = state.wx_prev if state.wx_prev is not None else w1.apply(state.prev_x)
    wy_prev = state.wy_prev if state.wy_prev is not None else w2.apply(state.prev_y)
    ux_new = (wx + state.ux - 0.5 * (state.prev_x + wx_prev)
              - tau * (state.vx - state.prev_vx))
    uy_new = (wy + state.uy - 0.5 * (state.prev_y + wy_prev)
              - tau * (state.vy - state.prev_vy))
    x_new = kernels.prox_min(tau, ux_new)
    y_new = kernels.prox_max(tau, uy_new)
    gx_new, gy_new = kernels.gradients(x_new, y_new)
    return MinMaxState(
        ux=ux_new, uy=uy_new, x=x_new, y=y_new, prev_x=state.x, prev_y=state.y,
        vx=2.0 * gx_new - state.grad_x, vy=-2.0 * gy_new + state.grad_y,
        prev_vx=state.vx, prev_vy=state.vy,
        grad_x=gx_new, grad_y=gy_new, wx_prev=wx, wy_prev=wy, kernels=kernels,
    )


def minmax_run(problems, mixing, x0, y0, tau, stop=None, reference=None):
    """Run to the stopping rule and return ``(x*, y*, trace)``.

    ``x*``/``y*`` are the row averages of the final stacked iterate (the
    consensus point).  ``reference`` is an optional ``(x_ref, y_ref)`` pair
    for the distance column.  The trace also carries per-block consensus
    gaps; the Frobenius residual covers both blocks.
    """
    state = minmax_init(problems, mixing, x0, y0, tau)

    def residual(s):
        return float(np.sqrt(np.linalg.norm(s.x - s.prev_x) ** 2
                             + np.linalg.norm(s.y - s.prev_y) ** 2))

    def observe(s):
        dist = None
        if reference is not None:
            dx = s.x.mean(axis=0) - reference[0]
            dy = s.y.mean(axis=0) - reference[1]
            dist = float(np.sqrt(np.linalg.norm(dx) ** 2 + np.linalg.norm(dy) ** 2))
        return {"consensus_gap_x": consensus_gap(s.x), "consensus_gap_y": consensus_gap(s.y),
                "distance_to_reference": dist}

    state, trace = _run_rounds(state, lambda s: minmax_step(problems, mixing, s, tau),
                               residual, observe, stop or StoppingRule())
    return state.x.mean(axis=0), state.y.mean(axis=0), trace


# ---------------------------------------------------------------------------
# reduction to the stacked inclusion
# ---------------------------------------------------------------------------

def stack_agents(problems, lipschitz=None):
    """Per-agent inclusion data on ``z_i = (x_i, y_i)``: blockwise prox and
    the monotone coupling map.  Running the decentralized inclusion on these
    agents with :func:`stacked_block_mixing` reproduces the min-max method.

    ``lipschitz`` replaces the declared constant of every stacked forward
    map (needed when the couplings have vanishing curvature and the step
    gate wants an explicit upper bound instead).
    """
    out = []
    for prob in problems:
        forward = saddle_forward(prob.coupling)
        if lipschitz is not None:
            forward = dataclasses.replace(forward, lipschitz=float(lipschitz))
        out.append(AgentInclusion(
            resolvent=product_resolvent(prob.prox_min, prob.prox_max, split=prob.p),
            forward=forward,
        ))
    return out


def stacked_block_mixing(mixing, problems):
    """The same mixing pair viewed as one operator on stacked rows."""
    return BlockMixing(mixing.w1, mixing.w2, split=problems[0].p)


def stack_state(state):
    """Stacked-iterate view of a :class:`MinMaxState` (same memory layout)."""
    from .inclusion import StackedIterate

    return StackedIterate(
        u=np.concatenate([state.ux, state.uy], axis=1),
        x=np.concatenate([state.x, state.y], axis=1),
        prev_x=np.concatenate([state.prev_x, state.prev_y], axis=1),
        v=np.concatenate([state.vx, state.vy], axis=1),
        prev_v=np.concatenate([state.prev_vx, state.prev_vy], axis=1),
        bx=np.concatenate([state.grad_x, -state.grad_y], axis=1),
    )


def product_space_problem(problems, mixing, lipschitz=None):
    """The stacked formulation with its explicit consensus coupling matrix.

    Flattens the ``n x (p + d)`` iterate row-major and returns a
    :class:`~saddlenet.primal_dual.PrimalDualProblem` whose coupling matrix
    applies the symmetric square root of ``(I - W)/2`` blockwise (``W1`` on
    x-components, ``W2`` on y-components) and whose dual resolvent is the
    identity.  Running any of the centralized primal-dual methods on this
    problem is the un-eliminated form of the decentralized iterations; it
    is also how the comparison tooling applies those baselines to networked
    instances.  ``lipschitz`` overrides the declared constant as in
    :func:`stack_agents`.
    """
    from .inclusion import _psd_sqrt
    from .operators import Prox
    from .primal_dual import PrimalDualProblem

    n = len(problems)
    p, d = problems[0].p, problems[0].d
    h = p + d
    agents = stack_agents(problems, lipschitz=lipschitz)

    k1 = _psd_sqrt((np.eye(n) - mixing.w1.w) / 2.0)
    k2 = _psd_sqrt((np.eye(n) - mixing.w2.w) / 2.0)
    mask_x = np.diag(np.concatenate([np.ones(p), np.zeros(d)]))
    mask_y = np.diag(np.concatenate([np.zeros(p), np.ones(d)]))
    k = np.kron(k1, mask_x) + np.kron(k2, mask_y)
    k_norm = float(np.sqrt((1.0 - mixing.lambda_min) / 2.0))
    resolve_rows = batched_resolvent([a.resolvent for a in agents], h)
    forward_rows = batched_forward([a.forward for a in agents], h)

    def res_fn(t, z):
        return resolve_rows(t, z.reshape(n, h)).reshape(-1)

    def fwd_fn(z):
        return forward_rows(z.reshape(n, h)).reshape(-1)

    from .operators import ForwardOperator
    jac = None
    if all(a.forward.jacobian is not None for a in agents):
        jac = np.zeros((n * h, n * h))
        for i, a in enumerate(agents):
            jac[i * h : (i + 1) * h, i * h : (i + 1) * h] = a.forward.jacobian
    lip = max(a.lipschitz for a in agents)
    from .operators import zero_prox

    return PrimalDualProblem(
        resolvent=Prox(res_fn, kind="stacked", dim=n * h),
        forward=ForwardOperator(fwd_fn, lip, jac),
        dual_resolvent=zero_prox(),
        k=k,
        k_norm=k_norm,
    )


# ---------------------------------------------------------------------------
# centralized reference helpers
# ---------------------------------------------------------------------------

def sum_saddle_problem(problems):
    """Single-agent problem with the summed objective (library kinds only)."""
    return AgentSaddleProblem(
        prox_min=combine_proxes([p.prox_min for p in problems]),
        prox_max=combine_proxes([p.prox_max for p in problems]),
        coupling=combine_couplings([p.coupling for p in problems]),
    )


def saddle_residual(problems, x, y, tau=None):
    """Fixed-point residual of one centralized reflected step at ``(x, y)``.

    Zero exactly at saddle points of the summed problem; used as a
    solution certificate for decentralized output.
    """
    summed = sum_saddle_problem(problems)
    forward = saddle_forward(summed.coupling)
    if tau is None:
        lip = max(summed.coupling.lipschitz, 1e-12)
        tau = 0.25 / lip
    resolvent = product_resolvent(summed.prox_min, summed.prox_max, split=summed.p)
    z = np.concatenate([np.asarray(x, dtype=float), np.asarray(y, dtype=float)])
    new = forb_step(resolvent, forward, ForbState.start(forward, z), tau)
    return float(np.abs(new.x - z).max(initial=0.0))
