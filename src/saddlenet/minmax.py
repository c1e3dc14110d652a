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
inclusion iteration, and that is how it runs: :func:`stack_agents` and
:func:`stacked_block_mixing` build the reduction, the functions below run
the stacked recursion of :mod:`saddlenet.inclusion` on it, and
:class:`MinMaxState` is a two-block view of the stacked iterate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .graphs import BlockMixing, mixing_blocks
from .inclusion import (
    AgentInclusion,
    StackedIterate,
    _AgentKernels,
    _psd_sqrt,
    _run_stacked,
    _start,
    _step,
    stepsize_bound,
    uniform_lipschitz,
)
from .operators import (
    ForwardOperator,
    Prox,
    combine_couplings,
    combine_proxes,
    product_resolvent,
    saddle_forward,
    zero_prox,
)
from .primal_dual import ForbState, PrimalDualProblem, forb_step

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


def stepsize_bound_pair(mixing_pair, lipschitz):
    """Admissible supremum ``(1 + min lambda_min) / (4 L)`` for two mixings."""
    return stepsize_bound(mixing_pair, lipschitz)


def _block_columns(name, block):
    """Property: block ``"x"`` (columns ``:p``) or ``"y"`` of the stacked field ``name``."""

    def get(self):
        rows = getattr(self.stacked, name)
        return rows[:, : self.p] if block == "x" else rows[:, self.p :]

    return property(get)


@dataclass(frozen=True, eq=False)
class MinMaxState:
    """Two-block view of a stacked iterate: columns ``:p`` are x, the rest y.

    ``problems`` is the agent list the stacked agents (the kernels'
    ``source``) were built from; steps on the same list reuse them.
    """

    stacked: StackedIterate
    p: int
    problems: list = field(default=None, repr=False)

    x = _block_columns("x", "x")
    y = _block_columns("x", "y")
    ux = _block_columns("u", "x")
    uy = _block_columns("u", "y")
    prev_x = _block_columns("prev_x", "x")
    prev_y = _block_columns("prev_x", "y")


def _stacked_setup(problems, mixing, x0, y0):
    """Stacked agents, block mixing and start rows of the min-max problem.

    Checks the per-block shapes; the stacked step gate is left to the caller.
    """
    n = len(problems)
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    p, d = problems[0].p, problems[0].d
    for prob in problems:
        if (prob.p, prob.d) != (p, d):
            raise ValueError("all agents must share the same (p, d)")
    if x0.shape != (n, p) or y0.shape != (n, d):
        raise ValueError(f"expected x0 {(n, p)} and y0 {(n, d)}, got {x0.shape} and {y0.shape}")
    # all-zero couplings carry no curvature; any positive declared bound works
    declared = None if max(prob.lipschitz for prob in problems) > 0 else 1.0
    agents = stack_agents(problems, lipschitz=declared)
    return agents, stacked_block_mixing(mixing, problems), np.concatenate([x0, y0], axis=1)


def minmax_init(problems, mixing, x0, y0, tau):
    """Bootstrap from per-agent rows ``x0``, ``y0`` (no communication needed)."""
    agents, stacked_mixing, z0 = _stacked_setup(problems, mixing, x0, y0)
    return MinMaxState(_start(agents, stacked_mixing, z0, tau, premix=False, reflect=True),
                       problems[0].p, problems)


def minmax_step(problems, mixing, state, tau):
    """Advance both blocks by one communication round (one exchange per block)."""
    agents = state.stacked.kernels.source if state.problems is problems else stack_agents(problems)
    stacked = _step(agents, stacked_block_mixing(mixing, problems), state.stacked, tau, reflect=True)
    return MinMaxState(stacked, state.p, problems)


def minmax_run(problems, mixing, x0, y0, tau, stop=None, reference=None):
    """Run to the stopping rule and return ``(x*, y*, trace)``.

    ``x*``/``y*`` are the row averages of the final stacked iterate (the
    consensus point).  ``reference`` is an optional ``(x_ref, y_ref)`` pair
    for the distance column.  The trace also carries per-block consensus
    gaps; the Frobenius residual covers both blocks.
    """
    agents, stacked_mixing, z0 = _stacked_setup(problems, mixing, x0, y0)
    p = problems[0].p
    ref = None if reference is None else np.concatenate(reference)
    state, trace = _run_stacked(lambda s: _step(agents, stacked_mixing, s, tau, reflect=True),
                                _start(agents, stacked_mixing, z0, tau, premix=False, reflect=True),
                                stop, ref, split=p)
    mean = state.x.mean(axis=0)
    return mean[:p], mean[p:], trace


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
    """The same mixing pair viewed as one operator on stacked rows (``split = p``)."""
    p = problems[0].p
    return mixing if mixing.split == p else BlockMixing(mixing.w1, mixing.w2, split=p)


def stack_state(state):
    """The stacked iterate behind a :class:`MinMaxState`."""
    return state.stacked


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
    n = len(problems)
    p, d = problems[0].p, problems[0].d
    h = p + d
    agents = stack_agents(problems, lipschitz=lipschitz)

    k = np.zeros((n * h, n * h))
    for _, m, lo, hi in mixing_blocks(stacked_block_mixing(mixing, problems)):
        mask = np.zeros(h)
        mask[lo:hi] = 1.0
        k += np.kron(_psd_sqrt((np.eye(n) - m.w) / 2.0), np.diag(mask))
    k_norm = float(np.sqrt((1.0 - mixing.lambda_min) / 2.0))
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
