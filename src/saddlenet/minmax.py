"""Decentralized solver for convex-concave min-max problems.

``n`` agents hold private convex ``f_i``, ``g_i`` (through proxes) and a
smooth coupling ``phi_i``; the network solves

    min_x max_y  sum_i  f_i(x) + phi_i(x, y) - g_i(y)

at consensus.  Each block mixes over its own matrix (``W1`` for the
minimization variables, ``W2`` for the maximization variables; they may
live on different graphs with the same agents).  Per round and agent the
iteration costs one gradient of ``phi_i``, one prox of each of ``f_i`` and
``g_i``, and one neighbor exchange per block.  In the dual form it runs in,
with ``bx = tau grad_x phi(x, y)`` and ``by = -tau grad_y phi(x, y)``:

    ux = W1 x + ex,                  uy = W2 y + ey
    gx <- gx + (W1 x - x) / 2,       gy <- gy + (W2 y - y) / 2
    x <- prox_{tau f}(ux),           y <- prox_{tau g}(uy)
    ex <- gx - (2 bx - bx_prev),     ey <- gy - (2 by - by_prev)

from ``gx = x^0 - W1 x^0``, ``gy = y^0 - W2 y^0`` and ``e = g - b``.  The
dual sums ``gx``, ``gy`` stand for the eliminated dual block of each
consensus constraint.  ``tau`` is one step or one per agent; agent ``i``'s
must satisfy ``0 < tau_i < (1 + min(lambda_min(W1), lambda_min(W2))) / (4 L_i)``,
its own gate, and with per-agent steps it scales both of its exchanges by
``c_i = tau_i / max tau`` (see :mod:`saddlenet.inclusion`).  One ``tau``
for every agent is gated at ``L = max_i L_i``.

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

from .graphs import BlockMixing
from .inclusion import (
    AgentInclusion,
    _ONE_VERTEX,
    ForbState,
    StackedIterate,
    _chosen_step,
    _product_space_problem,
    _run_stacked,
    _start,
    _step,
    forb_step,
    stepsize_bound,
)
from .operators import combine_couplings, combine_proxes, product_resolvent, saddle_forward
from .trace import _norm

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
    """:func:`~saddlenet.inclusion.stepsize_bound` for two mixings: ``(1 + min lambda_min) / (4 L)``."""
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

    ``x``/``y`` are the agents' rows and ``ux``/``uy`` the points they were
    resolved from; the dual sums and the forward images stay on ``stacked``
    (see :class:`~saddlenet.inclusion.StackedIterate`).
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


def _stacked_setup(problems, mixing, x0, y0):
    """Stacked agents, block mixing and start rows of the min-max problem.

    Checks the per-block shapes; the step gate (inf at ``L = 0``) and its
    sign check of ``L`` are left to the runner.
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
    return stack_agents(problems), stacked_block_mixing(mixing, problems), np.concatenate([x0, y0], axis=1)


def minmax_init(problems, mixing, x0, y0, tau):
    """Bootstrap from per-agent rows ``x0``, ``y0`` (no communication needed)."""
    agents, stacked_mixing, z0 = _stacked_setup(problems, mixing, x0, y0)
    start = _start(agents, stacked_mixing, z0, tau, premix=False, reflect=True)
    return MinMaxState(_step(agents, stacked_mixing, start, tau, reflect=True), problems[0].p,
                       problems)


def minmax_step(problems, mixing, state, tau):
    """Advance both blocks by one communication round (one exchange per block)."""
    kernels = state.stacked.kernels
    agents = kernels.source if kernels is not None and state.problems is problems else stack_agents(problems)
    stacked = _step(agents, stacked_block_mixing(mixing, problems), state.stacked, tau, reflect=True)
    return MinMaxState(stacked, state.p, problems)


def minmax_run(problems, mixing, x0, y0, tau, stop=None, reference=None):
    """Run to the stopping rule and return ``(x*, y*, trace)``.

    ``x*``/``y*`` are the row averages of the final stacked iterate (the
    consensus point).  ``reference`` is an optional ``(x_ref, y_ref)`` pair
    for the distance column.  The trace also carries per-block consensus
    gaps; the residual covers both blocks and their dual sums.
    """
    agents, stacked_mixing, z0 = _stacked_setup(problems, mixing, x0, y0)
    p = problems[0].p
    ref = None if reference is None else np.concatenate(reference)
    state, trace = _run_stacked(agents, stacked_mixing, z0, tau, stop, premix=False, reference=ref,
                                reflect=True, split=p)
    mean = state.x.mean(axis=0)
    return mean[:p], mean[p:], trace


# ---------------------------------------------------------------------------
# reduction to the stacked inclusion
# ---------------------------------------------------------------------------

def stack_agents(problems, lipschitz=None):
    """Per-agent inclusion data on ``z_i = (x_i, y_i)``: blockwise prox and
    the monotone coupling map.  Running the decentralized inclusion on these
    agents with :func:`stacked_block_mixing` reproduces the min-max method.

    ``lipschitz`` replaces the declared constant of the stacked forward
    maps: one number for every agent or one per agent (the config's
    ``problem.lipschitz``).  Agents that share their two proxes (as the
    config's and ``random_saddle_problems``' agents do) share one product
    resolvent.
    """
    resolvents = {}
    out = []
    lips = [None] * len(problems) if lipschitz is None else np.broadcast_to(lipschitz, len(problems)).tolist()
    for prob, lip in zip(problems, lips):
        forward = saddle_forward(prob.coupling)
        if lip is not None:
            forward = dataclasses.replace(forward, lipschitz=float(lip))
        pair = (id(prob.prox_min), id(prob.prox_max))
        if pair not in resolvents:
            resolvents[pair] = product_resolvent(prob.prox_min, prob.prox_max, split=prob.p)
        out.append(AgentInclusion(resolvent=resolvents[pair], forward=forward))
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
    :func:`stack_agents`.  The norm of the coupling is passed in closed form
    rather than computed from the ``(n (p + d))``-square matrix.
    """
    return _product_space_problem(stack_agents(problems, lipschitz=lipschitz),
                                  stacked_block_mixing(mixing, problems),
                                  problems[0].p + problems[0].d)


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


def saddle_residual(problems, x, y):
    """Norm of one forb step at ``(x, y)``: the round of one agent on the summed problem.

    The step is half of forb's gate, ``0.25 / L`` for the summed problem's ``L`` (0.25 at
    ``L = 0``: :func:`~saddlenet.inclusion._chosen_step`).  Zero exactly at saddle points of
    the summed problem; used as a solution certificate for the output of every method.
    """
    central = stack_agents([sum_saddle_problem(problems)])[0]
    tau = _chosen_step(_ONE_VERTEX, central.lipschitz, True, 0.5)
    z = np.concatenate([np.asarray(x, dtype=float), np.asarray(y, dtype=float)])
    new = forb_step(central.resolvent, central.forward, ForbState.start(central.forward, z), tau)
    return _norm(new.x - z)
