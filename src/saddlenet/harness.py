"""Simulated bulk-synchronous network execution with message auditing.

The harness runs an agent-local program in rounds.  Each round: every agent
publishes its outgoing per-block vectors from the *previous* barrier's
state, the harness delivers them along graph edges, then every agent
computes its next state in isolation, seeing only its own state and the
delivered neighbor values.  Inboxes refuse reads from non-neighbors, so an
algorithm that would peek at remote state fails loudly instead of silently
using information it could not have over a real network.

Every delivered vector counts as one message (two per edge per block per
round when everybody publishes).  ``sequential_equivalence`` replays the
same program under a permuted agent schedule and demands bit-identical
final states, which is what "the order agents compute in cannot matter"
means operationally.

One agent-local program at the bottom runs the decentralized solvers of
this package through the harness: each agent runs the stacked solvers' one
round (:func:`saddlenet.inclusion._round`) on its own row, with the
exchange it receives, so its per-agent state matches the dense iterate row
for row, which the tests pin down numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import mixing_blocks
from .inclusion import StackedIterate, _check_setup, _exchange, _round
from .minmax import _stacked_setup
from .operators import _prox_rows, batched_forward

__all__ = [
    "InclusionProgram",
    "MinMaxProgram",
    "NonNeighborReadError",
    "PgExtraProgram",
    "RoundAudit",
    "run_synchronous",
    "sequential_equivalence",
]


class NonNeighborReadError(RuntimeError):
    """An agent tried to read a value that never arrived on an edge."""

    def __init__(self, agent, source, block):
        super().__init__(
            f"agent {agent} attempted to read block {block!r} from non-neighbor {source}"
        )
        self.agent = agent
        self.source = source
        self.block = block
        self.audits = None


@dataclass
class RoundAudit:
    """Communication record of one synchronous round."""

    round_index: int
    messages: int = 0
    bytes: int = 0
    illegal_attempts: int = 0
    messages_by_block: dict = field(default_factory=dict)


class Inbox:
    """Delivered neighbor values for one agent and block.

    Reading any source that is not an actual graph neighbor (or that sent
    nothing this round) raises :class:`NonNeighborReadError` after marking
    the attempt in the round audit.
    """

    def __init__(self, block, agent, values, audit):
        self._block = block
        self._agent = agent
        self._values = values
        self._audit = audit

    def __getitem__(self, source):
        try:
            return self._values[source]
        except KeyError:
            if self._audit is not None:
                self._audit.illegal_attempts += 1
            raise NonNeighborReadError(self._agent, source, self._block) from None

    def __contains__(self, source):
        return source in self._values

    def sources(self):
        return sorted(self._values)


def run_synchronous(program, rounds, order=None, audit=False):
    """Execute ``rounds`` barrier-synchronized rounds of ``program``.

    ``program`` provides ``n``, ``blocks`` (name -> Graph), ``initial_state(i)``,
    ``outgoing(i, state)`` and ``compute(i, state, inboxes, round_index)``.
    ``order`` permutes the per-round compute schedule (results must not
    depend on it).  Returns ``(states, audits)``; ``audits`` has one
    :class:`RoundAudit` per round regardless of ``audit``, but illegal
    reads are only *recorded* there in audit mode (they always raise).
    """
    n = program.n
    if order is None:
        order = range(n)
    order = list(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the agents")

    neighbor_sets = {
        name: [graph.neighbors(i) for i in range(n)] for name, graph in program.blocks.items()
    }
    states = [program.initial_state(i) for i in range(n)]
    audits = []
    for r in range(1, rounds + 1):
        audit_row = RoundAudit(round_index=r)
        outgoing = [program.outgoing(i, states[i]) for i in range(n)]
        inboxes = []
        for i in range(n):
            per_block = {}
            for name in program.blocks:
                values = {}
                for j in neighbor_sets[name][i]:
                    if name in outgoing[j]:
                        vec = outgoing[j][name]
                        values[j] = vec
                        audit_row.messages += 1
                        audit_row.bytes += int(np.asarray(vec).nbytes)
                        audit_row.messages_by_block[name] = (
                            audit_row.messages_by_block.get(name, 0) + 1
                        )
                per_block[name] = Inbox(name, i, values, audit_row if audit else None)
            inboxes.append(per_block)
        new_states = [None] * n
        try:
            for i in order:
                new_states[i] = program.compute(i, states[i], inboxes[i], r)
        except NonNeighborReadError as exc:
            exc.audits = audits + [audit_row]
            raise
        states = new_states
        audits.append(audit_row)
    return states, audits


def _states_equal(a, b):
    if a.keys() != b.keys():
        return False
    return all(np.array_equal(a[k], b[k]) for k in a)


def sequential_equivalence(program, rounds, seed=0):
    """True when a permuted compute schedule reproduces the states bitwise."""
    baseline, _ = run_synchronous(program, rounds)
    n = program.n
    if n > 1:
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        while np.array_equal(perm, np.arange(n)):
            perm = rng.permutation(n)
    else:
        perm = np.arange(n)
    permuted, _ = run_synchronous(program, rounds, order=perm)
    return all(_states_equal(a, b) for a, b in zip(baseline, permuted))


# ---------------------------------------------------------------------------
# agent-local programs for the package's decentralized methods
# ---------------------------------------------------------------------------

def _weight_rows(mixing):
    """Per-agent ``(j, w_ij)`` pairs over the closed neighborhood, in agent-index order."""
    w, g = mixing.w, mixing.graph
    return [
        tuple((j, float(w[i, j])) for j in sorted((*g.neighbors(i), i)))
        for i in range(g.n)
    ]


def _local_mix(i, weights, own, inbox):
    """Weighted neighborhood average, summed in agent-index order."""
    total = 0.0
    for j, w_ij in weights:
        total = total + w_ij * (own if j == i else inbox[j])
    return total


# state-dict key of each StackedIterate row field of an agent; the block names
# ("x", or "x" and "y") hold that block's columns of the current row
_KEYS = {"u": "u", "x": "z", "g": "g", "b": "b", "e": "e"}


class _AgentOps:
    """One agent's own resolvent and ``tau B`` on its row of length ``h``, at its step ``tau``
    (the agent's ``(1,)`` slice of the run's steps).

    Both are the agent's row of the stacked kernels (``_prox_rows`` and
    ``batched_forward`` of the one agent).  The exchange of a new row arrives
    only in the next round's inboxes, so :meth:`images` leaves it out.
    """

    def __init__(self, agent, tau, h):
        rows = _prox_rows([agent.resolvent], h, tau)
        forward = batched_forward([agent.forward], h, scale=tau)
        self.resolvent = lambda u: rows(u[None])[0]
        self.images = lambda x: (None, None, forward(x[None])[0])


class _RecursionProgram:
    """Agent-local form of the stacked dual recursion of :mod:`saddlenet.inclusion`.

    Every block that a round sends (:func:`~saddlenet.graphs.mixing_blocks`)
    publishes the agent's columns of that block on its own graph once per
    round.  Every round, the agent forms the neighbourhood average
    ``(W x)_i`` from the delivered values, its ``half = c_i ((W x)_i - x) / 2``
    and ``w = x + 2 half`` with :func:`~saddlenet.inclusion._exchange` (``(W x)_i``
    up to rounding at equal steps), then runs the stacked solvers' round on
    its row with its own resolvent and forward map at its own step ``tau_i``.
    Without premixing, round 1 first completes the start's dual sum
    ``g = x^0 - w`` from that exchange: the agent learns it in the first
    exchange.  ``c_i = tau_i / max tau`` is fixed before the run, as ``tau`` is.
    """

    def __init__(self, agents, mixing, x0, tau, premix, reflect):
        self.agents = agents
        self.n = len(agents)
        self.x0, self.tau = _check_setup(agents, mixing, x0, tau, reflect)
        self.premix = premix
        self.reflect = reflect
        self._ops = [_AgentOps(a, self.tau[i:i + 1], self.x0.shape[1]) for i, a in enumerate(agents)]
        self._lazy = (self.tau / self.tau.max() * 0.5).tolist()
        layout = mixing_blocks(mixing, self.x0.shape[1])
        self.blocks = {name: m.graph for name, m, _ in layout}
        self._layout = [(name, _weight_rows(m), cols) for name, m, cols in layout]

    def _with_blocks(self, state):
        """``state`` plus each block's columns of the current row ``z``."""
        state.update((name, state["z"][cols]) for name, _, cols in self._layout)
        return state

    def initial_state(self, i):
        z = self.x0[i].copy()
        _, _, b = self._ops[i].images(z)
        g = np.zeros_like(z)
        return self._with_blocks({"u": z, "z": z, "g": g, "b": b, "e": g - b})

    def outgoing(self, i, state):
        return {name: state[name] for name, _, _ in self._layout}

    def compute(self, i, state, inboxes, round_index):
        mix = np.concatenate([_local_mix(i, weights[i], state[name], inboxes[name])
                              for name, weights, _ in self._layout])
        z = state["z"]
        w, half = _exchange(z, mix, self._lazy[i])
        row = StackedIterate(**{f: state[k] for f, k in _KEYS.items()}, tau=self.tau, w=w, half=half)
        if round_index == 1 and not self.premix:
            row.g = row.x - w
            row.e = row.g - row.b
        it = _round(self._ops[i], row, self.reflect)
        return self._with_blocks({k: getattr(it, f) for f, k in _KEYS.items()})


class InclusionProgram(_RecursionProgram):
    """Agent-local execution of the decentralized inclusion iteration.

    After ``r`` rounds each agent's ``x`` equals row ``i`` of the dense
    stacked iterate after ``r - 1`` calls of ``inclusion_step`` following
    ``inclusion_init`` (which runs round 1).  A
    :class:`~saddlenet.graphs.BlockMixing` publishes blocks ``x`` and ``y``
    on their own graphs.
    """

    def __init__(self, agents, mixing, x0, tau, premix=False):
        super().__init__(agents, mixing, x0, tau, premix, reflect=True)


class PgExtraProgram(_RecursionProgram):
    """Agent-local PG-EXTRA (plain gradient difference, same exchange pattern); its gate
    assumes gradient forward maps, unchecked (see :func:`~saddlenet.inclusion.pg_extra_run`)."""

    def __init__(self, agents, mixing, x0, tau, premix=False):
        super().__init__(agents, mixing, x0, tau, premix, reflect=False)


class MinMaxProgram(_RecursionProgram):
    """Agent-local execution of the decentralized min-max iteration.

    Runs the stacked agents and publishes one x-vector on the W1 graph and
    one y-vector on the W2 graph per round; the two blocks may use different
    topologies.  Each agent's ``x`` and ``y`` hold its ``p`` and ``d`` columns;
    with ``d = 0`` there is no y block and nothing travels on the W2 graph.
    """

    def __init__(self, problems, mixing, x0, y0, tau):
        agents, stacked_mixing, z0 = _stacked_setup(problems, mixing, x0, y0)
        super().__init__(agents, stacked_mixing, z0, tau, premix=False, reflect=True)
