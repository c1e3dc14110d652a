"""The benchmark's workloads: seeded inputs, set-up, timed calls and output checks.

Each workload fixes one sized instance (its ``instance_seed``) and draws the
solver's start rows from the benchmark ``--seed``, uniformly in
``[-START_SCALE, START_SCALE]``: every seed poses the same problem from a
perturbed zero start, so rounds to tolerance stay within a few percent across
seeds.  Every call into the package goes through its public functions; the
benchmark opens a span around each call so that a traced run can split the
time by layer without touching the package.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from saddlenet.config import (
    build_block_mixing,
    build_problems,
    build_start,
    declared_lipschitz,
    parse_config,
    resolve_steps,
)
from saddlenet.graphs import certify_mixing, metropolis_mixing, random_connected_graph, ring_graph
from saddlenet.harness import MinMaxProgram, run_synchronous
from saddlenet.inclusion import (
    AgentInclusion,
    consensus_gap,
    inclusion_run,
    stepsize_bound,
    uniform_lipschitz,
)
from saddlenet.instances import random_inclusion_agents, random_saddle_problems
from saddlenet.minmax import (
    AgentSaddleProblem,
    BlockMixing,
    minmax_init,
    minmax_run,
    minmax_step,
    saddle_residual,
    stepsize_bound_pair,
    sum_saddle_problem,
)
from saddlenet.operators import (
    combine_proxes,
    linear_forward,
    product_resolvent,
    saddle_forward,
    zero_prox,
)
from saddlenet.primal_dual import forb_run
from saddlenet.trace import StoppingRule

from tracer import TracedCoupling, TracedForward, TracedMixing, TracedProx

# Output checks.  A solve passes when it stops on tolerance, every block is at
# consensus, the consensus point certifies as a saddle point (min-max) and it
# lies near a centralized reflected forward-backward run on the summed problem.
CONSENSUS_TOL = 1e-6
SADDLE_TOL = 1e-8
REFERENCE_TOL = 1e-6
# The harness tests hold harness and dense iterates to this deviation.
AUDIT_TOL = 1e-12
# Rounds ``saddlenet run --audit`` re-executes at most.
AUDIT_CAP = 2000
REFERENCE_STOP = StoppingRule(tol=1e-12, max_iters=2_000_000)
START_SCALE = 0.1


def start_rows(seed, *shape):
    return np.random.default_rng(seed).uniform(-START_SCALE, START_SCALE, shape)


@dataclass(frozen=True, eq=False)
class Setup:
    """A ready solver call: instance, mixing, start rows, step and stopping rule."""

    problems: list
    mixing: object
    x0: np.ndarray
    y0: np.ndarray | None
    tau: float
    stop: StoppingRule
    certificates: tuple


@dataclass(frozen=True, eq=False)
class Solve:
    """Output of one timed solver call."""

    iterations: int
    trace: object
    point: np.ndarray
    seconds: float
    span: object


@dataclass(frozen=True, eq=False)
class Audit:
    """Output of one timed harness re-execution."""

    rounds: int
    states: list
    audits: list
    seconds: float
    span: object


def distinct_mixings(mixing):
    """The mixing matrices behind ``mixing``, each once."""
    if isinstance(mixing, BlockMixing):
        return (mixing.w1,) if mixing.w1 is mixing.w2 else (mixing.w1, mixing.w2)
    return (mixing,)


def certify_all(mixing):
    return tuple(certify_mixing(m.w, m.graph) for m in distinct_mixings(mixing))


def spectrum(mixing_matrix):
    """``lambda_min`` and the spectral gap ``1 - max(|lambda_2|, |lambda_min|)``."""
    vals = np.linalg.eigvalsh(mixing_matrix.w)
    lam_2 = vals[-2] if len(vals) > 1 else 0.0
    return float(vals[0]), float(1.0 - max(abs(lam_2), abs(vals[0])))


def _forb_reference(resolvent, forward, dim):
    tau = 0.45 / forward.lipschitz if forward.lipschitz > 0 else 1.0
    state, trace = forb_run(resolvent, forward, np.zeros(dim), tau, REFERENCE_STOP)
    return state.x, trace


def setup_failures(setup):
    return [f"mixing certificate failed:\n{c.summary()}" for c in setup.certificates if not c.passed]


def inclusion_failures(x, trace, reference=None):
    """Why an inclusion solve's output (final stacked rows ``x``) is wrong; empty when right."""
    out = []
    if not trace.converged:
        out.append(f"stopped on budget at round {trace.iterations}")
    gap = consensus_gap(x)
    if not gap <= CONSENSUS_TOL:
        out.append(f"consensus gap {gap!r} > {CONSENSUS_TOL!r}")
    if reference is not None:
        dist = float(np.linalg.norm(x.mean(axis=0) - reference))
        if not dist <= REFERENCE_TOL:
            out.append(f"distance to reference {dist!r} > {REFERENCE_TOL!r}")
    return out


def minmax_failures(problems, x, y, trace, reference=None):
    """Why a min-max solve's output is wrong (empty when it is right)."""
    out = []
    if not trace.converged:
        out.append(f"stopped on budget at round {trace.iterations}")
    last = trace.rows[-1]
    for block, gap in (("x", last.consensus_gap_x), ("y", last.consensus_gap_y)):
        if not gap <= CONSENSUS_TOL:
            out.append(f"consensus gap {block} {gap!r} > {CONSENSUS_TOL!r}")
    res = saddle_residual(problems, x, y)
    if not res <= SADDLE_TOL:
        out.append(f"saddle residual {res!r} > {SADDLE_TOL!r}")
    if reference is not None:
        dist = float(np.linalg.norm(np.concatenate([x, y]) - reference))
        if not dist <= REFERENCE_TOL:
            out.append(f"distance to reference {dist!r} > {REFERENCE_TOL!r}")
    return out


class Workload:
    """A sized instance; ``instance_seed`` replaces the sized seed (for robustness checks)."""

    audits = False
    has_reference = True

    def __init__(self, instance_seed=None):
        if instance_seed is not None:
            self.instance_seed = instance_seed


class MinMaxWorkload(Workload):
    """Shared solve, trace and check logic of the two-block workloads."""

    layer = "minmax"

    def __init__(self, instance_seed=None):
        super().__init__(instance_seed)
        self._dense = {}

    def traced(self, setup, tracer):
        problems = [AgentSaddleProblem(TracedProx(p.prox_min, tracer), TracedProx(p.prox_max, tracer),
                                       TracedCoupling(p.coupling, tracer))
                    for p in setup.problems]
        m = setup.mixing
        w1 = TracedMixing(m.w1, tracer)
        w2 = w1 if m.w2 is m.w1 else TracedMixing(m.w2, tracer)
        return replace(setup, problems=problems, mixing=BlockMixing(w1, w2, split=m.split))

    def solve(self, setup, tracer):
        with tracer.span("solve") as span:
            x, y, trace = minmax_run(setup.problems, setup.mixing, setup.x0, setup.y0,
                                     setup.tau, setup.stop)
        return Solve(trace.iterations, trace, np.concatenate([x, y]), span.duration, span)

    def reference(self, setup, tracer):
        with tracer.span("reference"):
            summed = sum_saddle_problem(setup.problems)
            return _forb_reference(product_resolvent(summed.prox_min, summed.prox_max, split=summed.p),
                                   saddle_forward(summed.coupling), summed.p + summed.d)

    def failures(self, setup, solve, reference):
        p = setup.problems[0].p
        return minmax_failures(setup.problems, solve.point[:p], solve.point[p:], solve.trace, reference)

    def audit(self, setup, rounds, tracer):
        """The ``--audit`` re-execution: the first ``rounds`` rounds on the harness."""
        with tracer.span("audit") as span:
            program = MinMaxProgram(setup.problems, setup.mixing, setup.x0, setup.y0, setup.tau)
            states, audits = run_synchronous(program, rounds, audit=True)
        return Audit(rounds, states, audits, span.duration, span)

    def messages_per_round(self, setup):
        m = setup.mixing
        return 2 * len(m.w1.graph.edges) + 2 * len(m.w2.graph.edges)

    def dense_state(self, setup, rounds):
        """Dense iterate after ``rounds`` rounds (bootstrap plus ``rounds - 1`` steps)."""
        if rounds not in self._dense:
            state = minmax_init(setup.problems, setup.mixing, setup.x0, setup.y0, setup.tau)
            for _ in range(rounds - 1):
                state = minmax_step(setup.problems, setup.mixing, state, setup.tau)
            self._dense[rounds] = state
        return self._dense[rounds]

    def audit_failures(self, setup, audit):
        out = []
        dense = self.dense_state(setup, audit.rounds)
        dev = max(max(float(np.abs(s["x"] - dense.x[i]).max()), float(np.abs(s["y"] - dense.y[i]).max()))
                  for i, s in enumerate(audit.states))
        if not dev <= AUDIT_TOL:
            out.append(f"harness deviates from dense iterate by {dev!r} > {AUDIT_TOL!r}")
        illegal = sum(a.illegal_attempts for a in audit.audits)
        if illegal:
            out.append(f"{illegal} illegal reads")
        expected = self.messages_per_round(setup)
        wrong = [a.round_index for a in audit.audits if a.messages != expected]
        if wrong:
            out.append(f"{len(wrong)} rounds without exactly {expected} messages (first {wrong[0]})")
        return out


class Ring5MinMax(MinMaxWorkload):
    """The README ``alg2`` instance, set up through the config layer as the CLI does."""

    name = "ring5-minmax"
    instance_seed = 3
    _CONFIG = """\
[problem]
n = 5
p = 3
d = 3
prox_f = l1
prox_f_weight = 0.3
prox_g = box_indicator
prox_g_lo = -1.0
prox_g_hi = 1.0
coupling = bilinear
seed = {seed}
x0 = {x0}
y0 = {y0}

[graph]
topology = ring

[algorithm]
name = alg2

[run]
max_iters = 100000
tol = 1e-10
"""

    def inputs(self, seed):
        # the config format replicates one start row to every agent
        x0, y0 = (", ".join(repr(float(v)) for v in row) for row in start_rows(seed, 2, 3))
        return self._CONFIG.format(seed=self.instance_seed, x0=x0, y0=y0)

    def setup(self, text, tracer):
        with tracer.span("config"):
            cfg = parse_config(text)
            problems = build_problems(cfg)
            mixing = build_block_mixing(cfg)
            tau, _ = resolve_steps(cfg, mixing, declared_lipschitz(cfg, problems))
            x0, y0 = build_start(cfg)
            stop = StoppingRule(tol=cfg.run.tol, max_iters=cfg.run.max_iters)
        with tracer.span("graphs.certify"):
            certificates = certify_all(mixing)
        return Setup(problems, mixing, x0, y0, tau, stop, certificates)


class Random50MinMaxAudit(MinMaxWorkload):
    """n = 50 min-max on two graphs, then re-executed on the message harness."""

    name = "random50-minmax-audit"
    instance_seed = 7
    audits = True
    has_reference = False

    def inputs(self, seed):
        x0, y0 = start_rows(seed, 2, 50, 3)
        return x0, y0

    def setup(self, start, tracer):
        seed = self.instance_seed
        with tracer.span("graphs.build"):
            gx = random_connected_graph(50, 0.1, seed=seed)
            gy = ring_graph(50)
        with tracer.span("graphs.mixing"):
            mixing = BlockMixing(metropolis_mixing(gx), metropolis_mixing(gy))
        with tracer.span("graphs.certify"):
            certificates = certify_all(mixing)
        with tracer.span("instances.build"):
            problems = random_saddle_problems(50, 3, 3, seed=seed, coupling_kind="quadratic",
                                              prox_min_params={"weight": 0.05},
                                              prox_max_params={"lo": -1.0, "hi": 1.0})
        with tracer.span("steps"):
            tau = 0.9 * stepsize_bound_pair(mixing, max(p.lipschitz for p in problems))
        x0, y0 = start
        return Setup(problems, mixing, x0, y0, tau, StoppingRule(tol=1e-10, max_iters=100_000),
                     certificates)


class Random500Inclusion(Workload):
    """Decentralized inclusion with 500 agents on a sparse random graph."""

    name = "random500-inclusion"
    instance_seed = 11
    N = 500
    EDGE_PROB = 0.02
    layer = "inclusion"
    # The default pool's random boxes do not intersect at this n, and the l1
    # pool's summed weight forces x* = 0; this pool has a unique, non-trivial solution.
    POOL = ("zero", "quadratic")

    def inputs(self, seed):
        return start_rows(seed, self.N, 8)

    def setup(self, x0, tracer):
        seed = self.instance_seed
        with tracer.span("graphs.build"):
            g = random_connected_graph(self.N, self.EDGE_PROB, seed=seed)
        with tracer.span("graphs.mixing"):
            mixing = metropolis_mixing(g)
        with tracer.span("graphs.certify"):
            certificates = certify_all(mixing)
        with tracer.span("instances.build"):
            agents = random_inclusion_agents(self.N, 8, seed, pool=self.POOL)
        with tracer.span("steps"):
            tau = 0.9 * stepsize_bound(mixing, uniform_lipschitz(agents))
        return Setup(agents, mixing, x0, None, tau, StoppingRule(tol=1e-8, max_iters=20_000),
                     certificates)

    def traced(self, setup, tracer):
        agents = [AgentInclusion(TracedProx(a.resolvent, tracer), TracedForward(a.forward, tracer))
                  for a in setup.problems]
        return replace(setup, problems=agents, mixing=TracedMixing(setup.mixing, tracer))

    def solve(self, setup, tracer):
        with tracer.span("solve") as span:
            state, trace = inclusion_run(setup.problems, setup.mixing, setup.x0, setup.tau, setup.stop)
        return Solve(trace.iterations, trace, state.x, span.duration, span)

    def reference(self, setup, tracer):
        """Forward-backward on ``0 in sum_i (A_i + B_i)(x)``; zero resolvents add nothing."""
        with tracer.span("reference"):
            agents = setup.problems
            nonzero = [a.resolvent for a in agents if a.resolvent.kind != "zero"]
            resolvent = combine_proxes(nonzero) if nonzero else zero_prox()
            forward = linear_forward(sum(a.forward.jacobian for a in agents))
            return _forb_reference(resolvent, forward, setup.x0.shape[1])

    def failures(self, setup, solve, reference):
        return inclusion_failures(solve.point, solve.trace, reference)


WORKLOADS = {w.name: w for w in (Ring5MinMax, Random500Inclusion, Random50MinMaxAudit)}
