"""Command-line front end.

Four commands, all driven by an INI experiment config:

* ``run``: execute one algorithm, write ``trace.csv``, ``summary.txt`` and
  ``solution.csv`` (plus ``audit.csv``, the harness check, with ``--audit``).
* ``check-mixing``: build or load a candidate mixing matrix for a graph and
  print the property-by-property certificate.
* ``verify``: run the internal equivalence suite (communication-friendly
  recursions against their explicit primal-dual forms, and the published
  reductions) on the configured instance and report the deviations.
* ``compare``: run several algorithms on the same instance, each at the step
  ``run`` would take, and write an aligned residual table.

Exit codes: 0 success, 1 a check, comparison or ``--audit`` failed its
criterion, 2 invalid configuration or usage, 3 the run did not converge in
budget (a run writes its outputs on 1 and 3 too).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    build_block_mixing,
    build_problems,
    build_start,
    declared_lipschitz,
    load_config,
    resolve_steps,
)
from .graphs import (
    _SCHEMES,
    certify_mixing,
    is_connected,
    mixing_blocks,
    parse_edge_list,
)
from .harness import InclusionProgram, PgExtraProgram, run_synchronous
from .inclusion import (
    _ONE_VERTEX,
    _agent_gates,
    _chosen_step,
    _product_space_problem,
    _round,
    _run_stacked,
    _start,
    _stacked_columns,
    _step_gate,
    inclusion_init,
    inclusion_step,
    product_space_reference,
)
from .minmax import (
    saddle_residual,
    stack_agents,
    stacked_block_mixing,
    sum_saddle_problem,
)
from .operators import ForwardOperator, l1_prox
from .primal_dual import (
    ForbState,
    PdtrState,
    PrimalDualProblem,
    StepSizeError,
    StepSizes,
    _run_primal_dual,
    forb_run,
    forb_step,
    frdr_step,
    pdhg_step,
    pdtr_step,
)
from .trace import StoppingRule, _norm, kept_rows

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3


def _write_atomic(path, text):
    """Write ``text``, a string or an iterable of strings, to ``path`` through a temporary file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _apply_overrides(cfg, args):
    if getattr(args, "seed_override", None) is not None:
        cfg = replace(cfg, problem=replace(cfg.problem, seed=args.seed_override))
    run = cfg.run
    if getattr(args, "max_iters", None) is not None:
        run = replace(run, max_iters=args.max_iters)
    if getattr(args, "tol", None) is not None:
        run = replace(run, tol=args.tol)
    return replace(cfg, run=run)


# Every method: how it runs (stacked rows, forb's one agent on the summed problem, or the
# product space) and whether its round is reflected, which picks its gate (None: no gate);
# the reflected stacked rounds (alg1, alg2) step per agent, each at its own gate
_METHODS = {"alg1": ("stacked", True), "alg2": ("stacked", True), "pg_extra": ("stacked", False),
            "forb": ("forb", True), **dict.fromkeys(("pdtr", "pdhg", "condat_vu"), ("product", None))}


def _check_algorithm(name, setup):
    """Raise :class:`ConfigError` when ``name`` cannot run on ``setup``."""
    if name == "pg_extra" and setup.problems[0].d > 0:
        raise ConfigError("algorithm.name: pg_extra handles minimization only (set d = 0)")
    if name == "pdhg" and not all(_vanishes(a.forward, setup.z0.shape[1]) for a in setup.agents):
        raise ConfigError("algorithm.name: pdhg drops the forward term, so every coupling "
                          "gradient must vanish (coupling = zero)")


def _vanishes(forward, h):
    """Whether ``forward`` is zero everywhere: a zero Jacobian and zero at the origin."""
    return (forward.jacobian is not None and not forward.jacobian.any()
            and not forward(np.zeros(h)).any())


def _reference_point(central, h, tol=1e-12, max_iters=2_000_000):
    """High-accuracy forb run of the summed problem's agent from the origin of R^h (:func:`_chosen_step`).

    Returns the stacked point ``(x, y)`` and whether the run converged.  The
    commands cap ``max_iters`` at 100 times the run's budget.
    """
    tau = _chosen_step(_ONE_VERTEX, central.lipschitz, True, 0.9)
    state, trace = forb_run(central.resolvent, central.forward, np.zeros(h), tau,
                            StoppingRule(tol=tol, max_iters=max_iters))
    return state.x, trace.converged


def _one_or_each(values):
    """One float when every entry of ``values`` is equal, else the tuple: how steps and gates are reported."""
    return values[0] if len(set(values)) == 1 else tuple(values)


class _Setup:
    """What the algorithms of one config run on, built once per command.

    ``lip`` holds each agent's declared constant and ``agent_tau`` the
    resolved steps (:func:`~saddlenet.config.resolve_steps`) as one tuple,
    an entry per agent; ``tau`` is the shared step ``min tau_i``, with
    ``sigma``.  The summed problem's agent (forb, the reference) and the
    product-space problem (pdtr, pdhg, condat_vu) are built on first use.
    Every algorithm in ``names`` is checked before anything runs; the
    reference (the stacked ``(x, y)`` point, or None) runs only if the config
    asks for it and an algorithm is named.
    """

    def __init__(self, cfg, names=()):
        self.problems = build_problems(cfg)
        self.mixing = build_block_mixing(cfg)
        self.lip = declared_lipschitz(cfg, self.problems)
        self.agent_tau, self.sigma = resolve_steps(cfg, self.mixing, self.lip)
        self.tau = min(self.agent_tau)
        self.safety = cfg.algorithm.safety if cfg.algorithm.tau == "auto" else None
        self.stop = StoppingRule(tol=cfg.run.tol, max_iters=cfg.run.max_iters)
        self.z0 = np.concatenate(build_start(cfg), axis=1)
        self.agents = stack_agents(self.problems, lipschitz=self.lip)
        self.block_mixing = stacked_block_mixing(self.mixing, self.problems)
        for name in names:
            _check_algorithm(name, self)
        self.reference, self.reference_converged = (
            _reference_point(self.central, self.z0.shape[1],
                             max_iters=min(2_000_000, 100 * self.stop.max_iters))
            if cfg.run.reference and names else (None, True))

    @cached_property
    def central(self):
        return stack_agents([sum_saddle_problem(self.problems)])[0]

    @cached_property
    def product_space(self):
        return _product_space_problem(self.agents, self.block_mixing, self.z0.shape[1])

    def step(self, name):
        """``name``'s ``tau``, ``sigma`` and gate (None: no gate), for every command.

        alg1 and alg2 step per agent: ``tau`` and the gate are each agent's
        (:func:`_one_or_each`), ``tau = auto`` being :attr:`agent_tau`.  pg_extra
        and forb take one ``tau``, at ``tau = auto`` :func:`_chosen_step` at
        ``safety``.  These four run with ``sigma = 1 / max tau``, whatever
        the config sets.  pdtr, pdhg and condat_vu take the shared :attr:`tau`
        and :attr:`sigma`.
        """
        kind, reflect = _METHODS[name]
        if reflect is None:
            return self.tau, self.sigma, None
        if kind == "stacked" and reflect:
            return (_one_or_each(self.agent_tau), 1.0 / max(self.agent_tau),
                    _one_or_each(_agent_gates(self.agents, self.block_mixing)))
        on = (_ONE_VERTEX, self.central.lipschitz) if kind == "forb" else (self.block_mixing, max(self.lip))
        tau = self.tau if self.safety is None else _chosen_step(*on, reflect, self.safety)
        return tau, 1.0 / tau, _step_gate(*on, reflect)


def _round_mixing(name, setup):
    """The mixing whose blocks a decentralized run exchanges over; None if centralized.

    alg2 sends an x and a y vector; the stacked alg1/pg_extra rows travel as
    one vector when both blocks mix alike (one matrix, or equal graphs and
    weights), and as an x and a y vector when they do not.  Without a y
    block only the x block travels (:func:`~saddlenet.graphs.mixing_blocks`).
    """
    if _METHODS[name][0] != "stacked":
        return None
    w1, w2 = setup.mixing.w1, setup.mixing.w2
    # identity, then graphs, then weights: a gather matrix rebuilds its dense w on each read
    if name != "alg2" and (w1 is w2 or (w1.graph == w2.graph and np.array_equal(w1.w, w2.w))):
        return w1
    return setup.block_mixing


class AlgoResult:
    def __init__(self, name, trace, x_star, y_star, info):
        self.name = name
        self.trace = trace
        self.x_star = x_star
        self.y_star = y_star
        self.info = info


def _execute(name, setup):
    stop, z0, ref = setup.stop, setup.z0, setup.reference
    p = setup.problems[0].p
    split = p if z0.shape[1] > p else None
    (kind, reflect), (tau, sigma, gate) = _METHODS[name], setup.step(name)
    t0 = time.perf_counter()
    info = {"tau": tau, "sigma": sigma, "gate": gate}

    if kind == "stacked":
        # never premixed: the config's start rows are all equal, so W z0 = z0
        state, trace = _run_stacked(setup.agents, setup.block_mixing, z0, tau, stop, False,
                                    ref, reflect, split)
    elif kind == "forb":
        info["note"] = "forb acts on the summed objective; its gate uses that objective's constant"
        state, trace = forb_run(setup.central.resolvent, setup.central.forward, z0[0], tau, stop,
                                observe=None if ref is None else
                                lambda state: {"distance_to_reference": _norm(state.x - ref)})
    else:  # the centralized primal-dual methods on the product-space problem
        problem = setup.product_space
        columns = _stacked_columns(ref, split)
        state, trace = _run_primal_dual(name, problem, (z0.reshape(-1), np.zeros(problem.dual_dim)),
                                        StepSizes(tau, sigma), stop,
                                        lambda states: columns([s.x.reshape(z0.shape) for s in states]))
    with np.errstate(over="ignore", invalid="ignore"):  # the mean of a diverged run's rows is inf or nan
        point = state.x.reshape(-1, z0.shape[1]).mean(axis=0)

    info["wall_time"] = time.perf_counter() - t0
    per_round = None
    round_mixing = _round_mixing(name, setup)
    if round_mixing is not None:
        per_round = sum(2 * len(m.graph.edge_array) for _, m, _ in mixing_blocks(round_mixing, z0.shape[1]))
        # the rows are rounds 1, 2, ..., so the counts are one arithmetic run (a range step is not 0)
        trace.set_column("messages_cum", range(per_round, (trace.iterations + 1) * per_round, per_round)
                         if per_round else [0] * trace.iterations)
    info["messages_per_round"] = per_round
    return AlgoResult(name, trace, point[:p], point[p:], info)


def _solution_csv(result):
    lines = ["block,index,value"]
    for idx, v in enumerate(np.atleast_1d(result.x_star)):
        lines.append(f"x,{idx},{float(v)!r}")
    for idx, v in enumerate(np.atleast_1d(result.y_star)):
        lines.append(f"y,{idx},{float(v)!r}")
    return "\n".join(lines) + "\n"


def _answer_residual(setup, result, spec):
    """:func:`~saddlenet.minmax.saddle_residual` at ``result``'s answer, formatted by ``spec``,
    or why the summed problem cannot be formed; a diverged answer may overflow to inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return spec.format(saddle_residual(setup.problems, result.x_star, result.y_star))
        except ValueError as exc:  # no summation rule for the agents' kinds
            return f"not available ({exc})"


def _summary_text(cfg, result, setup, extra_lines=()):
    trace, stop = result.trace, setup.stop
    blocks = mixing_blocks(setup.mixing, setup.z0.shape[1])
    lambdas = ", ".join(f"{name}: {m.lambda_min!r}" for name, m, _ in blocks)
    lines = [
        f"algorithm = {result.name}",
        f"n = {cfg.problem.n}, p = {cfg.problem.p}, d = {cfg.problem.d}",
        f"tau = {result.info['tau']!r}",
        f"sigma = {result.info.get('sigma')!r}",
    ]
    gate = result.info["gate"]
    # the bound tau is checked against, per agent for alg1 and alg2; none on the product space
    if gate is not None:
        share = max(np.atleast_1d(np.divide(result.info["tau"], gate)).tolist())
        lines += [f"step gate = {gate!r}", f"tau / gate = {share!r}"]
    lines += [
        f"lambda_min(W) = {lambdas}",
        f"iterations = {trace.iterations}",
        f"converged = {'yes' if trace.converged else 'no'} (tol = {stop.tol!r})",
        f"stopped on = {trace.status}",
        f"final fp residual = {trace.final_residual!r}",
        f"saddle residual of the answer = {_answer_residual(setup, result, '{!r}')}",
    ]
    final = trace.rows[-1] if trace.iterations else None
    for name in ("consensus_gap_x", "consensus_gap_y", "distance_to_reference"):
        last = getattr(final, name, None)
        if last is not None:
            lines.append(f"final {name.replace('_', ' ')} = {last!r}")
    if result.info.get("messages_per_round") is not None:
        lines.append(f"messages per round = {result.info['messages_per_round']}")
    if result.info.get("note"):
        lines.append(f"note: {result.info['note']}")
    lines.append(f"wall time seconds = {result.info['wall_time']:.6f}")
    lines.extend(extra_lines)
    return "\n".join(lines) + "\n"


# the harness check's rounds (at most, in run --audit) and relative bound: rounding only
HARNESS_ROUNDS = 50
HARNESS_TOL = 1e-12


def _harness_check(name, setup, rounds):
    """The round audits of ``name``'s agent-local program and, after ``rounds`` rounds,
    ``max|harness - stacked| / max(1, max|stacked|)``; the stacked rounds step
    one start's kernels at ``name``'s step as a run does, so they are bitwise the reported run's."""
    reflect, (tau, _, _) = _METHODS[name][1], setup.step(name)
    program = (InclusionProgram if reflect else PgExtraProgram)(setup.agents, _round_mixing(name, setup),
                                                                setup.z0, tau)
    states, audits = run_synchronous(program, rounds, audit=True)
    stacked = _start(setup.agents, setup.block_mixing, setup.z0, tau, False, reflect)
    for _ in range(rounds):
        stacked = _round(stacked.kernels, stacked, reflect)
    gap = np.abs(np.array([s["z"] for s in states]) - stacked.x).max(initial=0.0)
    return audits, float(gap) / max(1.0, float(np.abs(stacked.x).max(initial=0.0)))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_run(args):
    cfg = _apply_overrides(load_config(args.config), args)
    if len(cfg.algorithm.names) != 1:
        raise ConfigError("algorithm.name: run needs exactly one algorithm")
    name = cfg.algorithm.names[0]
    setup = _Setup(cfg, (name,))
    result = _execute(name, setup)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    extra = [] if setup.reference_converged else ["warning: reference run hit its iteration budget"]
    audit_text, audit_ok = None, True
    if args.audit:
        if _METHODS[name][0] == "stacked":
            audits, deviation = _harness_check(name, setup, min(result.trace.iterations, HARNESS_ROUNDS))
            audit_text = "round,messages,bytes,illegal_attempts\n" + "".join(
                f"{a.round_index},{a.messages},{a.bytes},{a.illegal_attempts}\n" for a in audits)
            audit_ok = deviation <= HARNESS_TOL
            extra.append(f"audit: {len(audits)} rounds on the message harness, "
                         f"{sum(a.illegal_attempts for a in audits)} illegal reads, max deviation from "
                         f"the run {deviation:.3e} (tolerance {HARNESS_TOL:.0e}) "
                         f"{'pass' if audit_ok else 'FAIL'}")
        else:
            extra.append("audit: not applicable to centralized algorithms")
    _write_atomic(outdir / "trace.csv",
                  (line + "\n" for line in result.trace.iter_csv_lines(cfg.run.trace_every)))
    _write_atomic(outdir / "solution.csv", _solution_csv(result))
    summary = _summary_text(cfg, result, setup, extra)
    _write_atomic(outdir / "summary.txt", summary)
    if audit_text is not None:
        _write_atomic(outdir / "audit.csv", audit_text)

    print(summary, end="")
    if not audit_ok:
        return EXIT_CHECK_FAILED
    return EXIT_OK if result.trace.converged else EXIT_NO_CONVERGENCE


def cmd_check_mixing(args):
    if -np.inf < args.tol < 0:  # a non-finite tol is the certificate's to refuse
        raise ValueError("tol must be nonnegative")
    try:
        with open(args.graph, "r", encoding="utf-8") as fh:
            g = parse_edge_list(fh.read())
    except OSError as exc:
        print(f"cannot read graph: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not is_connected(g):
        print("graph is not connected", file=sys.stderr)
        return EXIT_CONFIG

    if (args.scheme is None) == (args.matrix_file is None):
        print("give either --scheme or --matrix-file", file=sys.stderr)
        return EXIT_CONFIG
    if args.matrix_file is not None:
        cert = certify_mixing(np.loadtxt(args.matrix_file, delimiter=",", ndmin=2), g, tol=args.tol)
    elif args.scheme == "laplacian" and args.alpha is None:
        print("laplacian scheme needs --alpha", file=sys.stderr)
        return EXIT_CONFIG
    else:
        _, cert = _SCHEMES[args.scheme](g, args.alpha, args.tol)

    print(cert.summary())
    return EXIT_OK if cert.passed else EXIT_CHECK_FAILED


def _iterates(step, state, rounds):
    """``state`` and the ``rounds`` states that ``step`` makes from it, lazily."""
    yield state
    for _ in range(rounds):
        state = step(state)
        yield state


def _max_gap(pairs):
    """Largest entry-wise gap between the arrays of each ``(a, b)`` pair."""
    return max(float(np.abs(a - b).max(initial=0.0)) for a, b in pairs)


def _verify_rows(setup):
    """The equivalence corpus on the configured instance, at the configured steps: alg1's for the
    recursion (per agent at ``tau = auto``: the oracle takes ``T = diag(tau_i)``), the shared
    :attr:`_Setup.tau` for the product-space reductions."""
    agents, bm = setup.agents, setup.block_mixing
    tau, z0, h = setup.tau, setup.z0, setup.z0.shape[1]
    rows = []

    # decentralized recursion against the explicit product-space iteration
    iters, steps = 200, setup.step("alg1")[0]
    seq = product_space_reference(agents, bm, z0, steps, iters)
    states = _iterates(lambda s: inclusion_step(agents, bm, s, steps), inclusion_init(agents, bm, z0, steps),
                       iters - 1)
    rows.append(("recursion vs explicit coupled form",
                 _max_gap((s.x, x) for s, x in zip(states, seq)), 1e-10))

    # agent-local rounds on the message harness against the stacked recursion,
    # x and y exchanged apart (as alg2 sends them)
    rows.append(("message harness vs stacked recursion",
                 _harness_check("alg2", setup, HARNESS_ROUNDS)[1], HARNESS_TOL))

    # reduction: no forward term -> plain primal-dual (PDHG)
    base = setup.product_space
    nil = replace(base, forward=ForwardOperator(lambda z: np.zeros_like(z), 0.0))
    steps = StepSizes(tau, 1.0 / tau)
    start = PdtrState.start(nil, z0.reshape(-1), np.zeros(nil.dual_dim))
    pairs = zip(_iterates(lambda s: pdtr_step(nil, s, steps), start, 100),
                _iterates(lambda s: pdhg_step(nil, s, steps), start, 100))
    rows.append(("zero forward term vs plain primal-dual",
                 _max_gap(pair for a, b in pairs for pair in ((a.x, b.x), (a.y, b.y))), 1e-14))

    # reduction: no coupling -> reflected forward-backward + proximal point
    resolvent, forward = setup.central.resolvent, setup.central.forward
    free = PrimalDualProblem(
        resolvent=resolvent,
        forward=forward,
        dual_resolvent=l1_prox(0.1),
        k=np.zeros((h, h)),
        k_norm=0.0,
    )
    tau_c = _chosen_step(_ONE_VERTEX, forward.lipschitz, True, 0.9)
    steps_c = StepSizes(tau_c, 1.0)
    z_start, y_start = z0[0], np.linspace(-1.0, 1.0, h)
    pd = _iterates(lambda s: pdtr_step(free, s, steps_c), PdtrState.start(free, z_start, y_start), 100)
    fb = _iterates(lambda s: forb_step(resolvent, forward, s, tau_c),
                   ForbState.start(forward, z_start), 100)
    dual = _iterates(lambda y: free.dual_resolvent(steps_c.sigma, y), y_start, 100)
    rows.append(("no coupling vs reflected step + proximal point",
                 _max_gap(pair for a, b, y in zip(pd, fb, dual) for pair in ((a.x, b.x), (a.y, y))),
                 1e-14))

    # reduction: identity coupling -> three-line reflected splitting
    ident = replace(free, k=np.eye(h), k_norm=1.0)
    gamma = 1.0  # = 1 / sigma
    # 0.9 of frdr's gate gamma / (1 + 2 gamma L), at the L that tau_c = 0.45 / L was chosen at
    tau_i = 0.9 * gamma / (1.0 + 0.9 * gamma / tau_c)
    steps_i = StepSizes(tau_i, 1.0 / gamma)
    start = PdtrState.start(ident, z_start, y_start)
    pairs = zip(_iterates(lambda s: pdtr_step(ident, s, steps_i), start, 50),
                _iterates(lambda s: frdr_step(ident, s, gamma, tau_i), start, 50))
    rows.append(("identity coupling vs reflected three-line form",
                 _max_gap((a.x, b.x) for a, b in pairs), 1e-12))
    return rows


def cmd_verify(args):
    cfg = _apply_overrides(load_config(args.config), args)
    rows = _verify_rows(_Setup(cfg))
    width = max(len(name) for name, _, _ in rows)
    ok = True
    for name, dev, tol in rows:
        good = dev <= tol
        ok = ok and good
        print(f"{name:<{width}}  max deviation {dev:.3e}  tolerance {tol:.0e}  "
              f"{'pass' if good else 'FAIL'}")
    print("verify: " + ("PASS" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_compare(args):
    cfg = _apply_overrides(load_config(args.config), args)
    names = cfg.algorithm.names
    if len(names) < 2:
        raise ConfigError("algorithm.name: compare needs at least two algorithms")
    setup = _Setup(cfg, names)
    results = [_execute(name, setup) for name in names]

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    # row k of every trace is iteration k + 1; each trace keeps its own final row
    residuals = [r.trace.column("fp_residual") for r in results]
    kept = set().union(*(kept_rows(len(res), cfg.run.trace_every) for res in residuals))
    lines = [",".join(["iteration"] + [f"fp_residual_{r.name}" for r in results])]
    for k in sorted(kept):
        lines.append(",".join([str(k + 1)] + [repr(res[k]) if k < len(res) else "" for res in residuals]))
    _write_atomic(outdir / "compare.csv", "\n".join(lines) + "\n")

    width = max(len(r.name) for r in results)
    shared = ", ".join(r.name for r in results if r.info["tau"] == setup.tau) or "no method here"
    table = [f"shared steps: tau = {setup.tau!r}, sigma = {setup.sigma!r} (the step of {shared}; "
             "each row gives its tau)",
             f"budget: tol = {setup.stop.tol!r}, max_iters = {setup.stop.max_iters}"]
    for r in results:
        status = "converged" if r.trace.converged else f"NOT CONVERGED ({r.trace.status})"
        table.append(
            f"{r.name:<{width}}  iterations {r.trace.iterations:>8}  "
            f"final residual {r.trace.final_residual:.3e}  "
            f"saddle residual {_answer_residual(setup, r, '{:.3e}')}  tau {r.info['tau']!r}  {status}"
        )
    text = "\n".join(table) + "\n"
    _write_atomic(outdir / "summary.txt", text)
    print(text, end="")
    return EXIT_OK if any(r.trace.converged for r in results) else EXIT_NO_CONVERGENCE


def main(argv=None):
    parser = argparse.ArgumentParser(prog="saddlenet",
                                     description="decentralized min-max and inclusion solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one algorithm from a config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed-override", type=int, default=None)
    p_run.add_argument("--max-iters", type=int, default=None)
    p_run.add_argument("--tol", type=float, default=None)
    p_run.add_argument("--audit", action="store_true")
    p_run.set_defaults(fn=cmd_run)

    p_chk = sub.add_parser("check-mixing", help="certify a mixing matrix for a graph")
    p_chk.add_argument("graph", help="edge-list file")
    p_chk.add_argument("--scheme", choices=_SCHEMES, default=None)
    p_chk.add_argument("--alpha", type=float, default=None)
    p_chk.add_argument("--matrix-file", default=None)
    p_chk.add_argument("--tol", type=float, default=1e-9, help="certificate tolerance, also for --scheme")
    p_chk.set_defaults(fn=cmd_check_mixing)

    p_ver = sub.add_parser("verify", help="equivalence suite on the configured instance")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--seed-override", type=int, default=None)
    p_ver.set_defaults(fn=cmd_verify)

    p_cmp = sub.add_parser("compare", help="run several algorithms on one instance")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--seed-override", type=int, default=None)
    p_cmp.add_argument("--max-iters", type=int, default=None)
    p_cmp.add_argument("--tol", type=float, default=None)
    p_cmp.set_defaults(fn=cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, StepSizeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
