"""Command-line front end.

Four commands, all driven by an INI experiment config:

* ``run``: execute one algorithm, write ``trace.csv``, ``summary.txt`` and
  ``solution.csv`` (plus ``audit.csv`` with ``--audit``).
* ``check-mixing``: build or load a candidate mixing matrix for a graph and
  print the property-by-property certificate.
* ``verify``: run the internal equivalence suite (communication-friendly
  recursions against their explicit primal-dual forms, and the published
  reductions) on the configured instance and report the deviations.
* ``compare``: run several algorithms on the same instance with the same
  resolved steps and write an aligned residual table.

Exit codes: 0 success, 1 a check or comparison failed its criterion,
2 invalid configuration or usage, 3 the run did not converge in budget
(outputs are still written).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

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
    _metropolis_weights,
    certify_mixing,
    is_connected,
    laplacian,
    mixing_blocks,
    parse_edge_list,
)
from .harness import InclusionProgram, PgExtraProgram, run_synchronous
from .inclusion import (
    _run_stacked,
    _stacked_columns,
    inclusion_init,
    inclusion_step,
    product_space_reference,
)
from .minmax import (
    minmax_init,
    minmax_step,
    product_space_problem,
    stack_agents,
    stack_state,
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
    condat_vu_run,
    forb_run,
    forb_step,
    frdr_step,
    pdhg_run,
    pdhg_step,
    pdtr_run,
    pdtr_step,
)
from .trace import StoppingRule, kept_rows

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3


def _write_atomic(path, text):
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
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


# The decentralized algorithms all run the stacked recursion; per algorithm:
# (reflected forward difference, algorithm.init = premix allowed, needs d = 0)
_DECENTRALIZED = {
    "alg1": (True, True, False),
    "alg2": (True, False, False),
    "pg_extra": (False, True, True),
}


def _round_mixing(name, mixing, problems):
    """The mixing whose blocks a decentralized run exchanges over; None if centralized.

    Without a y block only the x block travels.  Otherwise alg2 sends an x
    and a y vector; the stacked alg1/pg_extra rows travel as one vector when
    both blocks mix alike, and as an x and a y vector when they do not.
    """
    if name not in _DECENTRALIZED:
        return None
    if problems[0].d == 0 or (name != "alg2" and np.array_equal(mixing.w1.w, mixing.w2.w)):
        return mixing.w1
    return stacked_block_mixing(mixing, problems)


class AlgoResult:
    def __init__(self, name, trace, x_star, y_star, info):
        self.name = name
        self.trace = trace
        self.x_star = x_star
        self.y_star = y_star
        self.info = info


def _reference_point(problems, tol=1e-12, max_iters=2_000_000):
    """High-accuracy centralized reflected run on the summed problem.

    Returns the stacked point ``(x, y)`` and whether the run converged.
    """
    central = stack_agents([sum_saddle_problem(problems)])[0]
    lip = central.lipschitz
    tau = 0.45 / lip if lip > 0 else 1.0
    z0 = np.zeros(problems[0].p + problems[0].d)
    state, trace = forb_run(central.resolvent, central.forward, z0, tau,
                            StoppingRule(tol=tol, max_iters=max_iters))
    return state.x, trace.converged


def _setup(cfg):
    """What every algorithm of one config shares: instance, mixing, L, steps, budget, reference.

    ``reference`` is the stacked ``(x, y)`` reference point, or None.
    """
    problems = build_problems(cfg)
    mixing = build_block_mixing(cfg)
    lip = declared_lipschitz(cfg, problems)
    tau, sigma = resolve_steps(cfg, mixing, lip)
    reference, converged = _reference_point(problems) if cfg.run.reference else (None, True)
    return SimpleNamespace(problems=problems, mixing=mixing, lip=lip, tau=tau, sigma=sigma,
                           stop=StoppingRule(tol=cfg.run.tol, max_iters=cfg.run.max_iters),
                           reference=reference, reference_converged=converged)


def _execute(name, cfg, setup):
    problems, mixing, tau, stop = setup.problems, setup.mixing, setup.tau, setup.stop
    p, d = problems[0].p, problems[0].d
    z0 = np.concatenate(build_start(cfg), axis=1)  # the stacked (x, y) start rows
    premix = cfg.algorithm.init == "premix"
    ref = setup.reference
    split = p if d else None
    t0 = time.perf_counter()
    info = {"tau": tau, "sigma": setup.sigma}

    if name in _DECENTRALIZED:
        reflect, premix_allowed, minimization_only = _DECENTRALIZED[name]
        if premix and not premix_allowed:
            allowed = "/".join(k for k, row in _DECENTRALIZED.items() if row[1])
            raise ConfigError(f"algorithm.init: premix is only available for {allowed}")
        if minimization_only and d > 0:
            raise ConfigError(f"algorithm.name: {name} handles minimization only (set d = 0)")
        state, trace = _run_stacked(stack_agents(problems, lipschitz=setup.lip),
                                    stacked_block_mixing(mixing, problems), z0, tau, stop, premix,
                                    ref, reflect, split)
        point = state.x.mean(axis=0)
    elif name == "forb":
        central = stack_agents([sum_saddle_problem(problems)])[0]
        lip = central.lipschitz
        tau_f = tau
        if cfg.algorithm.tau == "auto" and lip > 0:
            tau_f = cfg.algorithm.safety / (2.0 * lip)
            info["tau"] = tau_f
            info["note"] = "forb acts on the summed objective; auto tau uses its constant"

        def observe(state):
            if ref is None:
                return {}
            return {"distance_to_reference": float(np.linalg.norm(state.x - ref))}

        state, trace = forb_run(central.resolvent, central.forward, z0[0], tau_f, stop,
                                observe=observe)
        point = state.x
    else:  # the centralized primal-dual methods on the product-space problem
        problem = product_space_problem(problems, mixing, lipschitz=setup.lip)
        columns = _stacked_columns(ref, split)
        runner = {"pdtr": pdtr_run, "pdhg": pdhg_run, "condat_vu": condat_vu_run}[name]
        state, trace = runner(problem, (z0.reshape(-1), np.zeros(problem.dual_dim)),
                              StepSizes(tau, setup.sigma), stop,
                              observe=lambda state: columns(state.x.reshape(z0.shape)))
        point = state.x.reshape(z0.shape).mean(axis=0)

    info["wall_time"] = time.perf_counter() - t0
    per_round = None
    round_mixing = _round_mixing(name, mixing, problems)
    if round_mixing is not None:
        per_round = sum(2 * len(m.graph.edges) for _, m, _, _ in mixing_blocks(round_mixing))
        trace.rows[:] = [replace(row, messages_cum=row.iteration * per_round) for row in trace.rows]
    info["messages_per_round"] = per_round
    return AlgoResult(name, trace, point[:p], point[p:], info)


def _solution_csv(result):
    lines = ["block,index,value"]
    for idx, v in enumerate(np.atleast_1d(result.x_star)):
        lines.append(f"x,{idx},{float(v)!r}")
    for idx, v in enumerate(np.atleast_1d(result.y_star)):
        lines.append(f"y,{idx},{float(v)!r}")
    return "\n".join(lines) + "\n"


def _summary_text(cfg, result, stop, extra_lines=()):
    trace = result.trace
    rows = trace.rows
    last = rows[-1] if rows else None
    lines = [
        f"algorithm = {result.name}",
        f"n = {cfg.problem.n}, p = {cfg.problem.p}, d = {cfg.problem.d}",
        f"tau = {result.info['tau']!r}",
        f"sigma = {result.info.get('sigma')!r}",
        f"iterations = {trace.iterations}",
        f"converged = {'yes' if trace.converged else 'no'} (tol = {stop.tol!r})",
        f"stopped on = {trace.status}",
        f"final fp residual = {trace.final_residual!r}",
    ]
    if last is not None and last.consensus_gap_x is not None:
        lines.append(f"final consensus gap x = {last.consensus_gap_x!r}")
    if last is not None and last.consensus_gap_y is not None:
        lines.append(f"final consensus gap y = {last.consensus_gap_y!r}")
    if last is not None and last.distance_to_reference is not None:
        lines.append(f"final distance to reference = {last.distance_to_reference!r}")
    if result.info.get("messages_per_round") is not None:
        lines.append(f"messages per round = {result.info['messages_per_round']}")
    if result.info.get("note"):
        lines.append(f"note: {result.info['note']}")
    lines.append(f"wall time seconds = {result.info['wall_time']:.6f}")
    lines.extend(extra_lines)
    return "\n".join(lines) + "\n"


_AUDIT_CAP = 2000


def _audit_run(cfg, name, setup, rounds):
    """Re-execute a decentralized run through the message-passing harness."""
    rounds = min(rounds, _AUDIT_CAP)
    reflect, _, _ = _DECENTRALIZED[name]
    program_type = InclusionProgram if reflect else PgExtraProgram
    program = program_type(stack_agents(setup.problems, lipschitz=setup.lip),
                           _round_mixing(name, setup.mixing, setup.problems),
                           np.concatenate(build_start(cfg), axis=1), setup.tau,
                           premix=cfg.algorithm.init == "premix")
    _, audits = run_synchronous(program, rounds, audit=True)
    lines = ["round,messages,bytes,illegal_attempts"]
    for a in audits:
        lines.append(f"{a.round_index},{a.messages},{a.bytes},{a.illegal_attempts}")
    total_illegal = sum(a.illegal_attempts for a in audits)
    return "\n".join(lines) + "\n", rounds, total_illegal


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_run(args):
    cfg = _apply_overrides(load_config(args.config), args)
    if len(cfg.algorithm.names) != 1:
        raise ConfigError("algorithm.name: run needs exactly one algorithm")
    name = cfg.algorithm.names[0]
    setup = _setup(cfg)
    result = _execute(name, cfg, setup)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    extra = [] if setup.reference_converged else ["warning: reference run hit its iteration budget"]
    audit_text = None
    if args.audit:
        if name in _DECENTRALIZED:
            audit_text, rounds, illegal = _audit_run(cfg, name, setup, result.trace.iterations)
            extra.append(f"audit: {rounds} rounds re-executed on the message harness, "
                         f"{illegal} illegal reads")
        else:
            extra.append("audit: not applicable to centralized algorithms")
    _write_atomic(outdir / "trace.csv",
                  "\n".join(result.trace.csv_lines(cfg.run.trace_every)) + "\n")
    _write_atomic(outdir / "solution.csv", _solution_csv(result))
    summary = _summary_text(cfg, result, setup.stop, extra)
    _write_atomic(outdir / "summary.txt", summary)
    if audit_text is not None:
        _write_atomic(outdir / "audit.csv", audit_text)

    print(summary, end="")
    return EXIT_OK if result.trace.converged else EXIT_NO_CONVERGENCE


def cmd_check_mixing(args):
    try:
        with open(args.graph, "r", encoding="utf-8") as fh:
            g = parse_edge_list(fh.read())
    except OSError as exc:
        print(f"cannot read graph: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not is_connected(g):
        print("graph is not connected", file=sys.stderr)
        return EXIT_CONFIG

    if args.matrix_file is not None:
        w = np.loadtxt(args.matrix_file, delimiter=",", ndmin=2)
    elif args.scheme == "metropolis":
        w = _metropolis_weights(g)
    elif args.scheme == "laplacian":
        if args.alpha is None:
            print("laplacian scheme needs --alpha", file=sys.stderr)
            return EXIT_CONFIG
        w = np.eye(g.n) - laplacian(g) / args.alpha
    else:
        print("give either --scheme or --matrix-file", file=sys.stderr)
        return EXIT_CONFIG

    cert = certify_mixing(w, g, tol=args.tol)
    print(cert.summary())
    return EXIT_OK if cert.passed else EXIT_CHECK_FAILED


def _verify_rows(cfg):
    """The equivalence corpus on the configured instance."""
    problems = build_problems(cfg)
    mixing = build_block_mixing(cfg)
    lip = declared_lipschitz(cfg, problems)
    tau = cfg.algorithm.safety * (1.0 + mixing.lambda_min) / (4.0 * lip)
    x0, y0 = build_start(cfg)
    z0 = np.concatenate([x0, y0], axis=1)
    agents = stack_agents(problems, lipschitz=lip)
    bm = stacked_block_mixing(mixing, problems)
    rows = []

    # decentralized recursion against the explicit product-space iteration
    iters = 200
    seq = product_space_reference(agents, bm, z0, tau, iters,
                                  premix=cfg.algorithm.init == "premix")
    state = inclusion_init(agents, bm, z0, tau, premix=cfg.algorithm.init == "premix")
    dev = float(np.abs(state.x - seq[0]).max(initial=0.0))
    for k in range(1, iters):
        state = inclusion_step(agents, bm, state, tau)
        dev = max(dev, float(np.abs(state.x - seq[k]).max(initial=0.0)))
    rows.append(("recursion vs explicit coupled form", dev, 1e-10))

    # min-max iteration against the stacked inclusion
    mm = minmax_init(problems, mixing, x0, y0, tau)
    st = inclusion_init(agents, bm, z0, tau)
    dev = float(np.abs(stack_state(mm).x - st.x).max(initial=0.0))
    for _ in range(50):
        mm = minmax_step(problems, mixing, mm, tau)
        st = inclusion_step(agents, bm, st, tau)
        dev = max(dev, float(np.abs(stack_state(mm).x - st.x).max(initial=0.0)))
    rows.append(("two-block iteration vs stacked single-block", dev, 1e-14))

    # reduction: no forward term -> plain primal-dual (PDHG)
    base = product_space_problem(problems, mixing, lipschitz=lip)
    nil = PrimalDualProblem(
        resolvent=base.resolvent,
        forward=ForwardOperator(lambda z: np.zeros_like(z), 0.0),
        dual_resolvent=base.dual_resolvent,
        k=base.k,
        k_norm=base.k_norm,
    )
    steps = StepSizes(tau, 1.0 / tau)
    flat0 = z0.reshape(-1)
    a = PdtrState.start(nil, flat0, np.zeros(nil.dual_dim))
    b = PdtrState.start(nil, flat0, np.zeros(nil.dual_dim))
    dev = 0.0
    for _ in range(100):
        a = pdtr_step(nil, a, steps)
        b = pdhg_step(nil, b, steps)
        dev = max(dev, float(np.abs(a.x - b.x).max(initial=0.0)),
                  float(np.abs(a.y - b.y).max(initial=0.0)))
    rows.append(("zero forward term vs plain primal-dual", dev, 1e-14))

    # reduction: no coupling -> reflected forward-backward + proximal point
    central = stack_agents([sum_saddle_problem(problems)])[0]
    resolvent, forward = central.resolvent, central.forward
    hdim = z0.shape[1]
    lip_s = max(forward.lipschitz, 1e-12)
    free = PrimalDualProblem(
        resolvent=resolvent,
        forward=forward,
        dual_resolvent=l1_prox(0.1),
        k=np.zeros((hdim, hdim)),
        k_norm=0.0,
    )
    tau_c = 0.9 / (2.0 * lip_s)
    steps_c = StepSizes(tau_c, 1.0)
    z_start = np.concatenate([x0[0], y0[0]])
    y_start = np.linspace(-1.0, 1.0, hdim)
    pd = PdtrState.start(free, z_start, y_start)
    fb = ForbState.start(forward, z_start)
    ytrack = y_start.copy()
    dev = 0.0
    for _ in range(100):
        pd = pdtr_step(free, pd, steps_c)
        fb = forb_step(resolvent, forward, fb, tau_c)
        ytrack = free.dual_resolvent(steps_c.sigma, ytrack)
        dev = max(dev, float(np.abs(pd.x - fb.x).max(initial=0.0)),
                  float(np.abs(pd.y - ytrack).max(initial=0.0)))
    rows.append(("no coupling vs reflected step + proximal point", dev, 1e-14))

    # reduction: identity coupling -> three-line reflected splitting
    ident = PrimalDualProblem(
        resolvent=resolvent,
        forward=forward,
        dual_resolvent=l1_prox(0.1),
        k=np.eye(hdim),
        k_norm=1.0,
    )
    sigma_i = 1.0
    gamma = 1.0 / sigma_i
    tau_i = 0.9 * gamma / (1.0 + 2.0 * gamma * lip_s)
    steps_i = StepSizes(tau_i, sigma_i)
    a = PdtrState.start(ident, z_start, y_start)
    b = PdtrState.start(ident, z_start, y_start)
    dev = 0.0
    for _ in range(50):
        a = pdtr_step(ident, a, steps_i)
        b = frdr_step(ident, b, gamma, tau_i)
        dev = max(dev, float(np.abs(a.x - b.x).max(initial=0.0)))
    rows.append(("identity coupling vs reflected three-line form", dev, 1e-12))
    return rows


def cmd_verify(args):
    cfg = _apply_overrides(load_config(args.config), args)
    rows = _verify_rows(cfg)
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
    setup = _setup(cfg)
    results = [_execute(name, cfg, setup) for name in names]

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    # row k of every trace is iteration k + 1; each trace keeps its own final row
    kept = set().union(*(kept_rows(len(r.trace.rows), cfg.run.trace_every) for r in results))
    lines = [",".join(["iteration"] + [f"fp_residual_{r.name}" for r in results])]
    for k in sorted(kept):
        lines.append(",".join([str(k + 1)] + [repr(r.trace.rows[k].fp_residual)
                                              if k < len(r.trace.rows) else "" for r in results]))
    _write_atomic(outdir / "compare.csv", "\n".join(lines) + "\n")

    width = max(len(r.name) for r in results)
    table = [f"shared steps: tau = {setup.tau!r}, sigma = {setup.sigma!r}",
             f"budget: tol = {setup.stop.tol!r}, max_iters = {setup.stop.max_iters}"]
    for r in results:
        status = "converged" if r.trace.converged else f"NOT CONVERGED ({r.trace.status})"
        table.append(
            f"{r.name:<{width}}  iterations {r.trace.iterations:>8}  "
            f"final residual {r.trace.final_residual:.3e}  {status}"
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
    p_chk.add_argument("--scheme", choices=("metropolis", "laplacian"), default=None)
    p_chk.add_argument("--alpha", type=float, default=None)
    p_chk.add_argument("--matrix-file", default=None)
    p_chk.add_argument("--tol", type=float, default=1e-9)
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
