"""Benchmark of the saddlenet solvers on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload ring5-minmax --seed 1 --seconds 30 --trace 0

One process runs one workload in a closed loop on one thread.  Each pass of
the loop sets the instance up afresh and calls the solver; passes follow each
other until ``--seconds`` have passed.  Every output is checked.
``--trace 0`` reports the end-to-end metrics: on the audit workload an
unmeasured first pass runs the harness re-execution; then each measured pass
is followed by a calibration kernel, and each metric is the median of its
samples in the run, times scaled to a reference machine speed.  ``--trace 1`` runs each call untraced and then
traced through the proxies of ``tracer.py`` and reports the per-layer split.
Every line of standard output is one JSON object: an environment record, a
summary with quartiles and failures (plus the spans when traced), and last
the result.
The exit code is 0 when every output check passed, 1 when one failed and 2
when the package sources are missing.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Each pass of the measured loop sets the instance up afresh, at least once
# and until SETUP_SLICE_S has passed, and then solves with the newest set-up,
# so that set-up samples spread over the whole run like the solves do.
SETUP_SLICE_S = 0.2
SETUP_MAX_REPS = 50

# Machine-speed calibration.  Other tenants of a shared host slow a process
# down, by up to a factor of two, in phases that last from seconds to
# minutes; no number of samples within one run averages that out.  After each
# measured pass, a fixed kernel that does not call saddlenet runs for
# CALIBRATION_SHARE of the pass's time.  The pass's times are reported scaled
# by CALIBRATION_NOMINAL_S over the kernel's mean time: as they would read at
# the reference speed.  The mean, not the median, because a solve's time is
# itself a mean over fast and slow stretches.  CALIBRATION_NOMINAL_S is about
# the kernel's mean time on a 2-vCPU Intel Xeon VM.
CALIBRATION_SHARE = 0.2
CALIBRATION_NOMINAL_S = 0.0115
_CAL_MATRIX = np.random.default_rng(0).uniform(-1.0, 1.0, (8, 8))
_CAL_VECTOR = np.random.default_rng(1).uniform(-1.0, 1.0, 8)

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "iterations": "count",
                    "round_us": "us", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "graphs.build_s": "s", "graphs.mixing_s": "s", "graphs.certify_s": "s",
    "graphs.mix_us": "us", "graphs.mix_calls": "count/round",
    "operators.prox_us": "us", "operators.prox_calls": "count/round",
    "operators.prox_us.quadratic": "us",
    "operators.forward_us": "us", "operators.forward_calls": "count/round",
    "instances.build_s": "s", "config.build_s": "s",
    "minmax.self_us": "us", "inclusion.self_us": "us",
    "trace.rows": "count",
    "harness.self_us": "us", "harness.messages_per_round": "count",
    "harness.bytes_per_round": "bytes", "harness.illegal_reads": "count",
    "audit_round_us": "us",
    "primal_dual.forb_s": "s", "primal_dual.forb_iterations": "count",
    "tracing.overhead_frac": "ratio",
}
# set-up span name -> per-layer metric
SETUP_PHASES = {"graphs.build": "graphs.build_s", "graphs.mixing": "graphs.mixing_s",
                "graphs.certify": "graphs.certify_s", "instances.build": "instances.build_s",
                "config": "config.build_s"}


def describe(values):
    """Median, quartiles, fastest sample and sample count of one metric's samples."""
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "min": values[0],
            "samples": len(values)}


def headline(summary, units):
    """The reported value of each metric: the median of its samples in the run.

    A layer the workload bypasses does no work and reports 0.
    """
    return {name: summary[name]["median"] if name in summary else 0.0 for name in units}


def calibrate(seconds):
    """Run the calibration kernel for ``seconds`` (at least once); its mean time per call."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - t)
    return statistics.fmean(times)


def calibration_kernel():
    """A fixed mix of interpreter work and small numpy calls, like a solver round's."""
    acc, counts = 0.0, {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i
        acc += float((_CAL_MATRIX @ _CAL_VECTOR)[i % 8])
        np.clip(_CAL_VECTOR - 1e-9 * acc, -1.0, 1.0)
    return acc


class Run:
    """State of one benchmark process: the workload, its spans and its verdicts."""

    def __init__(self, workload, seed, seconds):
        from tracer import Tracer

        self.wl = workload
        self.seconds = seconds
        self.inputs = workload.inputs(seed)
        self.tracer = Tracer()
        self.setup = None
        self.setup_times = []
        self.reference = None
        self.reference_trace = None
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def judge(self, what, failures):
        """Count one operation and keep the reasons it failed."""
        self.attempted += 1
        self.failed += bool(failures)
        self.failures += [f"{what}: {f}" for f in failures]

    def fresh_setup(self):
        from workloads import setup_failures

        spent = 0.0
        for _ in range(SETUP_MAX_REPS):
            with self.tracer.span("setup") as span:
                setup = self.wl.setup(self.inputs, self.tracer)
            self.setup_times.append(span.duration)
            spent += span.duration
            if spent >= SETUP_SLICE_S:
                break
        if self.wl.has_reference and self.reference_trace is None:
            point, self.reference_trace = self.wl.reference(setup, self.tracer)
            if self.reference_trace.converged:
                self.reference = point
        self.setup = setup
        self.common = setup_failures(setup)
        if self.wl.has_reference and self.reference is None:
            self.common.append("centralized reference hit its iteration budget")
        return setup

    def solve(self, setup, label, like=None):
        """One solver call; a traced call must reproduce its untraced twin ``like`` bitwise."""
        s = self.wl.solve(setup, self.tracer)
        failures = self.common + self.wl.failures(self.setup, s, self.reference)
        if like is not None and not (s.iterations == like.iterations
                                     and np.array_equal(s.point, like.point)):
            failures.append("does not reproduce the untraced solve bitwise")
        self.judge(label, failures)
        return s

    def audit(self, setup, rounds, label, like=None):
        a = self.wl.audit(setup, rounds, self.tracer)
        failures = self.common + self.wl.audit_failures(self.setup, a)
        if like is not None and not all(np.array_equal(s[k], t[k])
                                        for s, t in zip(a.states, like.states) for k in s):
            failures.append("does not reproduce the untraced audit bitwise")
        self.judge(label, failures)
        return a

    def loop(self, body):
        """Set up and call ``body`` back to back until the measured time is over (at least once)."""
        start = time.perf_counter()
        while True:
            body(self.fresh_setup())
            if time.perf_counter() - start >= self.seconds:
                return

    def end_to_end(self):
        from workloads import AUDIT_CAP

        # The one audit runs in an unmeasured pass first: it checks the
        # harness, and no end-to-end metric times it.
        audit_us = []
        if self.wl.audits:
            s = self.solve(self.fresh_setup(), "solve")
            a = self.audit(self.setup, min(s.iterations, AUDIT_CAP), "audit")
            audit_us.append(1e6 * a.seconds / a.rounds)

        # keep numbers only, so that peak memory does not grow with the number of calls
        samples = {k: [] for k in END_TO_END_UNITS}
        raw = {"setup_s": [], "solve_s": []}
        speeds = []
        start = time.perf_counter()
        while time.perf_counter() - start < self.seconds or not speeds:
            pass_start = time.perf_counter()
            first = len(self.setup_times)
            s = self.solve(self.fresh_setup(), "solve")
            speed = CALIBRATION_NOMINAL_S / calibrate(CALIBRATION_SHARE * (time.perf_counter() - pass_start))
            speeds.append(speed)
            raw["setup_s"] += self.setup_times[first:]
            raw["solve_s"].append(s.seconds)
            samples["setup_s"] += [speed * t for t in self.setup_times[first:]]
            samples["solve_s"].append(speed * s.seconds)
            samples["iterations"].append(s.iterations)
            samples["round_us"].append(speed * 1e6 * s.seconds / s.iterations)
        samples["peak_rss_mb"].append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        summary = {k: describe(v) for k, v in samples.items()}
        summary["uncalibrated"] = {k: describe(v) for k, v in raw.items()}
        summary["speed"] = describe(speeds)
        if audit_us:
            summary["audit_round_us"] = describe(audit_us)
        return headline(summary, END_TO_END_UNITS), summary

    def per_layer(self):
        from workloads import AUDIT_CAP

        samples = {name: [] for name in PER_LAYER_UNITS}
        seconds = {"untraced": [], "traced": []}

        def body(setup):
            traced_setup = self.wl.traced(setup, self.tracer)
            with self.tracer.span("untraced"):
                plain = self.solve(setup, "solve")
            with self.tracer.span("traced"):
                traced = self.solve(traced_setup, "traced solve", like=plain)
            k, span = traced.iterations, traced.span
            for prefix, metric in (("mix", "graphs.mix"), ("prox", "operators.prox"),
                                   ("forward", "operators.forward")):
                count, busy = span.busy(prefix)
                samples[metric + "_us"].append(1e6 * busy / k)
                samples[metric + "_calls"].append(count / k)
            samples["operators.prox_us.quadratic"].append(1e6 * span.busy("prox.quadratic")[1] / k)
            samples[self.wl.layer + ".self_us"].append(1e6 * span.self_time() / k)
            samples["trace.rows"].append(len(traced.trace.rows))
            seconds["untraced"].append(plain.seconds)
            seconds["traced"].append(traced.seconds)
            if self.wl.audits and not samples["audit_round_us"]:
                rounds = min(plain.iterations, AUDIT_CAP)
                with self.tracer.span("untraced"):
                    plain_a = self.audit(setup, rounds, "audit")
                with self.tracer.span("traced"):
                    traced_a = self.audit(traced_setup, rounds, "traced audit", like=plain_a)
                audits = traced_a.audits
                samples["harness.self_us"].append(1e6 * traced_a.span.self_time() / rounds)
                samples["harness.messages_per_round"].append(sum(a.messages for a in audits) / rounds)
                samples["harness.bytes_per_round"].append(sum(a.bytes for a in audits) / rounds)
                samples["harness.illegal_reads"].append(sum(a.illegal_attempts for a in audits))
                samples["audit_round_us"].append(1e6 * plain_a.seconds / rounds)

        self.loop(body)
        for span in self.tracer.spans:
            if span.name in SETUP_PHASES:
                samples[SETUP_PHASES[span.name]].append(span.duration)
        if self.wl.has_reference:
            ref_span = next(s for s in self.tracer.spans if s.name == "reference")
            samples["primal_dual.forb_s"].append(ref_span.duration)
            samples["primal_dual.forb_iterations"].append(self.reference_trace.iterations)
        # each traced call against its untraced twin, run just before it
        samples["tracing.overhead_frac"] = [t / u - 1.0 for t, u in zip(seconds["traced"], seconds["untraced"])]
        summary = {k: describe(v) for k, v in samples.items() if v}
        return headline(summary, PER_LAYER_UNITS), summary


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(run, seed):
    from workloads import distinct_mixings, spectrum

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    mixings = []
    for m in distinct_mixings(run.setup.mixing):
        lam_min, gap = spectrum(m)
        mixings.append({"n": m.n, "edges": len(m.graph.edges), "lambda_min": lam_min,
                        "spectral_gap": gap})
    return {
        "workload": run.wl.name, "seed": seed, "instance_seed": run.wl.instance_seed,
        "cpu": _cpu_model(), "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas, "git_sha": _git_sha(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "tau": run.setup.tau, "mixings": mixings,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "saddlenet" / "__init__.py").is_file():
        print(f"error: saddlenet sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload](), args.seed, args.seconds)
    with run.tracer.span("run"):
        if args.trace:
            metrics, summary = run.per_layer()
            units = PER_LAYER_UNITS
        else:
            metrics, summary = run.end_to_end()
            units = END_TO_END_UNITS
    print(json.dumps({"environment": environment(run, args.seed)}))
    if args.trace:
        print(json.dumps({"spans": [s.record() for s in run.tracer.spans]}))
    print(json.dumps({"summary": summary, "failures": run.failures}))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
