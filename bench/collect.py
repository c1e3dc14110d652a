"""Run the benchmark over several seeds and write the aggregate as JSON.

Run from the repository root:

    python3 bench/collect.py --out BENCH_new.json --seconds 30 --seeds 1-10

For each seed, each workload runs once untraced, one process after another
and workload by workload within a seed, so that slow phases of a shared
machine spread over all workloads.  Then each workload runs once traced on
the first seed.  Every end-to-end metric gets the median, quartiles and
spread (interquartile range over median) of its per-run values; the per-layer
metrics come from the traced run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run_one(workload, seed, seconds, trace):
    """One benchmark process; returns its environment record and result."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[0])["environment"], json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--workloads", nargs="+",
                        default=["ring5-minmax", "random500-inclusion", "random50-minmax-audit"])
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least two seeds for quartiles")

    runs = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for w in args.workloads:
            _, result = run_one(w, seed, args.seconds, 0)
            runs[w].append(result)
            print(f"{w} seed {seed}: {json.dumps(result)}", flush=True)
    out = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for w, results in runs.items():
        env, traced = run_one(w, args.seeds[0], args.seconds, 1)
        print(f"{w} traced: {json.dumps(traced)}", flush=True)
        end_to_end = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            end_to_end[name] = {"unit": first["unit"], **spread(values), "values": values}
        out["workloads"][w] = {
            "environment": env,
            "attempted": sum(r["attempted"] for r in results) + traced["attempted"],
            "failed": sum(r["failed"] for r in results) + traced["failed"],
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    failed = sum(w["failed"] for w in out["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
