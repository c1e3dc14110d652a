"""Rounds to tolerance of the decentralized methods on a fixed grid of configs.

Run from anywhere, naming the tree to measure; it prints one JSON object per
line, one line per config and method:

    python3 scripts/rounds_corpus.py --root . > ROUNDS.json

The script puts ``ROOT/src`` first on ``sys.path`` and builds every config of
the grid through ``saddlenet.cli._Setup``, as ``run`` does, then runs alg1
and alg2 (:data:`METHODS`) through ``cli._execute`` at the config's defaults
(``tau = auto``, ``safety = 0.99``, lazy Metropolis mixing, zero start), with
``tol = 1e-10`` and ``max_iters = 40000``.  Each line holds the config, the
method, the rounds, the status and the answer.  Rounds to tolerance are
deterministic, so the grid needs no timing and no repeats.

The grid: ``p = 3`` with ``l1`` weight 0.3; ``d = 0`` with the quadratic or
zero coupling, and ``d = 3`` (a box ``[-1, 1]`` on ``y``) with the bilinear,
quadratic or zero coupling; ``n`` 5, 10 or 20; a ring, or a random graph of
density 0.3 whose graph seed is the config's seed; seeds 1-3.  That is 90
configs, the 54 with a nonzero coupling among them.

Two outputs compare per method, the second against the first (rounds over
rounds): the geometric mean over all configs, over the 54 with a nonzero
coupling and over those with ``d = 0`` and ``d = 3``, the worst ratio, each
config that takes more rounds, each change of status, and the largest
distance between the answers of runs that converged in both:

    python3 scripts/rounds_corpus.py --compare ROUNDS_parent.json ROUNDS.json

and one output sums up per method (configs, total rounds, each status):

    python3 scripts/rounds_corpus.py --totals ROUNDS.json
"""

import argparse
import itertools
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

COUPLINGS = {0: ("quadratic", "zero"), 3: ("bilinear", "quadratic", "zero")}
SIZES = (5, 10, 20)
TOPOLOGIES = ("ring", "random")
SEEDS = (1, 2, 3)
METHODS = ("alg1", "alg2")

CONFIG = """
[problem]
n = {n}
p = 3
d = {d}
prox_f = l1
prox_f_weight = 0.3
{prox_g}coupling = {coupling}
seed = {seed}

[graph]
topology = {topology}
{graph}
[algorithm]
name = {names}

[run]
max_iters = 40000
tol = 1e-10
"""
BOX = "prox_g = box_indicator\nprox_g_lo = -1.0\nprox_g_hi = 1.0\n"


def grid():
    """Every config of the grid as a dict of its varied keys, in a fixed order."""
    for d, couplings in COUPLINGS.items():
        for coupling, n, topology, seed in itertools.product(couplings, SIZES, TOPOLOGIES, SEEDS):
            yield {"d": d, "coupling": coupling, "n": n, "topology": topology, "seed": seed}


def config_text(config):
    return CONFIG.format(n=config["n"], d=config["d"], coupling=config["coupling"], seed=config["seed"],
                         topology=config["topology"], prox_g=BOX if config["d"] else "",
                         graph=f"density = 0.3\nseed = {config['seed']}\n" if config["topology"] == "random"
                         else "", names=", ".join(METHODS))


def measure(root):
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    from saddlenet import cli
    from saddlenet.config import parse_config

    for config in grid():
        setup = cli._Setup(parse_config(config_text(config)), METHODS)
        for name in METHODS:
            result = cli._execute(name, setup)
            answer = np.concatenate([np.atleast_1d(result.x_star), np.atleast_1d(result.y_star)])
            print(json.dumps({"config": config, "method": name, "rounds": result.trace.iterations,
                              "status": result.trace.status, "answer": answer.tolist()}), flush=True)


def load(path):
    """The lines of one output, keyed by (config, method)."""
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            row = json.loads(line)
            out[(json.dumps(row["config"], sort_keys=True), row["method"])] = row
    return out


def label(config):
    return " ".join(f"{k}={v}" for k, v in json.loads(config).items())


def geometric_mean(ratios):
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios)) if ratios else float("nan")


def compare(before_path, after_path):
    before, after = load(before_path), load(after_path)
    if before.keys() != after.keys():
        raise SystemExit("the two outputs do not hold the same configs and methods")
    for method in sorted({m for _, m in before}):
        keys = [k for k in before if k[1] == method]
        ratio = {k: max(after[k]["rounds"], 1) / max(before[k]["rounds"], 1) for k in keys}
        curved = [k for k in keys if json.loads(k[0])["coupling"] != "zero"]
        groups = {"all": keys, "coupling not zero": curved,
                  "coupling not zero, d = 0": [k for k in curved if json.loads(k[0])["d"] == 0],
                  "coupling not zero, d = 3": [k for k in curved if json.loads(k[0])["d"] != 0]}
        worst = max(keys, key=lambda k: ratio[k])
        print(f"{method}: {len(keys)} configs")
        print("  geometric mean of rounds, after / before: "
              + ", ".join(f"{g} {geometric_mean([ratio[k] for k in ks]):.3f}" for g, ks in groups.items()))
        print(f"  worst ratio {ratio[worst]:.3f} ({before[worst]['rounds']} -> {after[worst]['rounds']}, "
              f"{label(worst[0])})")
        losing = [k for k in keys if ratio[k] > 1.0]
        print(f"  configs that take more rounds: {len(losing)}")
        for k in losing:
            print(f"    {label(k[0])}: {before[k]['rounds']} -> {after[k]['rounds']}")
        changed = [k for k in keys if before[k]["status"] != after[k]["status"]]
        print(f"  changes of status: {len(changed)}")
        for k in changed:
            print(f"    {label(k[0])}: {before[k]['status']} -> {after[k]['status']}")
        both = [k for k in keys if before[k]["status"] == after[k]["status"] == "converged"]
        gap = max((max(abs(a - b) for a, b in zip(before[k]["answer"], after[k]["answer"])) for k in both),
                  default=0.0)
        print(f"  largest answer gap where both converged: {gap:.3e} ({len(both)} configs)")


def totals(path):
    rows = load(path)
    for method in sorted({m for _, m in rows}):
        mine = [r for (_, m), r in rows.items() if m == method]
        statuses = Counter(r["status"] for r in mine)
        print(f"{method}: {len(mine)} configs, {sum(r['rounds'] for r in mine)} rounds in total, "
              + ", ".join(f"{s} {c}" for s, c in sorted(statuses.items())))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--root", type=Path, help="the tree to measure")
    mode.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"), help="compare two outputs")
    mode.add_argument("--totals", metavar="OUTPUT", help="sum up one output per method")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
    elif args.totals:
        totals(args.totals)
    else:
        measure(args.root.resolve())


if __name__ == "__main__":
    main()
