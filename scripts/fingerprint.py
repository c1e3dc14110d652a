"""Print a bitwise fingerprint of the benchmark's solves, one line per workload and seed.

Run from anywhere, naming the tree to fingerprint:

    python3 scripts/fingerprint.py --root .

The script puts ``ROOT/src`` and ``ROOT/bench`` first on ``sys.path`` and
runs every workload of ``ROOT/bench/workloads.py`` untraced on seeds 1-3,
without writing anything.  Each line holds the iterations and SHA-256
prefixes of the final point and of every trace column; a workload that
audits also gets one of the harness states after its audit rounds.  Two
trees that print the same lines ran the same arithmetic.  Nothing is
checked: ``diff`` the output of two trees to compare them.
"""

import argparse
import hashlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

PREFIX = 12
SEEDS = range(1, 4)


def digest(arrays):
    """SHA-256 prefix of the raw bytes of ``arrays``, in order."""
    import numpy as np

    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:PREFIX]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]

    import numpy as np
    from tracer import Tracer
    from workloads import AUDIT_CAP, WORKLOADS

    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            wl, tracer = workload(), Tracer()
            setup = wl.setup(wl.inputs(seed), tracer)
            solve = wl.solve(setup, tracer)
            trace = solve.trace
            cells = [f"{name} seed={seed} iterations={solve.iterations}",
                     f"point={digest([solve.point])}"]
            cells += [f"{col}={digest([np.asarray(trace.column(col))])}" for col in trace.active_columns()]
            if wl.audits:
                audit = wl.audit(setup, min(solve.iterations, AUDIT_CAP), tracer)
                cells.append(f"harness={digest(s[k] for s in audit.states for k in sorted(s))}")
            print(" ".join(cells), flush=True)


if __name__ == "__main__":
    main()
