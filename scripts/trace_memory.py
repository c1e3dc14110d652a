"""Measure what a long run's trace holds and print one line.

Run from the repository root:

    PYTHONPATH=src python3 scripts/trace_memory.py --rounds 100000

A ``run_loop`` takes ``--rounds`` cheap rounds, each with a fresh residual
and two observer columns (one handed over as a numpy array, one as a list),
the shape of a min-max run's trace.  ``tracemalloc`` reports the bytes per
row the trace retains and the bytes that reading ``trace.rows[-1]``
allocates.  The line is for information; nothing is checked.
"""

import argparse
import tracemalloc
from types import SimpleNamespace

import numpy as np

from saddlenet.trace import StoppingRule, run_loop


def observe(states):
    ks = np.array([s.k for s in states], dtype=float)
    return {"consensus_gap_x": 1.0 / ks, "consensus_gap_y": [0.5 / s.k for s in states]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=100_000)
    rounds = parser.parse_args(argv).rounds
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    _, trace = run_loop(lambda s: SimpleNamespace(x=s.x, k=s.k + 1),
                        SimpleNamespace(x=np.zeros(1), k=0), StoppingRule(tol=0.0, max_iters=rounds),
                        lambda old, new: 2.0 / new.k, observe)
    retained = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    trace.rows[-1]
    read = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    print(f"trace of {trace.iterations} rounds, {len(trace.active_columns())} columns: "
          f"{retained / trace.iterations:.1f} B per row retained, rows[-1] allocates {read} B")


if __name__ == "__main__":
    main()
