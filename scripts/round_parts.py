"""Time the parts of one solver round on each benchmark workload and print a table.

Run from anywhere, naming the tree to measure:

    python3 scripts/round_parts.py --root .

The script puts ``ROOT/src`` and ``ROOT/bench`` first on ``sys.path`` and
sets up every workload of ``ROOT/bench/workloads.py`` on the benchmark's
seed-1 instance, without writing anything.  It builds the stacked agents,
mixing and kernels as the workload's solve does, runs ``WARM_ROUNDS``
rounds, and then times, on that state, each part of a round:

* ``exchange``: ``mixing.apply`` of the rows (both blocks of a two-graph mixing);
* ``forward``: the batched ``tau B`` of the rows (``tau_i B_i`` with per-agent steps);
* ``images``: the kernels' images of the rows (the exchange, ``c (W x - x) / 2``
  and ``tau B``; on the one-product kernel one matrix product);
* ``resolvent``: the batched resolvent, built at the run's step;
* ``dual``: the dual update ``e = g - (2 b - b_prev)``;
* ``residual``: the run's stopping residual, ``||(x_new - x_old, half_old)||_F``
  (a round adds the old ``half`` to the dual sum ``g``);
* ``row``: one observed trace row, in a chunk of the size a run observes;
* ``round``: one whole ``inclusion._round``.

Each cell is the best over ``REPEAT`` batches of the mean µs per call, with
one BLAS thread; the parts' batches take turns.  The parts overlap (``images`` holds the exchange and the
forward, ``round`` holds all but the residual and the row), and the
benchmark's operator proxies see none of them, so this is where a round's
time shows.  Nothing is checked.
"""

import argparse
import os
import sys
import timeit
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

REPEAT = 15
WARM_ROUNDS = 100
BATCH_S = 0.02
PARTS = ("exchange", "forward", "images", "resolvent", "dual", "residual", "row", "round")


def best_us(fns):
    """Best over ``REPEAT`` batches of the mean µs of one call of each function.

    A batch lasts about ``BATCH_S``.  The batches of all functions take turns,
    so that each function is sampled across the same stretch of machine speed.
    """
    numbers = {k: max(1, int(BATCH_S / max(timeit.timeit(fn, number=1), 1e-7))) for k, fn in fns.items()}
    best = dict.fromkeys(fns, float("inf"))
    for _ in range(REPEAT):
        for k, fn in fns.items():
            best[k] = min(best[k], 1e6 * timeit.timeit(fn, number=numbers[k]) / numbers[k])
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    root = parser.parse_args(argv).root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]

    from saddlenet import inclusion, trace
    from saddlenet.minmax import _stacked_setup
    from saddlenet.operators import batched_forward
    from tracer import Tracer
    from workloads import WORKLOADS

    print(f"round parts (µs, best of {REPEAT}, one BLAS thread, seed-1 instance, "
          f"after {WARM_ROUNDS} rounds)")
    print(f"{'workload':<24}{'kernels':<12}" + "".join(f"{part:>10}" for part in PARTS), flush=True)
    for name, workload in WORKLOADS.items():
        wl = workload()
        setup = wl.setup(wl.inputs(1), Tracer())
        if setup.y0 is None:
            agents, mixing, z0, split = setup.problems, setup.mixing, setup.x0, None
        else:
            agents, mixing, z0 = _stacked_setup(setup.problems, setup.mixing, setup.x0, setup.y0)
            split = setup.problems[0].p
        state = inclusion._start(agents, mixing, z0, setup.tau, premix=False, reflect=True)
        kernels, tau, h = state.kernels, state.tau, z0.shape[1]
        for _ in range(WARM_ROUNDS):
            state = inclusion._round(kernels, state, True)
        new = inclusion._round(kernels, state, True)
        forward = batched_forward([a.forward for a in agents], h, scale=tau)
        columns = inclusion._stacked_columns(None, split)
        chunk = [new.x] * min(trace.CHUNK_ROWS, trace.CHUNK_BYTES // new.x.nbytes)
        x, u = state.x, new.u
        times = best_us({
            "exchange": lambda: mixing.apply(x),
            "forward": lambda: forward(x),
            "images": lambda: kernels.images(x),
            "resolvent": lambda: kernels.resolvent(u),
            "dual": lambda: inclusion._dual_step(new.g, new.b, state.b, True),
            "residual": lambda: trace._norm(new.x - state.x, state.half),
            "row": lambda: columns(chunk),
            "round": lambda: inclusion._round(kernels, state, True),
        })
        times["row"] /= len(chunk)
        print(f"{name:<24}{type(kernels).__name__.lstrip('_'):<12}"
              + "".join(f"{times[part]:>10.1f}" for part in PARTS), flush=True)


if __name__ == "__main__":
    main()
