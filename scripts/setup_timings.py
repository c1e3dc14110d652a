"""Time the set-up steps of a random-graph inclusion instance and print one line.

Run from the repository root:

    PYTHONPATH=src python3 scripts/setup_timings.py --n 2000

The steps are the ones the ``random500-inclusion`` benchmark times, at any
``n``: the seeded random graph (density 0.02), its certified Metropolis
mixing, a second certificate of that matrix, and ``n`` inclusion agents with
``h = 8``.  Next to the Metropolis mixing it times the lazy Metropolis
mixing, the config default, and the certified Laplacian mixing at ``alpha =
max degree + 1``, which exceeds ``lambda_max(L) / 2`` because ``lambda_max(L)
<= 2 * max degree``.  Each of the three mixings runs one eigensolve: the lazy
one solves the Metropolis matrix and certifies the shift on the mapped spectrum.
Each step reports its best wall time over three runs, with one BLAS thread.
The graph and the Metropolis mixing also report the memory they
retain: what one more build leaves allocated under ``tracemalloc`` (which sees
numpy's arrays), after the timed builds have warmed every cache.  The line is
for information; nothing is checked.
"""

import argparse
import os
import time
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from saddlenet.graphs import (  # noqa: E402
    certify_mixing,
    lazy_metropolis_mixing,
    metropolis_mixing,
    mixing_from_laplacian,
    random_connected_graph,
)
from saddlenet.instances import random_inclusion_agents  # noqa: E402


REPEAT = 3


def best_ms(fn):
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times), out


def retained_mb(fn):
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    kept = fn()  # alive while the memory is read
    after = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    del kept
    return (after - before) / 1e6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=2000)
    n = parser.parse_args(argv).n
    graph_ms, g = best_ms(lambda: random_connected_graph(n, 0.02, seed=11))
    mixing_ms, mixing = best_ms(lambda: metropolis_mixing(g))
    lazy_ms, _ = best_ms(lambda: lazy_metropolis_mixing(g))
    alpha = max(g.degree(i) for i in range(n)) + 1.0
    laplacian_ms, _ = best_ms(lambda: mixing_from_laplacian(g, alpha))
    cert_ms, _ = best_ms(lambda: certify_mixing(mixing.w, g))
    agents_ms, _ = best_ms(lambda: random_inclusion_agents(n, 8, 11, pool=("zero", "quadratic")))
    graph_mb = retained_mb(lambda: random_connected_graph(n, 0.02, seed=11))
    mixing_mb = retained_mb(lambda: metropolis_mixing(g))
    print(f"set-up at n = {n} ({len(g.edge_array)} edges), best of {REPEAT}: "
          f"graph {graph_ms:.1f} ms ({graph_mb:.1f} MB retained), "
          f"Metropolis mixing {mixing_ms:.1f} ms ({mixing_mb:.1f} MB retained), "
          f"lazy Metropolis mixing {lazy_ms:.1f} ms, Laplacian mixing {laplacian_ms:.1f} ms, "
          f"certificate {cert_ms:.1f} ms, instances {agents_ms:.1f} ms")


if __name__ == "__main__":
    main()
