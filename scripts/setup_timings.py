"""Time the set-up steps of a random-graph inclusion instance and print one line.

Run from the repository root:

    PYTHONPATH=src python3 scripts/setup_timings.py --n 2000

The steps are the ones the ``random500-inclusion`` benchmark times, at any
``n``: the seeded random graph (density 0.02), its certified Metropolis
mixing, a second certificate of that matrix, and ``n`` inclusion agents with
``h = 8``.  Next to the Metropolis mixing it times the certified Laplacian
mixing at ``alpha = max degree + 1``, which exceeds ``lambda_max(L) / 2``
because ``lambda_max(L) <= 2 * max degree``; its certificate is its one
eigensolve.  Each step reports its best wall time over three runs, with one
BLAS thread.  The line is for information; nothing is checked.
"""

import argparse
import os
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from saddlenet.graphs import (  # noqa: E402
    certify_mixing,
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=2000)
    n = parser.parse_args(argv).n
    graph_ms, g = best_ms(lambda: random_connected_graph(n, 0.02, seed=11))
    mixing_ms, mixing = best_ms(lambda: metropolis_mixing(g))
    alpha = max(g.degree(i) for i in range(n)) + 1.0
    laplacian_ms, _ = best_ms(lambda: mixing_from_laplacian(g, alpha))
    cert_ms, _ = best_ms(lambda: certify_mixing(mixing.w, g))
    agents_ms, _ = best_ms(lambda: random_inclusion_agents(n, 8, 11, pool=("zero", "quadratic")))
    print(f"set-up at n = {n} ({len(g.edges)} edges), best of {REPEAT}: graph {graph_ms:.1f} ms, "
          f"Metropolis mixing {mixing_ms:.1f} ms, Laplacian mixing {laplacian_ms:.1f} ms, "
          f"certificate {cert_ms:.1f} ms, instances {agents_ms:.1f} ms")


if __name__ == "__main__":
    main()
