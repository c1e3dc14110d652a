"""The trace observers of the stacked runs, held bitwise to their references.

One observer pass forms the row mean and the squared deviations once per
row of the trace.  Each column it reports must equal, bit for bit, what the
public references compute on the same rows: :func:`consensus_gap` per block,
``np.linalg.norm`` of the mean's distance to the reference, and
``np.linalg.norm`` of the step for the residual.
"""

import numpy as np
import pytest

from saddlenet.graphs import BlockMixing, metropolis_mixing, random_connected_graph, ring_graph
from saddlenet.inclusion import (
    _stacked_columns,
    consensus_gap,
    inclusion_init,
    inclusion_run,
    inclusion_step,
    stepsize_bound,
    uniform_lipschitz,
)
from saddlenet.instances import random_inclusion_agents, random_saddle_problems
from saddlenet.minmax import minmax_init, minmax_run, minmax_step, stepsize_bound_pair
from saddlenet.trace import StoppingRule

ROUNDS = 30


def reference_columns(x, reference, split):
    """The trace columns from the public references, one call per block."""
    if split is None:
        out = {"consensus_gap_x": consensus_gap(x)}
    else:
        out = {"consensus_gap_x": consensus_gap(x[:, :split]),
               "consensus_gap_y": consensus_gap(x[:, split:])}
    if reference is not None:
        out["distance_to_reference"] = float(np.linalg.norm(x.mean(axis=0) - reference))
    return out


def assert_bitwise(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert np.float64(got[name]).tobytes() == np.float64(want[name]).tobytes(), name


# (n, p, d): one agent, empty blocks on either side, blocks wider than 8 columns
SHAPES = [(1, 3, 2), (2, 0, 3), (2, 3, 0), (3, 1, 1), (5, 3, 3), (7, 9, 2),
          (7, 2, 11), (12, 17, 10), (40, 8, 8), (33, 5, 0)]


@pytest.mark.parametrize("n, p, d", SHAPES)
@pytest.mark.parametrize("blocked", [False, True])
@pytest.mark.parametrize("with_reference", [False, True])
def test_stacked_columns_are_bitwise_the_references(n, p, d, blocked, with_reference):
    rng = np.random.default_rng(100 * n + 10 * p + d)
    split = p if blocked else None
    for scale in (1e-9, 1.0, 1e6):
        x = scale * rng.standard_normal((n, p + d)) + rng.uniform(-3.0, 3.0, p + d)
        reference = rng.standard_normal(p + d) if with_reference else None
        got = _stacked_columns(reference, split)(x)
        assert_bitwise(got, reference_columns(x, reference, split))


def manual_rows(init, step, xs_of, count):
    """The stacked ``x`` after each of ``count`` rounds, the round-0 rows first."""
    state = init()
    xs = [xs_of(state)]
    for _ in range(count - 1):
        state = step(state)
        xs.append(xs_of(state))
    return xs


def assert_trace_matches(trace, x0, xs, reference, split):
    assert trace.status == "budget" and len(trace.rows) == len(xs) == ROUNDS
    prev = x0
    for k, (row, x) in enumerate(zip(trace.rows, xs), start=1):
        assert row.iteration == k
        want = reference_columns(x, reference, split)
        got = {name: getattr(row, name) for name in want}
        assert_bitwise(got, want)
        assert_bitwise({"r": row.fp_residual}, {"r": float(np.linalg.norm(x - prev))})
        prev = x


@pytest.mark.parametrize("premix", [False, True])
def test_inclusion_run_rows_are_the_references_of_a_manual_loop(premix):
    n, h = 9, 4
    agents = random_inclusion_agents(n, h, seed=3, pool=("zero", "quadratic"))
    mixing = metropolis_mixing(random_connected_graph(n, 0.3, seed=3))
    tau = 0.9 * stepsize_bound(mixing, uniform_lipschitz(agents))
    x0 = np.random.default_rng(4).uniform(-1.0, 1.0, (n, h))
    reference = np.random.default_rng(5).standard_normal(h)
    _, trace = inclusion_run(agents, mixing, x0, tau, StoppingRule(tol=0.0, max_iters=ROUNDS),
                             premix=premix, reference=reference)
    xs = manual_rows(lambda: inclusion_init(agents, mixing, x0, tau, premix=premix),
                     lambda s: inclusion_step(agents, mixing, s, tau), lambda s: s.x, ROUNDS)
    assert_trace_matches(trace, x0, xs, reference, None)


@pytest.mark.parametrize("shared", [False, True])
def test_minmax_run_rows_are_the_references_of_a_manual_loop(shared):
    n, p, d = 6, 3, 2
    problems = random_saddle_problems(n, p, d, seed=6, coupling_kind="quadratic")
    w1 = metropolis_mixing(ring_graph(n))
    w2 = w1 if shared else metropolis_mixing(random_connected_graph(n, 0.5, seed=6))
    mixing = BlockMixing(w1, w2)
    tau = 0.9 * stepsize_bound_pair(mixing, max(prob.lipschitz for prob in problems))
    rng = np.random.default_rng(7)
    x0, y0 = rng.uniform(-1.0, 1.0, (n, p)), rng.uniform(-1.0, 1.0, (n, d))
    reference = (rng.standard_normal(p), rng.standard_normal(d))
    _, _, trace = minmax_run(problems, mixing, x0, y0, tau, StoppingRule(tol=0.0, max_iters=ROUNDS),
                             reference=reference)
    xs = manual_rows(lambda: minmax_init(problems, mixing, x0, y0, tau),
                     lambda s: minmax_step(problems, mixing, s, tau), lambda s: s.stacked.x, ROUNDS)
    assert_trace_matches(trace, np.concatenate([x0, y0], axis=1), xs, np.concatenate(reference), p)
