"""The trace observers of the stacked runs, held bitwise to their references.

The run loop holds the states of consecutive rounds and observes them in
chunks; one observer pass forms the row means and the squared deviations of
a whole chunk.  Each column it reports must equal, bit for bit, what the
public references compute on the same rows: :func:`consensus_gap` per block,
``np.linalg.norm`` of the mean's distance to the reference, and the norm of
the step of the rows and of the dual sum for the residual.  However the
rounds fall into chunks, every recorded row is observed once, in order, and
a run that ends mid-chunk keeps its last rows.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from saddlenet.graphs import BlockMixing, metropolis_mixing, random_connected_graph, ring_graph
from saddlenet.inclusion import (
    AgentInclusion,
    _stacked_columns,
    _start,
    consensus_gap,
    inclusion_init,
    inclusion_run,
    inclusion_step,
    stepsize_bound,
    uniform_lipschitz,
)
from saddlenet.instances import random_inclusion_agents, random_saddle_problems
from saddlenet.minmax import (
    _stacked_setup,
    minmax_init,
    minmax_run,
    minmax_step,
    product_space_problem,
    stack_agents,
    stepsize_bound_pair,
    sum_saddle_problem,
)
from saddlenet.operators import linear_forward, zero_prox
from saddlenet.primal_dual import ForbState, PdtrState, StepSizes, forb_run, forb_step, pdtr_run, pdtr_step
from saddlenet.trace import CHUNK_BYTES, CHUNK_ROWS, StoppingRule, _norm, run_loop

# several full chunks and a remainder
ROUNDS = 2 * CHUNK_ROWS + 17


def chunk_rows(x_nbytes):
    """Rows in a full chunk of states whose ``x`` has ``x_nbytes`` bytes."""
    return min(CHUNK_ROWS, -(-CHUNK_BYTES // x_nbytes))


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
    reference = rng.standard_normal(p + d) if with_reference else None
    for count in (1, 3, chunk_rows(8 * n * (p + d))):
        xs = [scale * rng.standard_normal((n, p + d)) + rng.uniform(-3.0, 3.0, p + d)
              for scale in np.resize([1e-9, 1.0, 1e6], count)]
        got = _stacked_columns(reference, split)(xs)
        assert all(len(column) == count for column in got.values())
        for k, x in enumerate(xs):
            assert_bitwise({name: column[k] for name, column in got.items()},
                           reference_columns(x, reference, split))


def manual_rows(init, step, stacked_of, count):
    """The stacked iterate after each of ``count`` rounds, round 1 first."""
    state = init()
    states = [stacked_of(state)]
    for _ in range(count - 1):
        state = step(state)
        states.append(stacked_of(state))
    return states


def assert_residuals_match(trace, start, states):
    """Row ``k``'s residual is the norm of round ``k``'s step of ``x`` and of the dual
    sum ``g``, which grows by the ``half`` of the old ``x``; ``start`` is round 0."""
    prev = start
    for row, state in zip(trace.rows, states, strict=True):
        assert_bitwise({"r": row.fp_residual}, {"r": _norm(state.x - prev.x, prev.half)})
        prev = state


def assert_trace_matches(trace, start, states, reference, split):
    assert trace.status == "budget" and len(trace.rows) == len(states) == ROUNDS
    for k, (row, state) in enumerate(zip(trace.rows, states), start=1):
        assert row.iteration == k
        want = reference_columns(state.x, reference, split)
        got = {name: getattr(row, name) for name in want}
        assert_bitwise(got, want)
    assert_residuals_match(trace, start, states)


@pytest.mark.parametrize("premix", [False, True])
def test_inclusion_run_rows_are_the_references_of_a_manual_loop(premix):
    # 2560-byte rows: the byte cap cuts the chunks
    n, h = 40, 8
    assert chunk_rows(8 * n * h) < CHUNK_ROWS
    agents = random_inclusion_agents(n, h, seed=3, pool=("zero", "quadratic"))
    mixing = metropolis_mixing(random_connected_graph(n, 0.3, seed=3))
    tau = 0.9 * stepsize_bound(mixing, uniform_lipschitz(agents))
    x0 = np.random.default_rng(4).uniform(-1.0, 1.0, (n, h))
    reference = np.random.default_rng(5).standard_normal(h)
    _, trace = inclusion_run(agents, mixing, x0, tau, StoppingRule(tol=0.0, max_iters=ROUNDS),
                             premix=premix, reference=reference)
    states = manual_rows(lambda: inclusion_init(agents, mixing, x0, tau, premix=premix),
                         lambda s: inclusion_step(agents, mixing, s, tau), lambda s: s, ROUNDS)
    assert_trace_matches(trace, _start(agents, mixing, x0, tau, premix, True), states, reference, None)


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
    states = manual_rows(lambda: minmax_init(problems, mixing, x0, y0, tau),
                         lambda s: minmax_step(problems, mixing, s, tau), lambda s: s.stacked, ROUNDS)
    start = _start(*_stacked_setup(problems, mixing, x0, y0), tau, False, True)
    assert_trace_matches(trace, start, states, np.concatenate(reference), p)


@dataclass(frozen=True)
class Counted:
    """A state that knows its round; ``x`` sets the bytes it holds."""

    k: int
    x: np.ndarray


# (x width in floats, round the run ends on, how it ends): 8-byte rows fill a
# chunk by the row cap, 40 kB rows by the byte cap
ENDINGS = [(width, end, status) for width in (1, 5000)
           for end, status in ((ROUNDS, "budget"), (CHUNK_ROWS + 44, "diverged"),
                               (2 * CHUNK_ROWS, "converged"), (1, "converged"))]


@pytest.mark.parametrize("width, end, status", ENDINGS)
def test_run_loop_observes_every_row_once_in_order_in_full_chunks(width, end, status):
    chunks = []

    def observe(states):
        chunks.append([s.k for s in states])
        return {"consensus_gap_x": [float(s.k) for s in states]}

    def residual(old, new):
        if new.k == end and status != "budget":
            return math.inf if status == "diverged" else 0.0
        return 1.0 / new.k

    state, trace = run_loop(lambda s: Counted(s.k + 1, np.zeros(width)),
                            Counted(0, np.zeros(width)), StoppingRule(tol=0.0, max_iters=ROUNDS),
                            residual, observe)
    last = end - 1 if status == "diverged" else end
    assert trace.status == status and state.k == last
    assert [r.iteration for r in trace.rows] == list(range(1, last + 1))
    assert [r.consensus_gap_x for r in trace.rows] == [float(k) for k in range(1, last + 1)]
    assert [k for chunk in chunks for k in chunk] == list(range(1, last + 1))
    full = chunk_rows(8 * width)
    assert all(len(chunk) == full for chunk in chunks[:-1])
    assert 0 < len(chunks[-1]) <= full


def test_a_run_diverging_mid_chunk_keeps_the_rows_up_to_the_last_finite_one():
    # B(x) = 2 x declared with L = 0.1: from rows near 1e-150 the step
    # overflows after more than a chunk of rounds
    n = 3
    agents = [AgentInclusion(zero_prox(), linear_forward(2.0 * np.eye(1), lipschitz=0.1))
              for _ in range(n)]
    mixing = metropolis_mixing(ring_graph(n))
    tau = 0.9 * stepsize_bound(mixing, 0.1)
    x0 = 1e-150 * np.arange(1.0, n + 1.0).reshape(n, 1)
    reference = np.zeros(1)
    with np.errstate(over="ignore", invalid="ignore"):
        state, trace = inclusion_run(agents, mixing, x0, tau,
                                     StoppingRule(tol=0.0, max_iters=ROUNDS), reference=reference)
        states = manual_rows(lambda: inclusion_init(agents, mixing, x0, tau),
                             lambda s: inclusion_step(agents, mixing, s, tau), lambda s: s,
                             trace.iterations)
        start = _start(agents, mixing, x0, tau, False, True)
    assert trace.status == "diverged"
    assert CHUNK_ROWS < trace.iterations < ROUNDS and trace.iterations % CHUNK_ROWS
    assert len(trace.rows) == trace.iterations and np.array_equal(state.x, states[-1].x)
    for k, (row, s) in enumerate(zip(trace.rows, states), start=1):
        assert row.iteration == k
        want = reference_columns(s.x, reference, None)
        assert_bitwise({name: getattr(row, name) for name in want}, want)
    assert_residuals_match(trace, start, states)


def test_a_per_state_observer_sees_each_recorded_state_once_in_order():
    problems = random_saddle_problems(3, 2, 2, seed=8, prox_min_kind="zero", prox_max_kind="zero")
    central = stack_agents([sum_saddle_problem(problems)])[0]
    z0 = np.random.default_rng(9).uniform(-1.0, 1.0, 4)
    tau = 0.4 / central.lipschitz
    stop = StoppingRule(tol=0.0, max_iters=ROUNDS)

    def recorder(seen):
        def observe(state):
            seen.append(state)
            return {"distance_to_reference": float(len(seen))}
        return observe

    seen = []
    _, trace = forb_run(central.resolvent, central.forward, z0, tau, stop, observe=recorder(seen))
    state = ForbState.start(central.forward, z0)
    for row, got in zip(trace.rows, seen, strict=True):
        state = forb_step(central.resolvent, central.forward, state, tau)
        assert row.distance_to_reference == row.iteration
        assert_array_equal(got.x, state.x)
    assert len(seen) > CHUNK_ROWS

    w = metropolis_mixing(ring_graph(3))
    problem = product_space_problem(problems, BlockMixing(w, w))
    tau = 0.5 * stepsize_bound_pair(BlockMixing(w, w), problem.lipschitz)
    steps = StepSizes(tau, 1.0 / tau)
    init = (np.tile(z0, 3), np.zeros(problem.dual_dim))
    seen = []
    _, trace = pdtr_run(problem, init, steps, stop, observe=recorder(seen))
    state = PdtrState.start(problem, *init)
    for row, got in zip(trace.rows, seen, strict=True):
        state = pdtr_step(problem, state, steps)
        assert row.distance_to_reference == row.iteration
        assert_array_equal(got.x, state.x)
        assert_array_equal(got.y, state.y)
    assert len(seen) > CHUNK_ROWS
