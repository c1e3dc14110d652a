from dataclasses import replace

import numpy as np
import pytest

from saddlenet.graphs import BlockMixing, metropolis_mixing, ring_graph
from saddlenet.instances import random_saddle_problems
from saddlenet.minmax import minmax_run, stepsize_bound_pair
from saddlenet.operators import linear_forward, zero_prox
from saddlenet.primal_dual import forb_run
from saddlenet.trace import CHUNK_ROWS, ConvergenceTrace, StoppingRule, TraceRow


def test_stopping_rule_defaults_and_validation():
    rule = StoppingRule()
    assert rule.tol == 1e-10
    assert rule.max_iters == 1_000_000
    for tol in (-1e-3, np.nan):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            StoppingRule(tol=tol)
    with pytest.raises(ValueError):
        StoppingRule(max_iters=-1)
    StoppingRule(tol=0.0)  # exact fixed points are a legitimate target
    StoppingRule(tol=np.inf)


def test_trace_append_validates_rows():
    trace = ConvergenceTrace()
    trace.append(TraceRow(iteration=1, fp_residual=0.5))
    with pytest.raises(ValueError):
        trace.append(TraceRow(iteration=1, fp_residual=0.1))  # not increasing
    with pytest.raises(ValueError):
        trace.append(TraceRow(iteration=2, fp_residual=-0.1))
    with pytest.raises(ValueError):
        trace.append(TraceRow(iteration=2, fp_residual=float("nan")))
    trace.append(TraceRow(iteration=2, fp_residual=0.0))
    assert trace.iterations == 2
    assert trace.final_residual == 0.0


def test_empty_trace_properties():
    trace = ConvergenceTrace()
    assert trace.iterations == 0
    assert trace.final_residual == float("inf")
    assert not trace.converged


def test_active_columns_tracks_what_was_recorded():
    trace = ConvergenceTrace()
    trace.append(TraceRow(iteration=1, fp_residual=1.0))
    assert trace.active_columns() == ["iteration", "fp_residual"]
    trace = ConvergenceTrace()
    trace.append(TraceRow(iteration=1, fp_residual=1.0, consensus_gap_x=0.2))
    trace.append(TraceRow(iteration=2, fp_residual=0.5, consensus_gap_x=0.1))
    assert trace.active_columns() == ["iteration", "fp_residual", "consensus_gap_x"]
    with pytest.raises(ValueError, match="unknown trace column 'gap'"):
        trace.column("gap")
    assert repr(trace.rows) == "<2 trace rows>"


def test_csv_round_trips_floats_exactly():
    trace = ConvergenceTrace()
    values = [0.1 + 0.2, 1.0 / 3.0, 2.0 ** -52]
    for k, v in enumerate(values, start=1):
        trace.append(TraceRow(iteration=k, fp_residual=v))
    lines = trace.csv_lines()
    assert lines[0] == "iteration,fp_residual"
    for line, v in zip(lines[1:], values):
        _, cell = line.split(",")
        assert float(cell) == v  # repr round-trip


def test_csv_subsampling_keeps_first_and_final_rows():
    trace = ConvergenceTrace()
    for k in range(1, 11):
        trace.append(TraceRow(iteration=k, fp_residual=1.0 / k))
    lines = trace.csv_lines(every=4)
    iters = [int(line.split(",")[0]) for line in lines[1:]]
    assert iters == [1, 5, 9, 10]
    with pytest.raises(ValueError):
        trace.csv_lines(every=0)


def test_csv_leaves_absent_optionals_out():
    trace = ConvergenceTrace()
    trace.append(TraceRow(iteration=1, fp_residual=1.0, consensus_gap_x=0.5))
    trace.append(TraceRow(iteration=2, fp_residual=0.5, consensus_gap_x=0.25))
    assert trace.csv_lines() == ["iteration,fp_residual,consensus_gap_x", "1,1.0,0.5", "2,0.5,0.25"]


def rebuilt(trace):
    """The same rows appended one by one to a fresh trace."""
    out = ConvergenceTrace()
    for row in trace.rows:
        out.append(row)
    return out


def minmax_trace():
    """A run with every observer column: both consensus gaps and the distance to a reference."""
    n, p, d = 4, 2, 2
    problems = random_saddle_problems(n, p, d, seed=1, coupling_kind="quadratic")
    mixing = BlockMixing(metropolis_mixing(ring_graph(n)), metropolis_mixing(ring_graph(n)))
    tau = 0.9 * stepsize_bound_pair(mixing, max(prob.lipschitz for prob in problems))
    rng = np.random.default_rng(2)
    _, _, trace = minmax_run(problems, mixing, rng.uniform(-1.0, 1.0, (n, p)),
                             rng.uniform(-1.0, 1.0, (n, d)), tau,
                             StoppingRule(tol=0.0, max_iters=CHUNK_ROWS + 40),
                             reference=(np.zeros(p), np.zeros(d)))
    return trace


def forb_trace():
    """A run with no optional column."""
    forward = linear_forward(np.array([[0.5, 1.0], [-1.0, 0.5]]))
    _, trace = forb_run(zero_prox(), forward, np.array([1.0, -2.0]), 0.05,
                        StoppingRule(tol=0.0, max_iters=CHUNK_ROWS + 40))
    return trace


@pytest.mark.parametrize("make, optional", [
    (minmax_trace, ["consensus_gap_x", "consensus_gap_y", "distance_to_reference"]),
    (forb_trace, []),
], ids=["optional-columns", "no-optional-column"])
def test_a_columnar_run_trace_reads_as_the_same_rows_appended_one_by_one(make, optional):
    trace = make()
    assert trace.iterations > CHUNK_ROWS  # the columns grew over more than one chunk
    built = rebuilt(trace)
    assert all(type(row) is TraceRow for row in trace.rows)
    assert trace.rows == built.rows
    assert [r.iteration for r in trace.rows] == list(range(1, trace.iterations + 1))
    assert trace.active_columns() == built.active_columns() == ["iteration", "fp_residual"] + optional
    for every in (1, 7):
        assert trace.csv_lines(every) == built.csv_lines(every)
    assert (trace.iterations, trace.final_residual) == (built.iterations, built.final_residual)


def test_a_filled_column_is_in_the_rows_and_the_csv():
    trace = forb_trace()
    trace.set_column("messages_cum", [4 * k for k in trace.column("iteration")])
    assert [r.messages_cum for r in trace.rows] == [4 * r.iteration for r in trace.rows]
    assert trace.csv_lines()[0] == "iteration,fp_residual,messages_cum"
    assert trace.csv_lines(7) == rebuilt(trace).csv_lines(7)
    with pytest.raises(ValueError):
        trace.set_column("messages_cum", [1])
    with pytest.raises(ValueError):
        trace.set_column("fp_residual", trace.column("fp_residual"))


def test_append_to_a_run_trace_validates_and_extends_the_columns():
    trace = minmax_trace()
    last = trace.rows[-1]
    with pytest.raises(ValueError):
        trace.append(replace(last, fp_residual=0.1))  # not increasing
    for bad in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            trace.append(replace(last, iteration=last.iteration + 1, fp_residual=bad))
    assert trace.rows[-1] == last
    # the next iteration, with the trace's optional columns
    row = replace(last, iteration=last.iteration + 1, fp_residual=0.0, consensus_gap_x=0.5)
    trace.append(row)
    assert trace.iterations == last.iteration + 1 and trace.final_residual == 0.0
    assert trace.rows[-2] == last and trace.rows[-1] == row
    assert trace.csv_lines()[-1] == (f"{last.iteration + 1},0.0,0.5,"
                                     f"{last.consensus_gap_y!r},{last.distance_to_reference!r}")
    assert trace.csv_lines(7) == rebuilt(trace).csv_lines(7)


# ---------------------------------------------------------------------------
# what a trace refuses
# ---------------------------------------------------------------------------

def test_rows_bring_the_columns_of_the_trace():
    trace = ConvergenceTrace()
    trace.append(TraceRow(1, 1.0, consensus_gap_x=0.5))
    for row in (TraceRow(2, 0.5), TraceRow(2, 0.5, consensus_gap_x=0.25, consensus_gap_y=0.1)):
        with pytest.raises(ValueError, match="columns"):
            trace.append(row)
    for columns in ({}, {"consensus_gap_y": [0.1, 0.2]}):
        with pytest.raises(ValueError, match="columns"):
            trace._extend(2, [0.5, 0.25], columns)
    assert trace.rows == [TraceRow(1, 1.0, consensus_gap_x=0.5)]


def test_append_takes_the_next_iteration_only():
    trace = ConvergenceTrace()
    for iteration in (0, 2):
        with pytest.raises(ValueError, match="do not follow iteration 0"):
            trace.append(TraceRow(iteration, 0.5))
    trace.append(TraceRow(1, 0.5))
    for iteration in (1, 3, 7):
        with pytest.raises(ValueError, match="do not follow iteration 1"):
            trace.append(TraceRow(iteration, 0.25))
    with pytest.raises(ValueError, match="do not follow iteration 1"):
        trace._extend(3, [0.25], {})
    assert trace.column("iteration") == range(1, 2)


def test_cells_are_numbers_and_message_counts_ints():
    trace = ConvergenceTrace()
    for bad in (None, "x"):
        with pytest.raises(ValueError, match="'consensus_gap_x' are numbers"):
            trace._extend(1, [0.5, 0.25], {"consensus_gap_x": [0.1, bad]})
        with pytest.raises(ValueError, match="'fp_residual' are numbers"):
            trace._extend(1, [0.5, bad], {})
    for bad in ([4, 2.5], np.array([4.0, 8.0]), [4, None]):
        with pytest.raises(ValueError, match="'messages_cum' are ints"):
            trace._extend(1, [0.5, 0.25], {"messages_cum": bad})
    assert trace.iterations == 0
    trace._extend(1, [0.5, 0.25], {"messages_cum": [4, 8]})
    with pytest.raises(ValueError, match="'messages_cum' are ints"):
        trace.set_column("messages_cum", [4.0, 8.0])
    with pytest.raises(ValueError, match="'distance_to_reference' are numbers"):
        trace.set_column("distance_to_reference", [None, None])
    assert trace.active_columns() == ["iteration", "fp_residual", "messages_cum"]


def test_a_per_state_observer_returns_the_same_columns_for_every_state():
    def observe(state):  # drops its column once the iterate is near 0
        dist = float(np.linalg.norm(state.x))
        return {"distance_to_reference": dist} if dist > 1.0 else {}

    forward = linear_forward(np.array([[0.5, 1.0], [-1.0, 0.5]]))
    with pytest.raises(ValueError, match="same columns for every state"):
        forb_run(zero_prox(), forward, np.array([1.0, -2.0]), 0.05,
                 StoppingRule(tol=0.0, max_iters=CHUNK_ROWS), observe=observe)
