"""Trace storage: columns at 8 bytes a cell, read back as written, and a rows view that keeps nothing."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from saddlenet.cli import _execute, _Setup
from saddlenet.config import parse_config
from saddlenet.graphs import BlockMixing, metropolis_mixing, random_connected_graph, ring_graph
from saddlenet.inclusion import inclusion_run, stepsize_bound, uniform_lipschitz
from saddlenet.instances import random_inclusion_agents, random_saddle_problems
from saddlenet.minmax import minmax_run, stepsize_bound_pair
from saddlenet.trace import ConvergenceTrace, StoppingRule, TraceRow, kept_rows, run_loop

NAN = float("nan")
COLUMNS = ["iteration", "fp_residual", "consensus_gap_x", "consensus_gap_y",
           "distance_to_reference", "messages_cum"]


def cells(values):
    """Each cell as its type and repr: a float's repr is its bits, and a NaN matches a NaN."""
    return [(type(v), repr(v)) for v in values]


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

ROWS = 100_000


def long_trace():
    """A run_loop trace of ROWS rounds, each with a fresh residual and two observer cells."""
    def observe(states):
        ks = np.array([s.k for s in states], dtype=float)
        return {"consensus_gap_x": 1.0 / ks, "consensus_gap_y": [0.5 / s.k for s in states]}

    return run_loop(lambda s: SimpleNamespace(x=s.x, k=s.k + 1), SimpleNamespace(x=np.zeros(1), k=0),
                    StoppingRule(tol=0.0, max_iters=ROWS), lambda old, new: 2.0 / new.k, observe)


def test_a_long_trace_retains_about_8_bytes_a_cell_and_reads_its_last_row_alone():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, trace = long_trace()
        retained = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        last = trace.rows[-1]
        read = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert trace.iterations == ROWS
    assert last == TraceRow(ROWS, 2.0 / ROWS, 1.0 / ROWS, 0.5 / ROWS)
    assert retained <= 32 * ROWS  # three columns of 8-byte cells; boxed floats in lists take ~100
    assert read < 4096


def test_a_range_column_is_kept_as_a_range():
    trace = ConvergenceTrace()
    trace._extend(1, np.full(ROWS, 0.5).tolist(), {})
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace.set_column("messages_cum", range(4, 4 * ROWS + 4, 4))
        grown = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert grown < 4096
    assert trace.column("messages_cum")[-1] == 4 * ROWS and trace.rows[2].messages_cum == 12
    assert trace.csv_lines(ROWS)[-1] == f"{ROWS},0.5,{4 * ROWS}"


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def test_append_round_trips_nan_none_int_and_float_cells():
    trace = ConvergenceTrace()
    trace.append(TraceRow(1, 0.5, consensus_gap_x=NAN, messages_cum=4))
    trace.append(TraceRow(2, 0.25))
    trace.append(TraceRow(3, 1, consensus_gap_x=2, consensus_gap_y=np.float64(0.125), messages_cum=12))
    assert cells(trace.column("iteration")) == cells([1, 2, 3])
    assert cells(trace.column("fp_residual")) == cells([0.5, 0.25, 1])
    assert cells(trace.column("consensus_gap_x")) == cells([NAN, None, 2])
    assert cells(trace.column("consensus_gap_y")) == cells([None, None, 0.125])  # starts mid-trace
    assert cells(trace.column("distance_to_reference")) == cells([None] * 3)
    assert cells(trace.column("messages_cum")) == cells([4, None, 12])
    assert trace.csv_lines() == ["iteration,fp_residual,consensus_gap_x,consensus_gap_y,messages_cum",
                                 "1,0.5,nan,,4", "2,0.25,,,", "3,1,2,0.125,12"]


def chunked_trace():
    """Three chunks: numpy and list columns, one starting mid-trace, one missing from a later chunk."""
    trace = ConvergenceTrace()
    trace._extend(1, [1.0, 0.5], {"consensus_gap_x": np.array([NAN, 0.1])})
    trace._extend(3, [0.25, 0.125], {"consensus_gap_y": [None, 0.5], "messages_cum": np.array([6, 8])})
    trace._extend(5, [0.0], {"consensus_gap_x": [3], "messages_cum": [2.5]})
    return trace


def test_extend_round_trips_nan_none_int_and_float_cells():
    trace = chunked_trace()
    assert cells(trace.column("iteration")) == cells([1, 2, 3, 4, 5])
    assert cells(trace.column("fp_residual")) == cells([1.0, 0.5, 0.25, 0.125, 0.0])
    assert cells(trace.column("consensus_gap_x")) == cells([NAN, 0.1, None, None, 3])
    assert cells(trace.column("consensus_gap_y")) == cells([None, None, None, 0.5, None])
    assert cells(trace.column("messages_cum")) == cells([None, None, 6, 8, 2.5])
    assert trace.active_columns() == ["iteration", "fp_residual", "consensus_gap_x",
                                      "consensus_gap_y", "messages_cum"]
    assert trace.csv_lines(2) == ["iteration,fp_residual,consensus_gap_x,consensus_gap_y,messages_cum",
                                  "1,1.0,nan,,", "3,0.25,,,6", "5,0.0,3,,2.5"]
    # a gap in the iterations turns them from a range into stored ints
    trace.append(TraceRow(9, 0.0, distance_to_reference=0.75))
    assert cells(trace.column("iteration")) == cells([1, 2, 3, 4, 5, 9])
    assert cells(trace.column("distance_to_reference")) == cells([None] * 5 + [0.75])


def test_set_column_round_trips_nan_none_int_and_float_cells():
    trace = chunked_trace()
    trace.set_column("distance_to_reference", [None, NAN, 3, 0.5, np.float32(0.25)])
    assert cells(trace.column("distance_to_reference")) == cells([None, NAN, 3, 0.5, 0.25])
    trace.set_column("consensus_gap_x", np.arange(5.0))
    trace.set_column("messages_cum", (k * k for k in range(5)))
    assert cells(trace.column("consensus_gap_x")) == cells([0.0, 1.0, 2.0, 3.0, 4.0])
    assert cells(trace.column("messages_cum")) == cells([0, 1, 4, 9, 16])
    assert [type(r.consensus_gap_x) for r in trace.rows] == [float] * 5
    trace.set_column("consensus_gap_y", [None] * 5)
    assert "consensus_gap_y" not in trace.active_columns()
    with pytest.raises(ValueError, match="not exact"):
        trace.set_column("messages_cum", [2 ** 53 + 1, 0.5, 0, 0, 0])
    with pytest.raises(ValueError, match="numbers or None"):
        trace.set_column("messages_cum", ["1", 2, 3, 4, 5])
    with pytest.raises(ValueError, match="has 2 values for 5 rows"):
        trace.set_column("messages_cum", range(2))
    assert cells(trace.column("messages_cum")) == cells([0, 1, 4, 9, 16])


def test_extend_keeps_its_checks():
    trace = chunked_trace()
    with pytest.raises(ValueError, match="unknown trace column 'gap'"):
        trace._extend(6, [0.0], {"gap": [1.0]})
    with pytest.raises(ValueError, match="has 2 values for 1 rows"):
        trace._extend(6, [0.0], {"consensus_gap_x": [1.0, 2.0]})
    with pytest.raises(ValueError, match="numbers or None"):
        trace._extend(6, [0.0], {"consensus_gap_x": ["x"]})
    assert trace.iterations == 5 and len(trace.rows) == 5


# ---------------------------------------------------------------------------
# the rows view
# ---------------------------------------------------------------------------

def test_rows_is_a_read_only_view_of_the_columns():
    trace = chunked_trace()
    rows = trace.rows
    expected = [TraceRow(*cells) for cells in zip(*(trace.column(name) for name in COLUMNS))]
    assert len(rows) == 5
    assert all(type(row) is TraceRow for row in rows)
    assert rows[-1] == rows[4] == TraceRow(5, 0.0, 3, None, None, 2.5)
    assert type(rows[1:4]) is list and rows[7:] == []
    for part in (slice(1, 4), slice(None, None, -2)):
        assert list(map(repr, rows[part])) == list(map(repr, expected[part]))
    assert list(map(repr, rows)) == list(map(repr, expected))
    # a NaN cell matches a NaN, as in a list of the same rows
    assert rows == expected and expected == rows and rows == trace.rows and list(rows) == rows
    assert rows != expected[:-1] and rows != tuple(expected)
    assert rows != [TraceRow(1, 1.0)] * 5
    for idx in (5, -6):
        with pytest.raises(IndexError):
            rows[idx]
    with pytest.raises(TypeError):
        rows[0] = rows[1]
    trace.append(TraceRow(6, 0.0))  # the view reads the trace as it is now
    assert len(rows) == 6 and rows[-1] == TraceRow(6, 0.0)


def test_an_empty_trace_has_no_rows():
    trace = ConvergenceTrace()
    assert trace.rows == [] and len(trace.rows) == 0 and list(trace.rows) == []
    assert trace.csv_lines() == ["iteration,fp_residual"]
    assert list(trace.column("consensus_gap_x")) == []


# ---------------------------------------------------------------------------
# the benchmark instances against a list-backed trace
# ---------------------------------------------------------------------------

def plain(values):
    """Cells as the Python numbers a list-backed trace keeps."""
    return np.asarray(values).tolist() if isinstance(values, np.ndarray) else list(values)


class ListTrace:
    """A trace kept as one plain list per column, the cells as they were handed in."""

    def __init__(self):
        self.columns = {name: [] for name in COLUMNS}

    def extend(self, first, residuals, columns):
        count = len(residuals)
        for name, column in self.columns.items():
            if name == "iteration":
                column += [first + k for k in range(count)]
            elif name == "fp_residual":
                column += plain(residuals)
            else:
                column += plain(columns[name]) if name in columns else [None] * count

    def csv_lines(self, every):
        cols = [name for name in COLUMNS[:2]] + [
            name for name in COLUMNS[2:] if any(v is not None for v in self.columns[name])]
        lines = [",".join(cols)]
        for idx in kept_rows(len(self.columns["iteration"]), every):
            lines.append(",".join(
                "" if v is None else str(v) if isinstance(v, int) else repr(float(v))
                for v in (self.columns[name][idx] for name in cols)))
        return lines


@pytest.fixture
def recorded(monkeypatch):
    """Every trace also keeps a :class:`ListTrace` of what it was handed, as ``trace.reference``."""
    extend, set_column = ConvergenceTrace._extend, ConvergenceTrace.set_column

    def recording_extend(self, first, residuals, columns):
        self.__dict__.setdefault("reference", ListTrace()).extend(first, residuals, columns)
        extend(self, first, residuals, columns)

    def recording_set_column(self, name, values):
        self.__dict__.setdefault("reference", ListTrace()).columns[name] = plain(values)
        set_column(self, name, values)

    monkeypatch.setattr(ConvergenceTrace, "_extend", recording_extend)
    monkeypatch.setattr(ConvergenceTrace, "set_column", recording_set_column)


RING5 = """\
[problem]
n = 5
p = 3
d = 3
prox_f = l1
prox_f_weight = 0.3
prox_g = box_indicator
prox_g_lo = -1.0
prox_g_hi = 1.0
coupling = bilinear
seed = 3

[graph]
topology = ring

[algorithm]
name = alg2

[run]
max_iters = 700
tol = 1e-10
reference = on
"""


def ring5_trace():
    """The README alg2 instance through the CLI's path: the observer columns and messages_cum."""
    cfg = parse_config(RING5)
    return _execute("alg2", cfg, _Setup(cfg, ("alg2",))).trace


def random500_trace():
    """The random500-inclusion instance, with a distance to a reference row."""
    mixing = metropolis_mixing(random_connected_graph(500, 0.02, seed=11))
    agents = random_inclusion_agents(500, 8, 11, pool=("zero", "quadratic"))
    tau = 0.9 * stepsize_bound(mixing, uniform_lipschitz(agents))
    x0 = np.random.default_rng(1).uniform(-1.0, 1.0, (500, 8))
    _, trace = inclusion_run(agents, mixing, x0, tau, StoppingRule(tol=0.0, max_iters=300),
                             reference=np.zeros(8))
    return trace


def random50_trace():
    """The random50-minmax-audit instance: x and y on different graphs."""
    mixing = BlockMixing(metropolis_mixing(random_connected_graph(50, 0.1, seed=7)),
                         metropolis_mixing(ring_graph(50)))
    problems = random_saddle_problems(50, 3, 3, seed=7, coupling_kind="quadratic",
                                      prox_min_params={"weight": 0.05},
                                      prox_max_params={"lo": -1.0, "hi": 1.0})
    tau = 0.9 * stepsize_bound_pair(mixing, max(p.lipschitz for p in problems))
    rng = np.random.default_rng(1)
    _, _, trace = minmax_run(problems, mixing, rng.uniform(-1.0, 1.0, (50, 3)),
                             rng.uniform(-1.0, 1.0, (50, 3)), tau, StoppingRule(tol=0.0, max_iters=600))
    return trace


@pytest.mark.parametrize("make", [ring5_trace, random500_trace, random50_trace],
                         ids=["ring5-minmax", "random500-inclusion", "random50-minmax-audit"])
def test_columns_and_csv_read_as_a_list_backed_trace(make, recorded):
    trace = make()
    reference = trace.reference
    assert trace.iterations > 256  # more than one chunk
    for name in COLUMNS:
        assert cells(trace.column(name)) == cells(reference.columns[name]), name
        assert list(trace.column(name)[-3:]) == list(trace.column(name))[-3:]
    for every in (1, 7):
        assert trace.csv_lines(every) == reference.csv_lines(every)


def test_one_agent_without_edges_stamps_zero_messages():
    """No edges: 0 messages a round, which a ``range`` cannot step by."""
    text = (RING5.replace("n = 5", "n = 1").replace("topology = ring", "topology = complete")
            .replace("max_iters = 700", "max_iters = 30"))
    cfg = parse_config(text)
    result = _execute("alg2", cfg, _Setup(cfg, ("alg2",)))
    assert result.info["messages_per_round"] == 0
    assert cells(result.trace.column("messages_cum")) == cells([0] * 30)
    assert result.trace.csv_lines(7)[-1].endswith(",0")
