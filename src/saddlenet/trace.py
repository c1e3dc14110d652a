"""Stopping rules and per-iteration convergence traces."""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import chain, islice, repeat

import numpy as np

__all__ = ["ConvergenceTrace", "StoppingRule", "TraceRow", "kept_rows", "per_state", "run_loop"]


@dataclass(frozen=True)
class StoppingRule:
    """Stop when the fixed-point residual drops to ``tol`` or the budget ends.

    Every solver runs under this contract through :func:`run_loop`: step
    ``k`` is trace row ``k``, and a run with ``tol = inf`` or
    ``max_iters = 0`` takes no step, records no row and returns its start
    (``tol = inf`` reports ``converged``, which is useful for probing
    initial states).
    """

    tol: float = 1e-10
    max_iters: int = 1_000_000

    def __post_init__(self):
        if not self.tol >= 0:
            raise ValueError("tol must be nonnegative")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")


@dataclass(frozen=True, slots=True)
class TraceRow:
    iteration: int
    fp_residual: float
    consensus_gap_x: float | None = None
    consensus_gap_y: float | None = None
    distance_to_reference: float | None = None
    messages_cum: int | None = None


_COLUMNS = tuple(f.name for f in fields(TraceRow))
_OPTIONAL = _COLUMNS[2:]


def _cells(name, values):
    """The cells of column ``name`` from a list, a 1-d numpy array or any iterable of numbers.

    ``messages_cum`` is an ``array('q')`` of ints; every other column is an
    ``array('d')``, which reads its cells back as Python floats.
    """
    code = "q" if name == "messages_cum" else "d"
    try:
        return array(code, values.tolist() if isinstance(values, np.ndarray) else values)
    except TypeError:
        raise ValueError(f"the cells of column {name!r} are {'ints' if code == 'q' else 'numbers'}") from None


class ConvergenceTrace:
    """Append-only record of one solver run, kept as one column per field.

    Row ``k`` is iteration ``k + 1``, and residuals are nonnegative.  An
    optional column has a value in every row or is absent: the first rows
    decide which columns a trace has, every later row brings the same ones,
    and the CSV leaves an absent column out.  ``status`` says why the run
    stopped: ``"converged"`` (the residual met the tolerance), ``"budget"``
    (the iteration budget ran out) or ``"diverged"`` (a residual was not
    finite; that round is not recorded).  It is None until :func:`run_loop`
    sets it.

    Each column has one type, fixed by its name, at 8 bytes a cell or none:
    the iterations are not stored (:meth:`column` returns a ``range``),
    ``messages_cum`` is ``array('q')`` or the ``range`` handed to
    :meth:`set_column`, and the residuals and every other column are
    ``array('d')``.  A None, a non-number, or a float in ``messages_cum``
    raises ``ValueError``.  :attr:`rows` is a read-only view that builds the
    :class:`TraceRow` of a row when it is read and keeps none.
    """

    def __init__(self):
        self.status = None
        self._residual = array("d")
        self._optional = {}

    @property
    def converged(self):
        return self.status == "converged"

    def append(self, row):
        if row.fp_residual < 0 or math.isnan(row.fp_residual):
            raise ValueError("fp_residual must be a nonnegative number")
        self._extend(row.iteration, [row.fp_residual],
                     {name: [v] for name in _OPTIONAL if (v := getattr(row, name)) is not None})

    def _extend(self, first, residuals, columns):
        """Append rows ``first, first + 1, ...``, one per residual; ``first`` is ``iterations + 1``.

        ``columns`` holds one value per residual (a list, a numpy array or a
        ``range``) for each optional column the rows have, which are the
        columns of the rows already recorded.  The caller checks the
        residuals.
        """
        count = len(residuals)
        if first != self.iterations + 1:
            raise ValueError(f"rows from iteration {first} do not follow iteration {self.iterations}")
        for name, values in columns.items():
            if name not in _OPTIONAL:
                raise ValueError(f"unknown trace column {name!r}")
            if len(values) != count:
                raise ValueError(f"column {name!r} has {len(values)} values for {count} rows")
        if self._residual and columns.keys() != self._optional.keys():
            raise ValueError(f"rows with the columns {sorted(columns)} in a trace "
                             f"with the columns {sorted(self._optional)}")
        # convert the values, which checks them, before any column grows
        new = {name: _cells(name, values) for name, values in columns.items()}
        residuals = _cells("fp_residual", residuals)
        if not self._residual:
            self._optional = new
        else:
            for name, cells in new.items():
                if isinstance(self._optional[name], range):  # a range set_column kept
                    self._optional[name] = array("q", self._optional[name])
                self._optional[name].extend(cells)
        self._residual.extend(residuals)

    def column(self, name):
        """The values of column ``name``, one per row (None in every row of an absent column).

        A stored column is returned as it is, not copied: read it, do not write to it.
        """
        if name == "iteration":
            return range(1, len(self._residual) + 1)
        if name == "fp_residual":
            return self._residual
        if name not in _OPTIONAL:
            raise ValueError(f"unknown trace column {name!r}")
        return self._optional[name] if name in self._optional else [None] * len(self._residual)

    def set_column(self, name, values):
        """Replace the optional column ``name`` with ``values``, one per row.

        A ``range`` of ``messages_cum`` stays a ``range``.  A trace without
        rows keeps no column: its first rows decide its columns.
        """
        if name not in _OPTIONAL:
            raise ValueError(f"not an optional trace column: {name!r}")
        cells = values if name == "messages_cum" and isinstance(values, range) else _cells(name, values)
        if len(cells) != len(self._residual):
            raise ValueError(f"column {name!r} has {len(cells)} values "
                             f"for {len(self._residual)} rows")
        if self._residual:
            self._optional[name] = cells

    @property
    def rows(self):
        """The rows as :class:`TraceRow`s: a read-only view that builds a row when it is read."""
        return _Rows(self)

    def _fields(self):
        """The columns in :class:`TraceRow` field order, None for an absent one."""
        return [self.column("iteration"), self._residual] + [self._optional.get(name) for name in _OPTIONAL]

    @property
    def iterations(self):
        return len(self._residual)

    @property
    def final_residual(self):
        return self._residual[-1] if self._residual else float("inf")

    def active_columns(self):
        return ["iteration", "fp_residual"] + [name for name in _OPTIONAL if name in self._optional]

    def csv_lines(self, every=1):
        """CSV serialization of the rows :func:`kept_rows` keeps, as a list of lines.

        Subsampling changes which rows are written, never their content.
        """
        return list(self.iter_csv_lines(every))

    def iter_csv_lines(self, every=1):
        """The lines of :meth:`csv_lines`, each made when it is read.

        A cell is ``str`` of its value: an int's digits, or a float's
        shortest repr, which reads back exactly.
        """
        if every < 1:
            raise ValueError("every must be at least 1")
        cols = self.active_columns()
        data = [self.column(name) for name in cols]
        count = len(self._residual)
        # rows 0, every, 2 every, ... before the last one, then the last one
        kept = islice(zip(*data), 0, max(count - 1, 0), every)
        last = [[col[-1] for col in data]] if count else []
        return chain([",".join(cols)], (",".join(map(str, cells)) for cells in chain(kept, last)))


class _Rows(Sequence):
    """The rows of a trace as :class:`TraceRow`s, each built when it is read and not kept.

    Compares equal to a list or another view of the same rows; a NaN cell
    matches a NaN, as it does in a list that holds the same row objects.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace):
        self._trace = trace

    def __len__(self):
        return len(self._trace._residual)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return [self[k] for k in range(*idx.indices(len(self)))]
        return TraceRow(*(None if col is None else col[idx] for col in self._trace._fields()))

    def __iter__(self):
        return map(TraceRow, *(repeat(None) if col is None else col for col in self._trace._fields()))

    def __eq__(self, other):
        if not isinstance(other, (_Rows, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(_same_row, self, other))

    __hash__ = None

    def __repr__(self):
        return f"<{len(self)} trace rows>"


def _same_row(a, b):
    return a == b or type(a) is type(b) is TraceRow and all(
        u == v or u != u and v != v for u, v in zip(*([getattr(r, name) for name in _COLUMNS] for r in (a, b))))


def kept_rows(count, every):
    """Indices of ``count`` rows subsampled to every ``every``-th one.

    The final row is always kept so the terminal state is never lost.
    """
    if every < 1:
        raise ValueError("every must be at least 1")
    return [idx for idx in range(count) if idx % every == 0 or idx == count - 1]


# run_loop observes the rows of consecutive rounds in one call.  A chunk of
# held states ends at CHUNK_ROWS rows or once their iterates ``x`` reach
# CHUNK_BYTES: each held state keeps several arrays of that size alive, so
# the byte cap bounds the memory a chunk pins at any number of agents.
CHUNK_ROWS = 256
CHUNK_BYTES = 128 * 1024


def per_state(observe):
    """A :func:`run_loop` observer from ``observe(state)``, the dict of columns of one state.

    ``observe`` returns the same columns, each with a number, for every
    state of a run; a chunk whose states return different columns raises
    ``ValueError``.
    """
    if observe is None:
        return None

    def columns(states):
        rows = [observe(s) for s in states]
        names = rows[0].keys()
        if any(row.keys() != names for row in rows):
            raise ValueError("an observer must return the same columns for every state")
        return {name: [row[name] for row in rows] for name in names}

    return columns


def _no_columns(states):
    return {}


def run_loop(step, state, stop, residual, observe=None):
    """Step ``state`` until ``stop`` (default :class:`StoppingRule`) ends the run.

    Returns the last state and its trace.  ``residual(old, new)`` is one
    step's fixed-point residual; it is computed and tested against ``stop``
    every round.  ``observe(states)`` maps a list of new states of
    consecutive rounds to a dict of the other trace columns, each a list or
    a 1-d numpy array with one number per state (:func:`per_state` adapts a
    per-state observer).  It returns the same columns for every chunk of a
    run, since a trace column has a value in every row or is absent.
    The loop holds the new states (each has its iterate as ``x``) and
    observes them in chunks (:data:`CHUNK_ROWS`, :data:`CHUNK_BYTES`) and
    once more when the run ends; it never observes an empty list.  A
    non-finite residual ends the run as diverged; the last state with a
    finite residual is returned and the diverging step is not recorded.
    """
    stop = stop or StoppingRule()
    observe = observe or _no_columns
    trace = ConvergenceTrace()
    trace.status = "converged" if math.isinf(stop.tol) else "budget"
    it = 0
    held, residuals, held_bytes = [], [], 0
    # overflow on the way to a non-finite residual is reported by the verdict
    with np.errstate(over="ignore", invalid="ignore"):
        while trace.status == "budget" and it < stop.max_iters:
            new = step(state)
            res = residual(state, new)
            if not math.isfinite(res):
                trace.status = "diverged"
                break
            it += 1
            held.append(new)
            residuals.append(res)
            held_bytes += new.x.nbytes
            state = new
            if res <= stop.tol:
                trace.status = "converged"
            elif len(held) == CHUNK_ROWS or held_bytes >= CHUNK_BYTES:
                _record(trace, held, residuals, observe)
                held_bytes = 0
        if held:
            _record(trace, held, residuals, observe)
    return state, trace


def _record(trace, held, residuals, observe):
    """Append the rows of the held states, the rounds after the trace's last; empty the chunk."""
    if min(residuals) < 0:
        raise ValueError("fp_residual must be a nonnegative number")
    trace._extend(trace.iterations + 1, residuals, observe(held))
    held.clear()
    residuals.clear()
