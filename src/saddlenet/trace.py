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

# the mask byte of a cell without a value, and of an int held by a float array
_NONE, _INT = 1, 2


def _kind(cls):
    """The kind of a cell of type ``cls``: ``int``, ``float`` or None."""
    if cls is type(None):
        return None
    if issubclass(cls, (int, np.integer)):
        return int
    if issubclass(cls, (float, np.floating)):
        return float
    raise ValueError(f"trace cells are numbers or None, not {cls.__name__}")


def _exact_float(value):
    held = float(value)
    if held != value:
        raise ValueError(f"the int {value!r} is in a column of floats and is not exact as one")
    return held


def _read(value, mark):
    return value if not mark else None if mark == _NONE else int(value)


class _Column(Sequence):
    """One trace column at 8 bytes a cell, with a mask of cell kinds once one is needed.

    The cells are a ``range`` while they are an arithmetic run of ints, an
    ``array('q')`` while every value is an int and an ``array('d')``
    otherwise.  ``mask`` is None until a cell has no value or an int joins
    a float array; from then on it holds one byte per cell: ``_NONE`` (the
    cell reads as None), ``_INT`` (an int, exact in the float array) or 0
    (the value as held).  Cells read as Python ``int``, ``float`` or None.
    """

    __slots__ = ("cells", "mask")

    def __init__(self, cells=range(0), mask=None):
        self.cells, self.mask = cells, mask

    @classmethod
    def missing(cls, count):
        """``count`` cells without a value."""
        return cls(array("q", bytes(8 * count)), bytearray([_NONE]) * count) if count else cls()

    def __len__(self):
        return len(self.cells)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return [self[k] for k in range(*idx.indices(len(self)))]
        value = self.cells[idx]
        return value if self.mask is None else _read(value, self.mask[idx])

    def __iter__(self):
        return iter(self.cells) if self.mask is None else map(_read, self.cells, self.mask)

    def has_value(self):
        return len(self.cells) > (0 if self.mask is None else self.mask.count(_NONE))

    def _as_array(self):
        if isinstance(self.cells, range):
            self.cells = array("q", self.cells)

    def _as_float(self):
        """Hold the cells in a float array; the ints held so far are marked and must be exact."""
        self._as_array()
        if self.cells.typecode == "d":
            return
        if not self.has_value():  # only zeros under the mask, which are the bytes of 0.0 too
            self.cells = array("d", self.cells.tobytes())
            return
        mask = self.mask if self.mask is not None else bytearray(len(self.cells))
        self.cells, self.mask = array("d", map(_exact_float, self.cells)), mask.replace(b"\0", bytes([_INT]))

    def extend(self, other):
        """Append the cells of the column ``other``, which is not used afterwards."""
        if not other:
            return
        if not self:
            self.cells, self.mask = other.cells, other.mask
            return
        head, tail = self.cells, other.cells
        if (isinstance(head, range) and isinstance(tail, range)
                and tail.step == head.step and tail.start == head[-1] + head.step):
            self.cells = range(head.start, tail.stop, head.step)
            return
        self._as_array()
        other._as_array()
        if self.cells.typecode != other.cells.typecode:
            self._as_float()
            other._as_float()
        if self.mask is None and other.mask is not None:
            self.mask = bytearray(len(self.cells))
        if self.mask is not None:
            self.mask += other.mask if other.mask is not None else bytes(len(other))
        self.cells += other.cells


def _column(values):
    """A new column of ``values``: a ``range`` as it is, or numbers (Python or numpy) and None."""
    if isinstance(values, range):
        return _Column(values)
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "fiub":
        code = "d" if values.dtype.kind == "f" else "q"
        return _Column(array(code, np.ascontiguousarray(values, dtype=code).tobytes()))
    kinds = {_kind(cls) for cls in set(map(type, values))}
    if kinds == {float}:
        return _Column(array("d", values))
    if kinds <= {int}:
        return _Column(array("q", values))
    code = "d" if float in kinds else "q"
    cells, mask = array(code), bytearray()
    for value in values:
        if value is None:
            cells.append(0)
            mask.append(_NONE)
        elif code == "d" and _kind(type(value)) is int:
            cells.append(_exact_float(value))
            mask.append(_INT)
        else:
            cells.append(value)
            mask.append(0)
    return _Column(cells, mask)


class ConvergenceTrace:
    """Append-only record of one solver run, kept as one column per field.

    Iteration numbers must increase strictly and residuals are nonnegative;
    optional columns are per-row and simply left blank in the CSV when
    absent.  ``status`` says why the run stopped: ``"converged"`` (the
    residual met the tolerance), ``"budget"`` (the iteration budget ran out)
    or ``"diverged"`` (a residual was not finite; that round is not
    recorded).  It is None until :func:`run_loop` sets it.

    A column takes 8 bytes a cell, or none: the iterations are a ``range``
    while they are consecutive, the residuals and the optional columns are
    ``array('d')``, or ``array('q')`` while a column holds only ints, and
    :meth:`set_column` keeps a ``range`` as it is.  An optional column
    exists once a row has a value in it.  A cell without a value reads as
    None and a NaN as NaN: the first gap in a column allocates a mask of
    one byte a cell that tells them apart.  Cells read back as the Python
    ``float``, ``int`` or None written, never as numpy scalars.
    :attr:`rows` is a read-only view that builds the :class:`TraceRow` of a
    row when it is read and keeps none.
    """

    def __init__(self):
        self.status = None
        self._iteration, self._residual = _Column(), _Column()
        self._optional = {}

    @property
    def converged(self):
        return self.status == "converged"

    def append(self, row):
        if row.fp_residual < 0 or math.isnan(row.fp_residual):
            raise ValueError("fp_residual must be a nonnegative number")
        if self._residual and row.iteration <= self._iteration[-1]:
            raise ValueError("iterations must be strictly increasing")
        self._extend(row.iteration, [row.fp_residual],
                     {name: [v] for name in _OPTIONAL if (v := getattr(row, name)) is not None})

    def _extend(self, first, residuals, columns):
        """Append rows ``first, first + 1, ...``, one per residual.

        ``columns`` holds one value per residual for each optional column the
        rows have (a list, a numpy array or a ``range``); the other columns
        get None.  The caller checks the residuals and that ``first``
        follows the last iteration.
        """
        count, size = len(residuals), len(self._residual)
        for name, values in columns.items():
            if name not in _OPTIONAL:
                raise ValueError(f"unknown trace column {name!r}")
            if len(values) != count:
                raise ValueError(f"column {name!r} has {len(values)} values for {count} rows")
        # convert the values, which checks their types, before any column grows
        new = {name: _column(values) for name, values in columns.items()}
        residuals = _column(residuals)
        self._iteration.extend(_column(range(first, first + count) if type(first) is int
                                       else [first + k for k in range(count)]))
        self._residual.extend(residuals)
        for name, column in self._optional.items():
            column.extend(new.pop(name) if name in new else _Column.missing(count))
        for name, column in new.items():
            self._optional[name] = _Column.missing(size)
            self._optional[name].extend(column)

    def column(self, name):
        """The values of column ``name``, one per row (None where a row has none)."""
        if name == "iteration":
            return self._iteration
        if name == "fp_residual":
            return self._residual
        if name not in _OPTIONAL:
            raise ValueError(f"unknown trace column {name!r}")
        column = self._optional.get(name)
        return [None] * len(self._residual) if column is None else column

    def set_column(self, name, values):
        """Replace the optional column ``name`` with ``values``, one per row; a ``range`` stays one."""
        if name not in _OPTIONAL:
            raise ValueError(f"not an optional trace column: {name!r}")
        column = _column(values if hasattr(values, "__len__") else list(values))
        if len(column) != len(self._residual):
            raise ValueError(f"column {name!r} has {len(column)} values "
                             f"for {len(self._residual)} rows")
        self._optional[name] = column

    @property
    def rows(self):
        """The rows as :class:`TraceRow`s: a read-only view that builds a row when it is read."""
        return _Rows(self)

    def _fields(self):
        """The columns in :class:`TraceRow` field order, None for an absent one."""
        return [self._iteration, self._residual] + [self._optional.get(name) for name in _OPTIONAL]

    @property
    def iterations(self):
        return self._iteration[-1] if self._residual else 0

    @property
    def final_residual(self):
        return self._residual[-1] if self._residual else float("inf")

    def active_columns(self):
        return ["iteration", "fp_residual"] + [
            name for name in _OPTIONAL if name in self._optional and self._optional[name].has_value()]

    def csv_lines(self, every=1):
        """CSV serialization of the rows :func:`kept_rows` keeps, as a list of lines.

        Subsampling changes which rows are written, never their content.
        """
        return list(self.iter_csv_lines(every))

    def iter_csv_lines(self, every=1):
        """The lines of :meth:`csv_lines`, each made when it is read."""
        if every < 1:
            raise ValueError("every must be at least 1")
        cols = self.active_columns()
        data = [self.column(name) for name in cols]
        count = len(self._residual)
        # rows 0, every, 2 every, ... before the last one, then the last one
        kept = islice(zip(*data), 0, max(count - 1, 0), every)
        last = [[col[-1] for col in data]] if count else []
        return chain([",".join(cols)], (",".join(map(_cell, cells)) for cells in chain(kept, last)))


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


def _cell(v):
    """One CSV cell: blank for None, ``str`` of an int, ``repr`` of a float (an exact round trip)."""
    return "" if v is None else str(v) if isinstance(v, int) else repr(float(v))


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
    """A :func:`run_loop` observer from ``observe(state)``, the dict of columns of one state."""
    if observe is None:
        return None

    def columns(states):
        rows = [observe(s) for s in states]
        names = {name for row in rows for name in row}
        return {name: [row.get(name) for row in rows] for name in names}

    return columns


def _no_columns(states):
    return {}


def run_loop(step, state, stop, residual, observe=None):
    """Step ``state`` until ``stop`` (default :class:`StoppingRule`) ends the run.

    Returns the last state and its trace.  ``residual(old, new)`` is one
    step's fixed-point residual; it is computed and tested against ``stop``
    every round.  ``observe(states)`` maps a list of new states of
    consecutive rounds to a dict of the other trace columns, each a list or
    a 1-d numpy array with one value per state (:func:`per_state` adapts a
    per-state observer).
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
