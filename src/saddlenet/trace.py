"""Stopping rules and per-iteration convergence traces."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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


class ConvergenceTrace:
    """Append-only record of one solver run, kept as one column per field.

    Iteration numbers must increase strictly and residuals are nonnegative;
    optional columns are per-row and simply left blank in the CSV when
    absent.  ``status`` says why the run stopped: ``"converged"`` (the
    residual met the tolerance), ``"budget"`` (the iteration budget ran out)
    or ``"diverged"`` (a residual was not finite; that round is not
    recorded).  It is None until :func:`run_loop` sets it.

    The iterations are a ``range`` while they are consecutive; an optional
    column exists once a row has a value in it, with None in the rows
    without one.  :attr:`rows` builds the :class:`TraceRow` view on first use.
    """

    def __init__(self):
        self.status = None
        self._iteration = range(1, 1)
        self._residual = []
        self._optional = {}
        self._rows = None

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
        rows have; the other columns get None.  The caller checks the
        residuals and that ``first`` follows the last iteration.
        """
        count, size = len(residuals), len(self._residual)
        for name, values in columns.items():
            if name not in _OPTIONAL:
                raise ValueError(f"unknown trace column {name!r}")
            if len(values) != count:
                raise ValueError(f"column {name!r} has {len(values)} values for {count} rows")
        its = self._iteration
        if isinstance(its, range) and type(first) is int and (not its or its.stop == first):
            self._iteration = range(its.start if its else first, first + count)
        else:
            if isinstance(its, range):
                its = self._iteration = list(its)
            its.extend(first + k for k in range(count))
        self._residual += residuals
        for name, values in columns.items():
            if name not in self._optional:
                self._optional[name] = [None] * size
            self._optional[name] += values
        for name, column in self._optional.items():
            if name not in columns:
                column += [None] * count
        self._rows = None

    def column(self, name):
        """The values of column ``name``, one per row (None where a row has none)."""
        if name == "iteration":
            return self._iteration
        if name == "fp_residual":
            return self._residual
        if name not in _OPTIONAL:
            raise ValueError(f"unknown trace column {name!r}")
        return self._optional.get(name, [None] * len(self._residual))

    def set_column(self, name, values):
        """Replace the optional column ``name`` with ``values``, one per row."""
        if name not in _OPTIONAL:
            raise ValueError(f"not an optional trace column: {name!r}")
        values = list(values)
        if len(values) != len(self._residual):
            raise ValueError(f"column {name!r} has {len(values)} values "
                             f"for {len(self._residual)} rows")
        self._optional[name] = values
        self._rows = None

    @property
    def rows(self):
        """The rows as :class:`TraceRow`s, built on first use and kept until the trace grows."""
        if self._rows is None:
            self._rows = [TraceRow(*cells)
                          for cells in zip(*(self.column(name) for name in _COLUMNS))]
        return self._rows

    @property
    def iterations(self):
        return self._iteration[-1] if self._residual else 0

    @property
    def final_residual(self):
        return self._residual[-1] if self._residual else float("inf")

    def active_columns(self):
        return ["iteration", "fp_residual"] + [
            name for name in _OPTIONAL
            if any(v is not None for v in self._optional.get(name, ()))]

    def csv_lines(self, every=1):
        """CSV serialization of the rows :func:`kept_rows` keeps.

        Subsampling changes which rows are written, never their content.
        """
        cols = self.active_columns()
        data = [self.column(name) for name in cols]
        lines = [",".join(cols)]
        for idx in kept_rows(len(self._residual), every):
            lines.append(",".join(_cell(col[idx]) for col in data))
        return lines


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
    consecutive rounds to a dict of the other trace columns, each a list
    with one value per state (:func:`per_state` adapts a per-state observer).
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
