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
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    fp_residual: float
    consensus_gap_x: float | None = None
    consensus_gap_y: float | None = None
    distance_to_reference: float | None = None
    messages_cum: int | None = None


_COLUMNS = tuple(f.name for f in fields(TraceRow))


class ConvergenceTrace:
    """Append-only record of one solver run.

    Iteration numbers must increase strictly and residuals are nonnegative;
    optional columns are per-row and simply left blank in the CSV when
    absent.  ``status`` says why the run stopped: ``"converged"`` (the
    residual met the tolerance), ``"budget"`` (the iteration budget ran out)
    or ``"diverged"`` (a residual was not finite; that round is not
    recorded).  It is None until :func:`run_loop` sets it.
    """

    def __init__(self):
        self.rows = []
        self.status = None

    @property
    def converged(self):
        return self.status == "converged"

    def append(self, row):
        if row.fp_residual < 0 or math.isnan(row.fp_residual):
            raise ValueError("fp_residual must be a nonnegative number")
        if self.rows and row.iteration <= self.rows[-1].iteration:
            raise ValueError("iterations must be strictly increasing")
        self.rows.append(row)

    @property
    def iterations(self):
        return self.rows[-1].iteration if self.rows else 0

    @property
    def final_residual(self):
        return self.rows[-1].fp_residual if self.rows else float("inf")

    def active_columns(self):
        cols = ["iteration", "fp_residual"]
        for name in _COLUMNS[2:]:
            if any(getattr(r, name) is not None for r in self.rows):
                cols.append(name)
        return cols

    def csv_lines(self, every=1):
        """CSV serialization of the rows :func:`kept_rows` keeps.

        Subsampling changes which rows are written, never their content.
        """
        cols = self.active_columns()
        lines = [",".join(cols)]
        for idx in kept_rows(len(self.rows), every):
            row = self.rows[idx]
            cells = []
            for name in cols:
                v = getattr(row, name)
                cells.append("" if v is None else (str(v) if isinstance(v, int) else repr(float(v))))
            lines.append(",".join(cells))
        return lines


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
    """A :func:`run_loop` observer from ``observe(state)``, the columns of one state."""
    if observe is None:
        return None
    return lambda states: [observe(s) for s in states]


def _no_columns(states):
    return [{}] * len(states)


def run_loop(step, state, stop, residual, observe=None):
    """Step ``state`` until ``stop`` (default :class:`StoppingRule`) ends the run.

    Returns the last state and its trace.  ``residual(old, new)`` is one
    step's fixed-point residual; it is computed and tested against ``stop``
    every round.  ``observe(states)`` maps a list of new states of
    consecutive rounds to one dict of the other trace columns per state.
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
    first = trace.iterations + 1
    for k, (res, extras) in enumerate(zip(residuals, observe(held), strict=True), start=first):
        trace.append(TraceRow(iteration=k, fp_residual=res, **extras))
    held.clear()
    residuals.clear()
