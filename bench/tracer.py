"""Spans and operator proxies for the benchmark's traced runs.

The benchmark times the package from the outside.  A :class:`Tracer` keeps a
stack of open spans (setup phases, solve call, audit call, reference solve),
each with its parent's id.  The proxies below wrap the objects a solver
calls every round -- mixing matrices, proxes, forward maps and coupling
gradients -- and charge each call's count and busy time to the innermost
open span, so memory stays bounded however many rounds a solve takes.

Proxies return exactly what the wrapped object returns, so a traced solve
reproduces the untraced one bit for bit; every other attribute is delegated.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

_clock = time.perf_counter


@dataclass
class Span:
    """One timed call into a layer; ``calls`` maps a call kind to ``[count, busy_s]``."""

    id: int
    name: str
    parent: int | None
    start: float
    end: float | None = None
    calls: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start

    def busy(self, prefix):
        """Count and busy seconds of the calls whose kind starts with ``prefix``."""
        count, busy = 0, 0.0
        for kind, (c, b) in self.calls.items():
            if kind == prefix or kind.startswith(prefix + "."):
                count += c
                busy += b
        return count, busy

    def self_time(self):
        """Span duration minus the time its per-call boundaries cover."""
        return self.duration - sum(b for _, b in self.calls.values())

    def record(self):
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "duration_s": self.duration,
                "calls": {k: {"count": c, "busy_s": b} for k, (c, b) in sorted(self.calls.items())}}


class Tracer:
    """In-memory span recorder; spans nest through :meth:`span`."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1].id if self._open else None
        s = Span(id=len(self.spans), name=name, parent=parent, start=_clock())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = _clock()
            self._open.pop()

    def charge(self, kind, seconds):
        entry = self._open[-1].calls.setdefault(kind, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds


class _Proxy:
    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracedMixing(_Proxy):
    """Times ``MixingMatrix.apply``."""

    def apply(self, x):
        t = _clock()
        out = self._inner.apply(x)
        self._tracer.charge("mix", _clock() - t)
        return out


class TracedProx(_Proxy):
    """Times each prox call, charged as ``prox.<kind>``."""

    def __init__(self, inner, tracer):
        super().__init__(inner, tracer)
        self._kind = "prox." + inner.kind

    def __call__(self, tau, point):
        t = _clock()
        out = self._inner(tau, point)
        self._tracer.charge(self._kind, _clock() - t)
        return out


class TracedForward(_Proxy):
    """Times each forward-operator evaluation."""

    def __call__(self, z):
        t = _clock()
        out = self._inner(z)
        self._tracer.charge("forward", _clock() - t)
        return out


class TracedCoupling(_Proxy):
    """Times ``grad_x`` and ``grad_y`` of a smooth coupling."""

    def grad_x(self, x, y):
        t = _clock()
        out = self._inner.grad_x(x, y)
        self._tracer.charge("forward.grad_x", _clock() - t)
        return out

    def grad_y(self, x, y):
        t = _clock()
        out = self._inner.grad_y(x, y)
        self._tracer.charge("forward.grad_y", _clock() - t)
        return out
