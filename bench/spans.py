"""Spans and call counters for the traced benchmark run.

Spans are recorded only around the calls the benchmark itself makes into
pfrac: one root span per operation and one child span per kernel call made
while that operation runs.  Nothing inside the package is instrumented, so a
kernel's self time includes every helper it calls.  Spans stay in memory and
are summarised when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

#: mpmath entry points whose calls are counted per innermost span
MPMATH_FUNCTIONS = ("log", "sin", "cos", "exp", "cot", "sqrt", "polylog")


@dataclass
class Span:
    name: str
    op: int                # index of the operation (root span) this span belongs to
    parent: int | None     # index of the enclosing span, None for a root span
    start: float
    end: float = 0.0
    failed: bool = False   # the call raised
    mpmath_calls: int = 0  # counted mpmath calls while this was the innermost span


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    """Records nested spans on one thread and counts calls made inside them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._ops = 0

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        if parent is None:
            op = self._ops
            self._ops += 1
        else:
            op = self.spans[parent].op
        sp = Span(name, op, parent, self.clock())
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        try:
            yield sp
        except Exception:
            sp.failed = True
            raise
        finally:
            sp.end = self.clock()
            self._open.pop()

    def wrap(self, name: str, fn):
        """`fn` with every call recorded as a span called `name`."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def counted(self, fn):
        """`fn` with every call charged to the innermost open span."""
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            if self._open:
                self.spans[self._open[-1]].mpmath_calls += 1
            return fn(*args, **kwargs)
        return counting

    @contextmanager
    def counting_mpmath(self, module):
        """Replace the counted functions of the mpmath module while the block runs."""
        originals = {name: getattr(module, name) for name in MPMATH_FUNCTIONS}
        try:
            for name, fn in originals.items():
                setattr(module, name, self.counted(fn))
            yield
        finally:
            for name, fn in originals.items():
                setattr(module, name, fn)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part of it that its child spans cover."""
        children = defaultdict(list)
        for sp in self.spans:
            if sp.parent is not None:
                children[sp.parent].append((sp.start, sp.end))
        return [sp.end - sp.start - covered(children[i], sp.start, sp.end)
                for i, sp in enumerate(self.spans)]

    def summary(self, names) -> dict:
        """{name: {calls, failed, busy_s, mpmath_calls}} for each of `names`,
        zero for a name that never ran."""
        out = {name: {"calls": 0, "failed": 0, "busy_s": 0.0, "mpmath_calls": 0}
               for name in names}
        for sp, busy in zip(self.spans, self.self_times()):
            row = out.get(sp.name)
            if row is None:
                continue
            row["calls"] += 1
            row["failed"] += sp.failed
            row["busy_s"] += busy
            row["mpmath_calls"] += sp.mpmath_calls
        return out
