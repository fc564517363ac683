"""In-memory span recorder that times thetamod's layers from outside.

Spans are recorded by wrapping public functions at the module attribute
through which their callers reach them (for example the
``reduce_to_fundamental_domain`` name inside ``thetamod.transform``), so the
library itself is not edited.  Each span keeps its name, start, end, the
index of the span that was open when it began, the operation it belongs to,
and an optional detail taken from the call (a counter from the returned
object, or a key from the arguments).  Spans live in flat arrays until the
pass ends, because a residue pass records close to a million kernel spans;
self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import statistics
import time
from array import array
from contextlib import contextmanager


class Tracer:
    """Collects spans from wrapped calls; `op` names the current operation."""

    def __init__(self) -> None:
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child_time = array("d")
        self.parent = array("l")
        self.op_id = array("l")
        self.detail: list = []
        self._stack: list[int] = []
        self._groups: dict[int, list[int]] = {}
        self._grouped_upto = 0
        self.op = -1

    def wrap(self, name, fn, detail=None):
        """Return fn wrapped in a span; detail(args, result) fills the span's detail."""
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(self.start)
            parent = stack[-1] if stack else -1
            self.name_id.append(nid)
            self.parent.append(parent)
            self.op_id.append(self.op)
            self.child_time.append(0.0)
            self.end.append(0.0)
            self.detail.append(None)
            stack.append(index)
            result = None
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                self.end[index] = t1
                if parent >= 0:
                    self.child_time[parent] += t1 - t0
                if detail is not None and result is not None:
                    self.detail[index] = detail(args, result)

        traced.__wrapped__ = fn
        return traced

    def indices(self, name: str) -> list[int]:
        """Indices of the spans with this name, grouped once per batch of new spans."""
        if self._grouped_upto != len(self.name_id):
            self._groups = {}
            for i, nid in enumerate(self.name_id):
                self._groups.setdefault(nid, []).append(i)
            self._grouped_upto = len(self.name_id)
        return self._groups.get(self._name_ids.get(name), [])

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def self_time(self, i: int) -> float:
        return self.end[i] - self.start[i] - self.child_time[i]


@contextmanager
def patched(tracer: Tracer, targets):
    """Replace module attributes by traced wrappers for the duration of a pass.

    targets: iterable of (module, attribute, span name, detail or None).
    """
    saved = []
    try:
        for module, attr, name, detail in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, detail))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def median(values) -> float:
    """Median of a non-empty sample; an empty one means a layer was never reached."""
    values = list(values)
    if not values:
        raise ValueError("no spans recorded for a layer metric")
    return float(statistics.median(values))
