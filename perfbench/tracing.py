"""In-memory spans around the benchmark's own calls into the package.

A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` is the index
of the enclosing span or -1, ``op`` the operation id (-1 during set-up).
Span names are ``<module>.<function>``; the module part names the layer.
"""

from __future__ import annotations

import time
from collections import defaultdict

_now = time.perf_counter_ns


class NullTracer:
    """Untraced runs: calls go straight through."""

    op = -1

    def call(self, name, fn, *args):
        return fn(*args)

    def begin(self, name):
        return None

    def end(self, token):
        pass


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op = -1

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self._stack.pop()
        self.spans[idx][2] = _now()

    def call(self, name, fn, *args):
        idx = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(idx)


def summarize(spans) -> dict:
    """Busy time and call count per span name, self time per module.

    A span's self time is its duration minus the time its child spans
    cover; children never overlap because calls are sequential.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    busy: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    for idx, (name, start, end, _parent, _op) in enumerate(spans):
        dur = end - start
        busy[name] += dur / 1e9
        calls[name] += 1
        self_s[name.split(".", 1)[0]] += (dur - child_ns[idx]) / 1e9
    return {
        "spans": len(spans),
        "busy_s": dict(busy),
        "calls": dict(calls),
        "self_s": dict(self_s),
    }
