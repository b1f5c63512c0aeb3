"""Order statistics and failure counting for benchmark results."""

from __future__ import annotations

import bisect
import math
import statistics

# Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile is reported only when this many samples lie beyond it,
# so that one stray sample cannot set it.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def percentile(sorted_values, p: float):
    """Nearest-rank percentile of an ascending, non-empty sequence."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100.0 * n - 1e-9))
    return sorted_values[min(rank, n) - 1]


def tail_percentile(n: int) -> float:
    """The highest ladder percentile that leaves MIN_BEYOND of n samples above it."""
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n - 1e-9) >= MIN_BEYOND:
            return p
    return 50.0


def tail(values):
    """The highest ladder percentile with at least MIN_BEYOND samples above it.

    Returns ``(percentile, value, beyond)`` where ``beyond`` counts the
    samples strictly greater than ``value``.  With too few samples for any
    ladder step the median is returned with its own (smaller) count.
    """
    s = sorted(values)
    if not s:
        raise ValueError("tail of an empty sample")
    p = tail_percentile(len(s))
    v = percentile(s, p)
    return p, v, len(s) - bisect.bisect_right(s, v)


def per_op(rounds):
    """The median of each operation's times over rounds of the same operations.

    The code is deterministic and every round runs the same operations in
    the same order from cold caches, so the times of one operation differ
    only by what else the host ran meanwhile.
    """
    if not rounds or len({len(r) for r in rounds}) != 1:
        raise ValueError("rounds must be non-empty and of equal length")
    return [median(times) for times in zip(*rounds)]


class OpLog:
    """Latency and failure record of one round of operations.

    An operation counts as failed when any of its checks failed or it
    raised, however many checks failed.
    """

    MAX_MESSAGES = 20

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.messages: list[str] = []

    def record(self, start: float, end: float, errors) -> None:
        self.latencies.append(end - start)
        if errors:
            self.failed += 1
            room = self.MAX_MESSAGES - len(self.messages)
            self.messages.extend(list(errors)[: max(room, 0)])

    @property
    def attempted(self) -> int:
        return len(self.latencies)
