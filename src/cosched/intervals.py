"""Closed time intervals measured in seconds since the start of the horizon."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class TimeInterval:
    start: float
    end: float

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"interval start {self.start} > end {self.end}")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "TimeInterval") -> bool:
        """True iff the intervals share positive-length time.

        Abutting intervals ([0, 63] and [63, 126]) do not overlap; two tasks
        may be executed back to back.
        """
        return max(self.start, other.start) < min(self.end, other.end)

    def intersect(self, other: "TimeInterval") -> "TimeInterval | None":
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if lo >= hi:
            return None
        return TimeInterval(lo, hi)

    def contains(self, other: "TimeInterval") -> bool:
        return self.start <= other.start and other.end <= self.end


def disjoint_sorted(intervals: list[TimeInterval]) -> bool:
    """True iff intervals are sorted by start and pairwise non-overlapping."""
    for a, b in zip(intervals, intervals[1:]):
        if b.start < a.start or a.overlaps(b):
            return False
    return True
