"""Parallelism profile: operations per topologically sorted DDG level.

The profile is kept exact as one dense list of operation counts, indexed by
level; rendering to a fixed number of points bins level ranges and reports
the average operations per level within each range, exactly as the paper
describes for large ``Ldest`` ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass
class ProfileBin:
    """One rendered profile point covering ``[start, end)`` levels."""

    start: int
    end: int
    operations: int

    @property
    def average(self) -> float:
        """Average operations per level within the bin."""
        return self.operations / (self.end - self.start)


class ParallelismProfile:
    """Exact operations-per-level histogram with binned rendering.

    ``counts[level]`` is the number of operations completing at ``level``;
    levels no operation completes at hold 0, so ``len(counts)`` is the
    depth.
    """

    def __init__(self, counts: Optional[List[int]] = None):
        self.counts: List[int] = counts if counts is not None else []

    def add(self, level: int, count: int = 1) -> None:
        """Record ``count`` operations completing at ``level``."""
        if level < 0:
            raise ValueError(f"negative profile level {level}")
        counts = self.counts
        if level >= len(counts):
            counts.extend([0] * (level + 1 - len(counts)))
        counts[level] += count

    # -- scalar summaries -------------------------------------------------

    @property
    def total_operations(self) -> int:
        """Total placed operations (profile mass)."""
        return sum(self.counts)

    @property
    def depth(self) -> int:
        """Critical path length: number of levels from 0 through the deepest
        level used (inclusive). Zero for an empty profile."""
        return len(self.counts)

    @property
    def max_width(self) -> int:
        """Most operations in any single level (the paper's "maximum number
        of resources required")."""
        return max(self.counts, default=0)

    @property
    def average_parallelism(self) -> float:
        """Mean operations per level over the critical path."""
        depth = self.depth
        return self.total_operations / depth if depth else 0.0

    def burstiness(self) -> float:
        """Coefficient of variation of per-level operation counts (empty
        levels included). The paper observes parallelism is "bursty": high
        values here quantify that."""
        depth = self.depth
        if depth == 0:
            return 0.0
        mean = self.total_operations / depth
        if mean == 0:
            return 0.0
        sum_sq = sum(count * count for count in self.counts)
        variance = sum_sq / depth - mean * mean
        return math.sqrt(max(variance, 0.0)) / mean

    # -- rendering ---------------------------------------------------------

    def binned(self, max_points: int = 100) -> List[ProfileBin]:
        """Bin the profile to at most ``max_points`` ranges."""
        depth = self.depth
        if depth == 0:
            return []
        width = max(1, math.ceil(depth / max_points))
        counts = self.counts
        return [
            ProfileBin(start, min(start + width, depth), sum(counts[start : start + width]))
            for start in range(0, depth, width)
        ]

    def series(self, max_points: int = 100) -> Tuple[List[int], List[float]]:
        """(level, avg-operations) series for plotting."""
        bins = self.binned(max_points)
        return [b.start for b in bins], [b.average for b in bins]

    def ascii_plot(self, width: int = 72, height: int = 16) -> str:
        """Render the profile as an ASCII chart (Figure 7 stand-in)."""
        bins = self.binned(width)
        if not bins:
            return "(empty profile)"
        peak = max(b.average for b in bins)
        if peak <= 0:
            return "(flat profile)"
        rows = []
        for row in range(height, 0, -1):
            threshold = peak * (row - 0.5) / height
            line = "".join("#" if b.average >= threshold else " " for b in bins)
            rows.append(f"{peak * row / height:>12.1f} |{line}")
        rows.append(" " * 13 + "+" + "-" * len(bins))
        rows.append(
            f"{'':13}0{'':{max(0, len(bins) - len(str(self.depth)) - 1)}}{self.depth}"
        )
        rows.append(f"{'':13}level in DDG (ops/level, peak={peak:.1f})")
        return "\n".join(rows)
