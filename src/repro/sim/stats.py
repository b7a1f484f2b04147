"""Statistics helpers for simulation experiments.

Latency collectors with percentile queries and throughput meters; all pure
Python so they can run inside tight simulation loops.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (matching numpy's default).

    ``pct`` is in [0, 100].
    """
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile {pct} outside [0, 100]")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


class LatencyCollector:
    """Accumulates latency samples and reports summary statistics."""

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: List[float] = []

    def add(self, value: float) -> None:
        self.samples.append(value)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            raise ValueError("no samples")
        return sum(self.samples) / len(self.samples)

    @property
    def median(self) -> float:
        return percentile(self.samples, 50.0)

    def pct(self, p: float) -> float:
        return percentile(self.samples, p)

    def summary(self) -> Dict[str, float]:
        """Mean / median / p99 / p99.9, the row format of the paper's Table 6."""
        return {
            "mean": self.mean,
            "median": self.median,
            "p99": self.pct(99.0),
            "p99.9": self.pct(99.9),
        }


class ThroughputMeter:
    """Counts bytes/packets over a measured window to derive rates."""

    def __init__(self, name: str = ""):
        self.name = name
        self.bytes = 0
        self.packets = 0
        self._window_start = 0.0
        self._window_end = 0.0

    def start(self, now: float) -> None:
        self._window_start = now
        self._window_end = now
        self.bytes = 0
        self.packets = 0

    def record(self, now: float, nbytes: int) -> None:
        self.bytes += nbytes
        self.packets += 1
        self._window_end = now

    @property
    def duration(self) -> float:
        return self._window_end - self._window_start

    def gbps(self, wire_overhead_per_packet: int = 0) -> float:
        """Goodput in Gbit/s; optionally count per-packet wire overhead."""
        if self.duration <= 0:
            return 0.0
        bits = (self.bytes + self.packets * wire_overhead_per_packet) * 8
        return bits / self.duration / 1e9

    def mpps(self) -> float:
        """Packet rate in millions of packets per second."""
        if self.duration <= 0:
            return 0.0
        return self.packets / self.duration / 1e6
