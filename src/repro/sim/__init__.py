"""Discrete-event simulation substrate.

Provides the clock, processes, channels and bandwidth-limited links that
every timed experiment in the reproduction is built on.
"""

from .engine import (
    Event,
    PollWait,
    Process,
    Pump,
    SimulationError,
    Simulator,
    Store,
)
from .resources import Link, TokenBucket
from .stats import (
    LatencyCollector,
    ThroughputMeter,
    percentile,
)

__all__ = [
    "Event",
    "LatencyCollector",
    "Link",
    "PollWait",
    "Process",
    "Pump",
    "SimulationError",
    "Simulator",
    "Store",
    "ThroughputMeter",
    "TokenBucket",
    "percentile",
]
