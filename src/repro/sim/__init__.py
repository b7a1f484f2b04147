"""Discrete-event simulation substrate.

Provides the clock, processes, channels and bandwidth-limited links that
every timed experiment in the reproduction is built on.
"""

from .engine import (
    Continuation,
    Event,
    Process,
    Pump,
    Resource,
    SimulationError,
    Simulator,
    Store,
)
from .resources import DuplexLink, Link, TokenBucket
from .stats import (
    Histogram,
    LatencyCollector,
    ThroughputMeter,
    percentile,
)

__all__ = [
    "Continuation",
    "DuplexLink",
    "Event",
    "Histogram",
    "LatencyCollector",
    "Link",
    "Process",
    "Pump",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "ThroughputMeter",
    "TokenBucket",
    "percentile",
]
