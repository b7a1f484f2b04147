"""Sweep targets for the runner tests.

These must live in an importable module (not a test body) because the
runner addresses targets by dotted path and pool workers re-import
them.
"""

from __future__ import annotations

import random
from typing import Dict

#: A module attribute that is not callable, for the resolver's refusal.
NOT_CALLABLE = 42


def add(a: int, b: int) -> Dict:
    """A trivial target whose result also exposes the seeded RNG."""
    return {"sum": a + b, "noise": random.random()}


def boom() -> Dict:
    """A target that always fails."""
    raise RuntimeError("sweep target exploded")


def not_json() -> object:
    """A target whose result does not round-trip through JSON."""
    return object()


def nan() -> Dict:
    """A target whose result holds a NaN, which JSON cannot."""
    return {"value": float("nan")}


def echo(value) -> Dict:
    """A target that returns its param, tuples and all."""
    return {"value": value, "pair": (value, value)}


def with_telemetry(n: int, telemetry=None) -> Dict:
    """A target that records into the injected telemetry."""
    if telemetry is not None:
        telemetry.metrics.counter("test.calls").inc()
        hist = telemetry.metrics.histogram("test.values")
        for i in range(n):
            hist.observe(float(i))
    return {"n": n}


def with_spans(n: int, telemetry=None) -> Dict:
    """A target that records span traces into the injected telemetry."""
    if telemetry is not None and telemetry.spans.enabled:
        spans = telemetry.spans
        for i in range(n):
            ctx = spans.start_trace(f"t{i}", 0.0)
            spans.record(ctx, "wire", 0.0, 1e-6)
            spans.end_trace(ctx, 2e-6)
    return {"n": n}


def with_profile(n: int, telemetry=None) -> Dict:
    """A target that runs a tiny simulation under the event profiler."""
    from repro.sim import Simulator
    sim = Simulator(telemetry=telemetry)

    def proc(sim):
        for _ in range(n):
            yield sim.timeout(1.0)

    sim.spawn(proc(sim), name="worker")
    sim.run()
    return {"n": n}
