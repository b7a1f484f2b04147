"""The telemetry bundle and its null fast path.

A :class:`Telemetry` couples one :class:`~repro.telemetry.metrics.MetricsRegistry`
with one :class:`~repro.telemetry.trace.Tracer`; it is handed to
:class:`repro.sim.Simulator` and reached by every component through
``sim.telemetry``.

The default is :data:`NULL_TELEMETRY`, which hands out no instruments:
components count in plain-int ``stats_*`` attributes, watched or not,
and check ``telemetry.enabled`` once at construction — to register the
sources that publish those ints (``register_counters``, and
``register_gauges`` for levels) and to create the histograms they
otherwise hold as ``None``.  The null bundle and its registry, tracer,
span recorder and profiler are ``enabled = False`` holders with no
methods: every use site checks ``enabled`` (a span site, that its
trace context is not ``None``) before it records.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from .metrics import Histogram, MetricsRegistry, Snapshot
from .profile import NULL_PROFILER, NullSimProfiler, SimProfiler
from .spans import NULL_SPANS, NullSpanRecorder, SpanRecorder
from .trace import NULL_TRACER, NullTracer, Tracer


class NullRegistry:
    """The registry of the disabled bundle: nothing registers with it."""

    enabled = False


NULL_REGISTRY = NullRegistry()


class Telemetry:
    """An enabled metrics + tracing bundle for one simulation.

    ``spans=True`` additionally records causal per-packet span trees
    (:mod:`repro.telemetry.spans`); ``span_sample_rate`` traces one in
    every N packets.  Finished traces feed ``spans.*`` histograms in
    :attr:`metrics`, so span-derived latency attribution merges across
    sweep points like any other metric.

    ``profile=True`` attaches a :class:`~repro.telemetry.profile.SimProfiler`
    the engine picks up for per-event/per-stage cost attribution; event
    counts flush into ``profile.*`` counters in :attr:`metrics` (and so
    merge across sweep points), while ``profile_wallclock=True`` adds
    machine-local handler timing that stays out of the registry.
    """

    enabled = True

    def __init__(self, trace: bool = True, max_trace_events: int = 1_000_000,
                 spans: bool = False, span_sample_rate: int = 1,
                 max_traces: int = 100_000, profile: bool = False,
                 profile_wallclock: bool = False):
        self.metrics = MetricsRegistry()
        self.tracer: Tracer = (Tracer(max_trace_events) if trace
                               else NULL_TRACER)
        self.spans: SpanRecorder = (
            SpanRecorder(sample_rate=span_sample_rate,
                         max_traces=max_traces, registry=self.metrics)
            if spans else NULL_SPANS)
        self.profiler: SimProfiler = (
            SimProfiler(wallclock=profile_wallclock, registry=self.metrics)
            if profile else NULL_PROFILER)

    # Registry passthroughs, so call sites read `telemetry.histogram(...)`.

    def histogram(self, name: str) -> Histogram:
        return self.metrics.histogram(name)

    def register_probe(self, name: str,
                       probe: Callable[[], Dict[str, float]]) -> None:
        self.metrics.register_probe(name, probe)

    def register_counters(self, prefix: str,
                          source: Callable[[], Dict[str, float]]) -> None:
        self.metrics.register_counters(prefix, source)

    def register_gauges(self, prefix: str,
                        source: Callable[[], Dict[str, Any]]) -> None:
        self.metrics.register_gauges(prefix, source)

    def snapshot(self, include_probes: bool = True) -> Snapshot:
        return self.metrics.snapshot(include_probes)


class NullTelemetry:
    """The disabled bundle: ``enabled`` is False and so is every part's.

    It has no ``histogram`` and no ``register_*``: a component that
    wants an instrument checks ``enabled`` at construction.
    """

    enabled = False
    metrics = NULL_REGISTRY
    tracer: NullTracer = NULL_TRACER
    spans: NullSpanRecorder = NULL_SPANS
    profiler: NullSimProfiler = NULL_PROFILER


NULL_TELEMETRY = NullTelemetry()
