"""Unified tracing + metrics for the simulated datapath.

Three pieces:

* :mod:`repro.telemetry.metrics` — the :class:`MetricsRegistry` of
  hierarchically-named counters, gauges and log-bucketed histograms,
  with JSON export and snapshots;
* :mod:`repro.telemetry.trace` — the :class:`Tracer` recording spans and
  instants against the simulator clock, exported as Chrome
  ``chrome://tracing`` / Perfetto JSON;
* :mod:`repro.telemetry.sink` — the :class:`Telemetry` bundle and the
  :data:`NULL_TELEMETRY` fast path used when telemetry is off;
* :mod:`repro.telemetry.spans` — causal per-packet span trees
  (:class:`SpanRecorder`) for latency attribution, with
  :mod:`repro.telemetry.latency` building Table-6-style per-stage
  reports and :mod:`repro.telemetry.audit` checking runtime invariants
  (orphaned spans, credit/buffer leaks, retransmit storms);
* :mod:`repro.telemetry.profile` — the deterministic simulator profiler
  (:class:`SimProfiler`): per-event owner tagging in the engine run
  loop, per-stage event attribution, heap-depth timeline and optional
  wall-clock callsite totals with collapsed-stack output.

Usage: build a :class:`Telemetry`, hand it to the simulator, and every
instrumented component lights up::

    from repro.sim import Simulator
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    sim = Simulator(telemetry=telemetry)
    ...  # build testbed, run experiment
    telemetry.tracer.write("trace.json")       # open in ui.perfetto.dev
    print(telemetry.metrics.to_json())

Whole experiments run observed through :func:`repro.scenario.observe`
(``python -m repro trace|latency|profile|objects``), which lives outside
this package: it depends on the experiment layer, while this package
must stay importable from the simulation core.
"""

from .audit import (
    AuditError,
    Violation,
    assert_clean,
    audit_all,
    audit_fabric,
    audit_fld,
    audit_nic,
    audit_spans,
)
from .latency import build_report, render_report, report_from_registry
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    Snapshot,
)
from .profile import NULL_PROFILER, NullSimProfiler, SimProfiler
from .spans import (
    NULL_SPANS,
    NullSpanRecorder,
    Span,
    SpanRecorder,
    Trace,
    TraceContext,
    attribute_trace,
)
from .sink import (
    NULL_REGISTRY,
    NULL_TELEMETRY,
    NullRegistry,
    NullTelemetry,
    Telemetry,
)
from .trace import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "AuditError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "NULL_PROFILER",
    "NULL_REGISTRY",
    "NULL_SPANS",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "NullRegistry",
    "NullSimProfiler",
    "NullSpanRecorder",
    "NullTelemetry",
    "NullTracer",
    "SimProfiler",
    "Snapshot",
    "Span",
    "SpanRecorder",
    "Telemetry",
    "Trace",
    "TraceContext",
    "Tracer",
    "Violation",
    "assert_clean",
    "attribute_trace",
    "audit_all",
    "audit_fabric",
    "audit_fld",
    "audit_nic",
    "audit_spans",
    "build_report",
    "render_report",
    "report_from_registry",
]
