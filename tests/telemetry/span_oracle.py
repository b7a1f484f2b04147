"""The span recorder as it kept a ``Span`` object a span, kept as the
reference.

This is ``repro.telemetry.spans.SpanRecorder`` before a trace became its
span table: every ``record`` and ``enter`` builds a six-slot ``Span``
and appends it to the trace's list, the handle ``enter`` returns is that
``Span``, and ``exit`` stamps its ``end`` (``None`` while open).  A
finished trace is attributed by the per-piece search of
``attribution_oracle.py`` and folded into its histograms through
``Histogram.observe``.  It is slow and it is the reference:
``test_span_machine.py`` holds the column recorder to it step by step —
exports, orphans, audits, attribution and the registry's ``spans.*``
metrics.
"""

from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.spans import KIND_SERVICE, SPAN_SCHEMA_VERSION

from .attribution_oracle import attribute_trace


class Span:
    """One stage crossing: ``[start, end)`` at ``stage``; ``end`` is
    ``None`` until the span is exited."""

    __slots__ = ("span_id", "trace_id", "stage", "kind", "start", "end")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "stage": self.stage,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
        }


class Trace:
    """The span tree of one packet: a root interval plus stage spans."""

    __slots__ = ("trace_id", "name", "start", "end", "spans", "events")

    def __init__(self, trace_id: int, name: str, start: float):
        self.trace_id = trace_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.spans: List[Span] = []
        self.events: List[Tuple[float, str]] = []

    def orphan_spans(self) -> List[Span]:
        if self.end is None:
            return []
        return [span for span in self.spans if span.end is None]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "spans": [span.to_dict() for span in self.spans],
            "events": [{"time": t, "name": n} for t, n in self.events],
        }


class OracleSpanRecorder:
    """The object-per-span recorder: same constructor, same calls."""

    def __init__(self, sample_rate: int = 1, max_traces: int = 100_000,
                 registry=None):
        if sample_rate < 1:
            raise ValueError("sample_rate must be >= 1")
        self.sample_rate = sample_rate
        self.max_traces = max_traces
        self.registry = registry
        self.sampled = 0
        self.skipped = 0
        self.dropped = 0
        self.seen = 0
        self._next_trace = 1
        self._next_span = 1
        self._traces: Dict[int, Trace] = {}

    def start_trace(self, name: str, now: float) -> Optional[Trace]:
        self.seen += 1
        if (self.seen - 1) % self.sample_rate != 0:
            outcome = "skipped"
            self.skipped += 1
        elif len(self._traces) >= self.max_traces:
            outcome = "dropped"
            self.dropped += 1
        else:
            outcome = "sampled"
            self.sampled += 1
        if self.registry is not None:
            self.registry.counter(f"spans.sampler.{outcome}").value += 1
        if outcome != "sampled":
            return None
        trace = Trace(self._next_trace, name, now)
        self._traces[trace.trace_id] = trace
        self._next_trace += 1
        return trace

    def end_trace(self, ctx: Optional[Trace], now: float) -> None:
        if ctx is None or ctx.end is not None:
            return
        ctx.end = now
        if self.registry is None:
            return
        totals, unattributed = attribute_trace(ctx)
        registry = self.registry
        registry.histogram("spans.e2e").observe(now - ctx.start)
        registry.histogram("spans.unattributed").observe(unattributed)
        for (stage, kind), seconds in totals.items():
            registry.histogram(f"spans.stage.{stage}.{kind}").observe(seconds)

    def _span(self, ctx: Trace, stage: str, kind: str, start: float,
              end: Optional[float]) -> Span:
        span = Span()
        span.span_id = self._next_span
        self._next_span += 1
        span.trace_id = ctx.trace_id
        span.stage = stage
        span.kind = kind
        span.start = start
        span.end = end
        ctx.spans.append(span)
        return span

    def enter(self, ctx: Optional[Trace], stage: str, now: float,
              kind: str = KIND_SERVICE) -> Optional[Span]:
        if ctx is None:
            return None
        return self._span(ctx, stage, kind, now, None)

    def exit(self, span_id: Optional[Span], now: float) -> None:
        if span_id is not None and span_id.end is None:
            span_id.end = now

    def record(self, ctx: Optional[Trace], stage: str, start: float,
               end: float, kind: str = KIND_SERVICE) -> None:
        if ctx is not None:
            self._span(ctx, stage, kind, start, end)

    def event(self, ctx: Optional[Trace], name: str, now: float) -> None:
        if ctx is not None:
            ctx.events.append((now, name))

    def pending_stashes(self) -> List[Any]:
        """Nothing is stashed: the machine drives no stash or claim."""
        return []

    def finished_traces(self) -> List[Trace]:
        return [t for t in self._traces.values() if t.end is not None]

    def unfinished_traces(self) -> List[Trace]:
        return [t for t in self._traces.values() if t.end is None]

    def orphan_spans(self) -> List[Span]:
        return [span for trace in self._traces.values()
                for span in trace.orphan_spans()]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SPAN_SCHEMA_VERSION,
            "sample_rate": self.sample_rate,
            "seen": self.seen,
            "sampled": self.sampled,
            "skipped": self.skipped,
            "dropped": self.dropped,
            "traces": [t.to_dict() for t in sorted(
                self._traces.values(), key=lambda t: t.trace_id)],
        }
