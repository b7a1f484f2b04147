"""Unit tests for the causal span layer: recorder lifecycle, sampling,
serialization-boundary bridges, and attribution exactness."""

import gc

import pytest

from repro.telemetry import (
    MetricsRegistry,
    Span,
    SpanRecorder,
    Trace,
    TraceContext,
    attribute_trace,
    audit_spans,
)
from repro.telemetry.spans import OPEN


class TestRecorderLifecycle:
    def test_start_record_end(self):
        spans = SpanRecorder()
        ctx = spans.start_trace("pkt0", 0.0)
        assert ctx is not None
        spans.record(ctx, "wire", 1.0, 2.0)
        spans.end_trace(ctx, 5.0)
        trace = spans.get_trace(ctx)
        assert trace.finished
        assert trace.duration == pytest.approx(5.0)
        assert [s.stage for s in trace.spans] == ["wire"]

    def test_enter_exit_pairs(self):
        spans = SpanRecorder()
        ctx = spans.start_trace("pkt", 0.0)
        handle = spans.enter(ctx, "nic.tx", 1.0)
        spans.exit(handle, 3.0)
        spans.end_trace(ctx, 4.0)
        (span,) = spans.get_trace(ctx).spans
        assert (span.start, span.end) == (1.0, 3.0)
        assert span.duration == pytest.approx(2.0)

    def test_reprs_name_the_stage_and_the_span_count(self):
        spans = SpanRecorder()
        ctx = spans.start_trace("pkt7", 0.0)
        spans.record(ctx, "wire", 1.0, 2.0)
        spans.end_trace(ctx, 5.0)
        trace = spans.get_trace(ctx)
        (span,) = trace.spans
        assert repr(span).startswith("Span('wire', kind=")
        assert repr(span).endswith("[1.0, 2.0])")
        assert repr(trace) == (f"Trace({trace.trace_id}, 'pkt7', "
                               "[0.0, 5.0], 1 spans)")

    def test_orphan_detection(self):
        spans = SpanRecorder()
        ctx = spans.start_trace("pkt", 0.0)
        spans.enter(ctx, "nic.rx", 1.0)  # never exited
        spans.end_trace(ctx, 2.0)
        assert len(spans.orphan_spans()) == 1
        assert spans.orphan_spans()[0].stage == "nic.rx"

    def test_late_exit_stamps_the_orphan_without_feeding_histograms(self):
        # The handle names the span's end in its trace: nothing but the
        # trace holds an entered-but-never-exited span, the auditor
        # still names it, and closing it after the root ended attributes
        # nothing twice.
        registry = MetricsRegistry()
        spans = SpanRecorder(registry=registry)
        ctx = spans.start_trace("pkt", 0.0)
        handle = spans.enter(ctx, "nic.rx", 1.0)
        spans.end_trace(ctx, 2.0)
        assert spans.orphan_spans() == [Span(1, 1, "nic.rx", "service",
                                             1.0, None)]
        assert [v.rule for v in audit_spans(spans)] == ["orphaned-span"]
        fed = registry.to_dict()["histograms"]
        spans.exit(handle, 5.0)
        assert ctx.spans[0].end == 5.0 and spans.orphan_spans() == []
        spans.exit(handle, 9.0)     # a second exit changes nothing
        assert ctx.spans[0].end == 5.0
        assert registry.to_dict()["histograms"] == fed
        assert fed["spans.e2e"]["count"] == 1

    def test_context_is_the_trace_under_its_exported_names(self):
        from repro.telemetry.spans import SPAN_SCHEMA_VERSION
        spans = SpanRecorder()
        ctx = spans.start_trace("pkt", 0.0)
        assert isinstance(ctx, TraceContext) and isinstance(ctx, Trace)
        assert spans.get_trace(ctx) is ctx
        assert spans.get_trace(ctx.trace_id) is ctx
        handle = spans.enter(ctx, "wire", 1.0)
        assert handle == (ctx, 2) and ctx[2] == OPEN
        assert ctx.spans == [Span(1, 1, "wire", "service", 1.0, None)]
        assert spans.to_dict()["schema"] == SPAN_SCHEMA_VERSION

    def test_a_recorder_pickles_and_copies_whole(self):
        import copy
        import pickle
        spans = SpanRecorder()
        ctx = spans.start_trace("pkt", 0.0)
        spans.record(ctx, "wire", 1.0, 2.0)
        spans.enter(ctx, "nic.rx", 2.5, kind="queue")
        spans.event(ctx, "drop", 3.0)
        spans.end_trace(ctx, 4.0)
        for clone in (pickle.loads(pickle.dumps(spans)),
                      copy.deepcopy(spans)):
            assert clone.to_dict() == spans.to_dict()
            trace = clone.get_trace(1)
            assert trace.stage_keys is clone._stage_keys
            assert [v.rule for v in audit_spans(clone)] == ["orphaned-span"]

    def test_double_end_is_idempotent(self):
        spans = SpanRecorder()
        ctx = spans.start_trace("pkt", 0.0)
        spans.end_trace(ctx, 1.0)
        spans.end_trace(ctx, 9.0)
        assert spans.get_trace(ctx).end == 1.0

    def test_events_attach_to_trace(self):
        spans = SpanRecorder()
        ctx = spans.start_trace("pkt", 0.0)
        spans.event(ctx, "rdma.retransmit:psn=3", 1.5)
        assert spans.get_trace(ctx).events == [(1.5, "rdma.retransmit:psn=3")]

    def test_max_traces_cap_counts_drops(self):
        spans = SpanRecorder(max_traces=2)
        assert spans.start_trace("a", 0.0) is not None
        assert spans.start_trace("b", 0.0) is not None
        assert spans.start_trace("c", 0.0) is None
        assert spans.dropped == 1


class TestSampling:
    def test_one_in_n_is_deterministic(self):
        spans = SpanRecorder(sample_rate=3)
        sampled = [spans.start_trace(f"p{i}", 0.0) is not None
                   for i in range(9)]
        assert sampled == [True, False, False] * 3

    def test_rate_one_samples_everything(self):
        spans = SpanRecorder(sample_rate=1)
        assert all(spans.start_trace(f"p{i}", 0.0) is not None
                   for i in range(5))

    def test_rate_below_one_rejected(self):
        with pytest.raises(ValueError):
            SpanRecorder(sample_rate=0)

    def test_sampler_accounting_partitions_every_offer(self):
        spans = SpanRecorder(sample_rate=3)
        for i in range(10):
            spans.start_trace(f"p{i}", 0.0)
        assert spans.seen == 10
        assert spans.sampled == 4
        assert spans.skipped == 6
        assert spans.dropped == 0
        assert spans.sampled + spans.skipped + spans.dropped == spans.seen
        export = spans.to_dict()
        assert export["sampled"] == 4 and export["skipped"] == 6

    def test_cap_overflow_counts_as_dropped_not_skipped(self):
        spans = SpanRecorder(sample_rate=1, max_traces=2)
        for i in range(5):
            spans.start_trace(f"p{i}", 0.0)
        assert spans.sampled == 2
        assert spans.dropped == 3
        assert spans.skipped == 0

    def test_sampler_counters_feed_the_registry(self):
        from repro.telemetry import MetricsRegistry
        registry = MetricsRegistry()
        spans = SpanRecorder(sample_rate=2, max_traces=2, registry=registry)
        for i in range(6):
            spans.start_trace(f"p{i}", 0.0)
        assert registry.counter("spans.sampler.sampled").value == 2
        assert registry.counter("spans.sampler.skipped").value == 3
        assert registry.counter("spans.sampler.dropped").value == 1


class TestStashClaim:
    def test_roundtrip_is_consume_once(self):
        spans = SpanRecorder()
        ctx = spans.start_trace("pkt", 0.0)
        key = ("wqe", "server.nic", 7, 0)
        spans.stash(key, ctx)
        assert spans.claim(key) is ctx
        assert spans.claim(key) is None  # consumed

    def test_none_context_is_not_stashed(self):
        spans = SpanRecorder()
        spans.stash(("wqe", "nic", 1, 0), None)
        assert spans.pending_stashes() == []

    def test_pending_stashes_report_leaks(self):
        spans = SpanRecorder()
        ctx = spans.start_trace("pkt", 0.0)
        spans.stash(("wqe", "nic", 1, 4), ctx)
        assert spans.pending_stashes() == [("wqe", "nic", 1, 4)]


class TestAttribution:
    def _trace(self, spans, pieces, start=0.0, end=10.0):
        ctx = spans.start_trace("pkt", start)
        for stage, s, e, kind in pieces:
            spans.record(ctx, stage, s, e, kind=kind)
        spans.end_trace(ctx, end)
        return spans.get_trace(ctx)

    def test_disjoint_spans_sum_exactly(self):
        spans = SpanRecorder()
        trace = self._trace(spans, [
            ("a", 0.0, 4.0, "service"),
            ("b", 4.0, 10.0, "service"),
        ])
        totals, residue = attribute_trace(trace)
        assert totals == {("a", "service"): pytest.approx(4.0),
                          ("b", "service"): pytest.approx(6.0)}
        assert residue == pytest.approx(0.0)

    def test_nested_span_wins_innermost(self):
        # A queue wait nested inside an engine span: the overlap goes to
        # the inner (later-entered) span, never double-counted.
        spans = SpanRecorder()
        trace = self._trace(spans, [
            ("engine", 0.0, 10.0, "service"),
            ("engine", 2.0, 5.0, "queue"),
        ])
        totals, residue = attribute_trace(trace)
        assert totals[("engine", "queue")] == pytest.approx(3.0)
        assert totals[("engine", "service")] == pytest.approx(7.0)
        assert residue == pytest.approx(0.0)

    def test_uncovered_time_is_unattributed(self):
        spans = SpanRecorder()
        trace = self._trace(spans, [("a", 2.0, 4.0, "service")])
        totals, residue = attribute_trace(trace)
        assert totals[("a", "service")] == pytest.approx(2.0)
        assert residue == pytest.approx(8.0)

    def test_spans_clamped_to_root_interval(self):
        spans = SpanRecorder()
        trace = self._trace(spans, [("a", -5.0, 20.0, "service")])
        totals, residue = attribute_trace(trace)
        assert totals[("a", "service")] == pytest.approx(10.0)
        assert residue == pytest.approx(0.0)

    def test_partition_reconciles_with_duration(self):
        # Adversarial overlap soup: sums + residue == e2e regardless.
        spans = SpanRecorder()
        trace = self._trace(spans, [
            ("a", 0.0, 6.0, "service"),
            ("b", 1.0, 3.0, "service"),
            ("c", 2.0, 8.0, "queue"),
            ("a", 7.5, 9.0, "queue"),
        ])
        totals, residue = attribute_trace(trace)
        assert sum(totals.values()) + residue == pytest.approx(10.0)

    def test_unfinished_trace_rejected(self):
        spans = SpanRecorder()
        ctx = spans.start_trace("pkt", 0.0)
        with pytest.raises(ValueError):
            attribute_trace(spans.get_trace(ctx))


class TestRegistryFeed:
    def test_finished_trace_feeds_stage_histograms(self):
        registry = MetricsRegistry()
        spans = SpanRecorder(registry=registry)
        ctx = spans.start_trace("pkt", 0.0)
        spans.record(ctx, "wire", 1.0, 3.0)
        spans.end_trace(ctx, 4.0)
        assert registry.histogram("spans.e2e").count == 1
        assert registry.histogram("spans.stage.wire.service").total == \
            pytest.approx(2.0)
        assert registry.histogram("spans.unattributed").total == \
            pytest.approx(2.0)


def test_a_recorded_span_is_a_row_of_its_trace_not_an_object():
    spans = SpanRecorder()
    ctx = spans.start_trace("pkt", 0.0)
    spans.record(ctx, "wire", 1.0, 2.0)
    handle = spans.enter(ctx, "nic.rx", 2.5, kind="queue")
    spans.record(ctx, "wire", 3.0, 4.0)
    assert list(ctx) == [1.0, 1.0, 2.0, 2.0, 2.5, OPEN, 3.0, 3.0, 4.0]
    assert ctx.span_count == 3 and len(ctx.stages) == 6
    spans.exit(handle, 3.5)
    assert ctx[5] == 3.5
    # Besides its class and the recorder's table of stage keys, what
    # the trace holds is floats, bytes and strings: nothing the
    # collector tracks, however many spans it has.
    assert not any(gc.is_tracked(held) for held in gc.get_referents(ctx)
                   if held is not Trace and held is not ctx.stage_keys)
    assert [(s.stage, s.kind) for s in ctx.spans] == [
        ("wire", "service"), ("nic.rx", "queue"), ("wire", "service")]
