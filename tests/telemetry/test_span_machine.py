"""Stateful oracle for ``SpanRecorder``: the columns replay the objects.

A trace keeps its spans as columns — a row of floats and a stage code a
span, an open end held as ``OPEN`` — and ``enter`` hands out the place
of the span's end.  The reference is the recorder that kept a ``Span``
object a span (``tests/telemetry/span_oracle.py``).  The machine drives
both with the same ``start_trace``, ``enter``, ``exit``, ``record``,
``event`` and ``end_trace`` calls — late exits after the root ended and
second exits included, under 1-in-N sampling and a small trace cap —
and after every step holds them to the same export, orphans, audit,
per-trace attribution and ``spans.*`` metrics.
"""

import json

from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.telemetry import (
    MetricsRegistry,
    SpanRecorder,
    attribute_trace,
    audit_spans,
)

from .span_oracle import OracleSpanRecorder
from .span_oracle import attribute_trace as oracle_attribute

# Quarter steps make ties common: spans starting or ending together, a
# span ending where the root does, empty and inverted spans.
TIMES = st.integers(-2, 24).map(lambda n: n / 4)
STAGES = st.sampled_from(["wire", "nic.tx", "pcie.dma_read", "prog.fw"])
KINDS = st.sampled_from(["service", "queue"])


def _exact(value):
    """``value`` as JSON: floats by repr, dict keys in their order."""
    return json.dumps(value)


def _span_fields(span):
    return (span.span_id, span.trace_id, span.stage, span.kind,
            span.start, span.end)


class SpanMachine(RuleBasedStateMachine):
    traces = Bundle("traces")
    handles = Bundle("handles")

    @initialize(sample_rate=st.sampled_from([1, 1, 2, 3]),
                max_traces=st.sampled_from([2, 3, 5, 100_000]))
    def build(self, sample_rate, max_traces):
        self.registries = (MetricsRegistry(), MetricsRegistry())
        self.recorders = (
            SpanRecorder(sample_rate, max_traces, self.registries[0]),
            OracleSpanRecorder(sample_rate, max_traces, self.registries[1]))

    @rule(target=traces, name=st.sampled_from(["a", "b"]), now=TIMES)
    def start_trace(self, name, now):
        columns, objects = (recorder.start_trace(name, now)
                            for recorder in self.recorders)
        assert (columns is None) == (objects is None)
        return columns, objects

    @rule(target=handles, trace=traces, stage=STAGES, now=TIMES,
          kind=KINDS)
    def enter(self, trace, stage, now, kind):
        return tuple(recorder.enter(ctx, stage, now, kind)
                     for recorder, ctx in zip(self.recorders, trace))

    @rule(handle=handles, now=TIMES)
    def exit(self, handle, now):
        for recorder, span in zip(self.recorders, handle):
            recorder.exit(span, now)

    @rule(trace=traces, stage=STAGES, start=TIMES, end=TIMES, kind=KINDS)
    def record(self, trace, stage, start, end, kind):
        for recorder, ctx in zip(self.recorders, trace):
            recorder.record(ctx, stage, start, end, kind)

    @rule(trace=traces, name=st.sampled_from(["rdma.retransmit", "drop"]),
          now=TIMES)
    def event(self, trace, name, now):
        for recorder, ctx in zip(self.recorders, trace):
            recorder.event(ctx, name, now)

    @rule(trace=traces, now=TIMES)
    def end_trace(self, trace, now):
        for recorder, ctx in zip(self.recorders, trace):
            recorder.end_trace(ctx, now)

    @invariant()
    def the_columns_replay_the_objects(self):
        columns, objects = self.recorders
        assert columns.to_dict() == objects.to_dict()
        assert _exact(columns.to_dict()) == _exact(objects.to_dict())
        assert ([_span_fields(span) for span in columns.orphan_spans()]
                == [_span_fields(span) for span in objects.orphan_spans()])
        assert ([v.to_dict() for v in audit_spans(columns)]
                == [v.to_dict() for v in audit_spans(objects)])
        for trace, oracle in zip(columns.finished_traces(),
                                 objects.finished_traces()):
            totals, unattributed = attribute_trace(trace)
            expected, residue = oracle_attribute(oracle)
            assert (_exact([*totals.items(), unattributed])
                    == _exact([*expected.items(), residue]))
        assert (_exact(self.registries[0].to_dict())
                == _exact(self.registries[1].to_dict()))


TestSpanMachine = SpanMachine.TestCase


def test_a_late_and_a_second_exit_replay_the_objects():
    """A fixed history, the two recorders agreeing at every step: an
    orphan at ``end_trace``, closed late, then exited again; a span
    exited twice before the root ends; a trace past the cap."""
    machine = SpanMachine()
    machine.build(sample_rate=1, max_traces=2)

    def step(operation, *args):
        result = getattr(machine, operation)(*args)
        machine.the_columns_replay_the_objects()
        return result

    trace = step("start_trace", "a", 0.0)
    nested = step("enter", trace, "nic.tx", 0.5, "queue")
    outer = step("enter", trace, "wire", 0.25, "service")
    step("record", trace, "pcie.dma_read", 1.0, 2.0, "service")
    step("exit", nested, 1.5)
    step("exit", nested, 3.0)
    step("event", trace, "drop", 1.75)
    step("end_trace", trace, 4.0)
    assert len(machine.recorders[0].orphan_spans()) == 1
    step("exit", outer, 5.0)
    step("exit", outer, 6.0)
    assert machine.recorders[0].orphan_spans() == []
    step("end_trace", trace, 9.0)
    step("start_trace", "b", 1.0)
    assert step("start_trace", "b", 2.0) == (None, None)
