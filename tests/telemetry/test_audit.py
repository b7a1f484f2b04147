"""The invariant auditor: every rule triggers on a synthetic breach and
stays quiet on a clean subject."""

from types import SimpleNamespace

import pytest

from repro.telemetry import SpanRecorder
from repro.telemetry.audit import (
    AuditError,
    assert_clean,
    audit_all,
    audit_fabric,
    audit_fld,
    audit_nic,
    audit_spans,
)


def _rules(violations):
    return sorted({v.rule for v in violations})


class TestSpanAudit:
    def test_clean_stream(self):
        spans = SpanRecorder()
        ctx = spans.start_trace("pkt", 0.0)
        handle = spans.enter(ctx, "wire", 0.0)
        spans.exit(handle, 1.0)
        spans.end_trace(ctx, 1.0)
        assert audit_spans(spans) == []

    def test_orphaned_span(self):
        spans = SpanRecorder()
        ctx = spans.start_trace("pkt", 0.0)
        spans.enter(ctx, "nic.rx", 0.5)  # never exited
        spans.end_trace(ctx, 1.0)
        assert _rules(audit_spans(spans)) == ["orphaned-span"]

    def test_a_violation_repr_names_its_rule_and_subject(self):
        spans = SpanRecorder()
        ctx = spans.start_trace("pkt", 0.0)
        spans.enter(ctx, "nic.rx", 0.5)  # never exited
        spans.end_trace(ctx, 1.0)
        (violation,) = audit_spans(spans)
        assert repr(violation) == (f"Violation(orphaned-span: "
                                   f"{violation.subject}: "
                                   f"{violation.detail})")
        assert "nic.rx" in repr(violation)

    def test_unfinished_trace_only_when_expected_complete(self):
        spans = SpanRecorder()
        spans.start_trace("pkt", 0.0)  # root never ends
        assert _rules(audit_spans(spans)) == ["unfinished-trace"]
        assert audit_spans(spans, expect_complete=False) == []

    def test_unclaimed_stash(self):
        spans = SpanRecorder()
        ctx = spans.start_trace("pkt", 0.0)
        spans.stash(("wqe", "nic", 3, 0), ctx)
        spans.end_trace(ctx, 1.0)
        assert _rules(audit_spans(spans)) == ["unclaimed-stash"]


def _fake_fld(credit_leak=0, outstanding=0, chunk_leak=0, slot_leak=0):
    """The attribute shape audit_fld reads, with injectable breaches."""
    credits = SimpleNamespace(
        available=lambda q: 16 - credit_leak,
        capacity=lambda q: 16,
    )
    state = SimpleNamespace(outstanding=[object()] * outstanding)
    buffers = SimpleNamespace(num_chunks=64, free_chunks=64 - chunk_leak)
    descriptors = SimpleNamespace(capacity=32, free_slots=32 - slot_leak)
    tx = SimpleNamespace(credits=credits, _queues={0: state},
                         buffers=buffers, descriptors=descriptors)
    return SimpleNamespace(name="fld", tx=tx)


class TestFldAudit:
    def test_clean_fld(self):
        assert audit_fld(_fake_fld()) == []

    def test_credit_leak(self):
        assert _rules(audit_fld(_fake_fld(credit_leak=2))) == \
            ["credit-leak"]

    def test_buffer_leak(self):
        assert _rules(audit_fld(_fake_fld(chunk_leak=3))) == \
            ["buffer-leak"]

    def test_descriptor_leaks(self):
        violations = audit_fld(_fake_fld(outstanding=1, slot_leak=2))
        assert _rules(violations) == ["descriptor-leak"]
        assert len(violations) == 2  # ring slots and pool slots


def _fake_nic(residue=0, sent=1000, retx=0):
    rdma = SimpleNamespace(stats_segments_sent=sent, stats_retransmits=retx)
    return SimpleNamespace(name="nic", rdma=rdma,
                           rqs={0: SimpleNamespace(
                               inbox=[object()] * residue)})


class TestNicAudit:
    def test_clean_nic(self):
        assert audit_nic(_fake_nic()) == []

    def test_queue_residue(self):
        assert _rules(audit_nic(_fake_nic(residue=2))) == \
            ["queue-residue"]

    def test_retransmit_storm(self):
        assert _rules(audit_nic(_fake_nic(sent=100, retx=50))) == \
            ["retransmit-storm"]

    def test_few_retransmits_below_floor_are_fine(self):
        # A handful of recoveries is normal operation, not a storm.
        assert audit_nic(_fake_nic(sent=100, retx=10)) == []


def _fake_fabric(pending=0, requester="nic"):
    reads = {requester: pending} if pending else {}
    return SimpleNamespace(reads_in_flight=lambda: reads)


class TestFabricAudit:
    def test_clean_fabric(self):
        assert audit_fabric(_fake_fabric()) == []

    def test_reads_in_flight_at_quiesce(self):
        violations = audit_fabric(_fake_fabric(pending=3))
        assert _rules(violations) == ["read-in-flight"]
        assert "3 read(s)" in violations[0].detail
        assert "3 from nic" in violations[0].detail

    def test_audit_all_includes_fabrics(self):
        violations = audit_all(fabrics=[_fake_fabric(pending=1)])
        assert _rules(violations) == ["read-in-flight"]

    def test_real_fabric_quiesces_clean(self):
        # A drained simulated fabric has no reads outstanding.
        from repro.pcie import PcieFabric
        from repro.sim import Simulator
        sim = Simulator()
        fabric = PcieFabric(sim)
        assert audit_fabric(fabric) == []


class TestAssertClean:
    def test_raises_with_violation_list(self):
        spans = SpanRecorder()
        spans.start_trace("pkt", 0.0)
        violations = audit_all(spans=spans)
        with pytest.raises(AuditError) as excinfo:
            assert_clean(violations)
        assert excinfo.value.violations == violations
        assert "unfinished-trace" in str(excinfo.value)

    def test_passes_on_empty(self):
        assert_clean([])

    def test_audit_all_combines_subjects(self):
        spans = SpanRecorder()
        spans.start_trace("pkt", 0.0)
        violations = audit_all(
            spans=spans,
            flds=[_fake_fld(credit_leak=1)],
            nics=[_fake_nic(residue=1)],
        )
        assert _rules(violations) == \
            ["credit-leak", "queue-residue", "unfinished-trace"]
