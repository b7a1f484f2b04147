"""Runtime invariant auditor over span streams and component state.

Spans give us causal visibility; this module turns it into *checks*.
After an experiment quiesces, the auditor walks the span recorder and
the simulated devices and reports :class:`Violation` objects for:

* **orphaned spans** — a packet entered a stage but never exited,
  although its trace's root interval has ended (a lost wakeup or a
  dropped completion);
* **unfinished traces** — the root interval itself never closed (only
  when the caller expects a fully-drained run);
* **unclaimed stashes** — a trace context parked across a
  serialization boundary that no consumer picked up (a propagation
  leak in the instrumentation or a descriptor the NIC never fetched);
* **credit / buffer leaks** — FLD tx credits, buffer chunks or
  descriptor slots not restored to capacity at quiesce;
* **queue residue / unbounded growth** — NIC inboxes still holding
  items, or stores whose high-water mark pinned at capacity;
* **retransmit storms** — RDMA retransmits exceeding a sane fraction
  of segments sent.

Tests call :func:`assert_clean`, which raises with the full violation
list — failures are loud by design.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

__all__ = ["Violation", "AuditError", "audit_spans", "audit_fld",
           "audit_nic", "audit_fabric", "audit_all", "assert_clean"]


class Violation:
    """One invariant breach: a rule name, a subject, and detail text."""

    __slots__ = ("rule", "subject", "detail")

    def __init__(self, rule: str, subject: str, detail: str):
        self.rule = rule
        self.subject = subject
        self.detail = detail

    def to_dict(self) -> dict:
        return {"rule": self.rule, "subject": self.subject,
                "detail": self.detail}

    def __repr__(self) -> str:
        return f"Violation({self.rule}: {self.subject}: {self.detail})"


class AuditError(AssertionError):
    """Raised by :func:`assert_clean`; carries the violation list."""

    def __init__(self, violations: List[Violation]):
        self.violations = violations
        lines = "\n".join(f"  [{v.rule}] {v.subject}: {v.detail}"
                          for v in violations)
        super().__init__(
            f"{len(violations)} invariant violation(s):\n{lines}")


def audit_spans(spans, expect_complete: bool = True) -> List[Violation]:
    """Check the span stream for orphans, leaks and unfinished traces."""
    violations: List[Violation] = []
    for span in spans.orphan_spans():
        violations.append(Violation(
            "orphaned-span",
            f"trace {span.trace_id}",
            f"stage {span.stage!r} entered at {span.start:.9f} "
            f"but never exited"))
    if expect_complete:
        for trace in spans.unfinished_traces():
            violations.append(Violation(
                "unfinished-trace",
                f"trace {trace.trace_id}",
                f"{trace.name!r} started at {trace.start:.9f} "
                f"but its root never ended"))
    for key in spans.pending_stashes():
        violations.append(Violation(
            "unclaimed-stash", repr(key),
            "trace context parked across a serialization boundary "
            "was never claimed"))
    return violations


def audit_fld(fld) -> List[Violation]:
    """FLD credit/buffer/descriptor conservation at quiesce."""
    violations: List[Violation] = []
    name = getattr(fld, "name", "fld")
    credits = fld.tx.credits
    for queue_id, state in fld.tx._queues.items():
        available = credits.available(queue_id)
        capacity = credits.capacity(queue_id)
        if available != capacity:
            violations.append(Violation(
                "credit-leak", f"{name}.tx{queue_id}",
                f"{capacity - available} of {capacity} credits "
                f"not returned"))
        if state.outstanding:
            violations.append(Violation(
                "descriptor-leak", f"{name}.tx{queue_id}",
                f"{len(state.outstanding)} descriptors still "
                f"outstanding at quiesce"))
    buffers = fld.tx.buffers
    if buffers.free_chunks != buffers.num_chunks:
        violations.append(Violation(
            "buffer-leak", f"{name}.tx.buffers",
            f"{buffers.num_chunks - buffers.free_chunks} of "
            f"{buffers.num_chunks} chunks not freed"))
    pool = fld.tx.descriptors
    if pool.free_slots != pool.capacity:
        violations.append(Violation(
            "descriptor-leak", f"{name}.tx.descriptors",
            f"{pool.capacity - pool.free_slots} of {pool.capacity} "
            f"descriptor slots not freed"))
    return violations


def audit_nic(nic, retransmit_ratio: float = 0.1,
              retransmit_floor: int = 20) -> List[Violation]:
    """NIC queue residue and RDMA retransmit-storm checks."""
    violations: List[Violation] = []
    for rqn, rq in getattr(nic, "rqs", {}).items():
        if len(rq.inbox) > 0:
            violations.append(Violation(
                "queue-residue", f"{nic.name}.rq{rqn}",
                f"{len(rq.inbox)} items still queued at quiesce"))
    rdma = getattr(nic, "rdma", None)
    if rdma is not None:
        sent = rdma.stats_segments_sent
        retx = rdma.stats_retransmits
        if retx > retransmit_floor and sent and \
                retx / sent > retransmit_ratio:
            violations.append(Violation(
                "retransmit-storm", f"{nic.name}.rdma",
                f"{retx} retransmits for {sent} segments sent "
                f"({retx / sent:.0%} > {retransmit_ratio:.0%})"))
    return violations


def audit_fabric(fabric) -> List[Violation]:
    """PCIe transaction-layer conservation at quiesce.

    A read request whose completion never came back means a requester
    stuck forever on a ``yield fabric.read(...)`` — the kind of lost
    wakeup the fused/cut-through transit paths could introduce.  The
    fabric's in-flight read counts must therefore drain to zero with
    the simulation.
    """
    violations: List[Violation] = []
    pending = fabric.reads_in_flight()
    if pending:
        detail = ", ".join(f"{count} from {requester}"
                           for requester, count in sorted(pending.items()))
        violations.append(Violation(
            "read-in-flight", "pcie.fabric",
            f"{sum(pending.values())} read(s) still awaiting completion at "
            f"quiesce ({detail})"))
    return violations


def audit_all(spans=None, flds: Optional[Iterable] = None,
              nics: Optional[Iterable] = None,
              fabrics: Optional[Iterable] = None,
              expect_complete: bool = True) -> List[Violation]:
    """Run every applicable audit; returns the combined violation list."""
    violations: List[Violation] = []
    if spans is not None:
        violations.extend(audit_spans(spans, expect_complete))
    for fld in flds or ():
        violations.extend(audit_fld(fld))
    for nic in nics or ():
        violations.extend(audit_nic(nic))
    for fabric in fabrics or ():
        violations.extend(audit_fabric(fabric))
    return violations


def assert_clean(violations: List[Violation]) -> None:
    """Raise :class:`AuditError` when any violation was found."""
    if violations:
        raise AuditError(violations)
