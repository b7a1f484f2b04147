"""RoCE retransmission under injected packet loss.

Deterministic fault injection through :attr:`RdmaEngine.drop_filter`:
the first data segment out of the client is dropped on the floor, the
go-back-N timer fires, the retransmitted copy delivers, and the
telemetry counters record exactly what happened.
"""

from repro.net import Bth
from repro.sim import Simulator
from repro.telemetry import Telemetry
from repro.testbed import make_remote_pair

CLIENT_MAC = "02:00:00:00:00:01"
SERVER_MAC = "02:00:00:00:00:02"


def build(sim):
    client, server = make_remote_pair(sim)
    client.add_vport_for_mac(1, CLIENT_MAC)
    server.add_vport_for_mac(1, SERVER_MAC)
    cep = client.driver.create_rc_endpoint(1, CLIENT_MAC, "10.0.0.1",
                                           buffer_size=8192)
    sep = server.driver.create_rc_endpoint(1, SERVER_MAC, "10.0.0.2",
                                           buffer_size=8192)
    cep.post_rx_buffers(64)
    sep.post_rx_buffers(64)
    cep.connect(SERVER_MAC, "10.0.0.2", sep.qpn)
    sep.connect(CLIENT_MAC, "10.0.0.1", cep.qpn)
    return client, server, cep, sep


def drop_first_data_segment(state):
    """A drop filter discarding the first non-ack frame it sees."""

    def drop(qp, frame):
        bth = frame.find(Bth)
        if bth is not None and not bth.is_ack and state["drops"] == 0:
            state["drops"] += 1
            return True
        return False

    return drop


class TestRetransmit:
    def test_dropped_segment_is_retransmitted_and_delivered(self):
        telemetry = Telemetry(trace=False)
        sim = Simulator(telemetry=telemetry)
        client, _server, cep, sep = build(sim)
        state = {"drops": 0}
        client.nic.rdma.drop_filter = drop_first_data_segment(state)
        payload = b"lost then found"
        received = []

        def receiver(sim):
            message, _cqe = yield sep.messages.get()
            received.append(message)

        def sender(sim):
            yield cep.post_send(payload)

        sim.spawn(receiver(sim))
        sim.spawn(sender(sim))
        sim.run(until=0.05)

        assert state["drops"] == 1
        assert received == [payload]  # eventual delivery
        assert cep.qp.stats_retransmits >= 1
        snap = telemetry.snapshot()
        assert snap["client.nic.rdma.retransmits"] >= 1
        assert snap["client.nic.rdma.injected_drops"] == 1
        assert client.nic.rdma.stats_injected_drops == 1

    def test_no_loss_no_retransmits(self):
        telemetry = Telemetry(trace=False)
        sim = Simulator(telemetry=telemetry)
        _client, _server, cep, sep = build(sim)
        received = []

        def receiver(sim):
            message, _cqe = yield sep.messages.get()
            received.append(message)

        def sender(sim):
            yield cep.post_send(b"clean run")

        sim.spawn(receiver(sim))
        sim.spawn(sender(sim))
        sim.run(until=0.05)

        assert received == [b"clean run"]
        assert telemetry.snapshot()["client.nic.rdma.retransmits"] == 0
        assert cep.qp.stats_retransmits == 0

    def test_multi_segment_message_recovers_from_mid_loss(self):
        """Drop the second segment of a 3-segment message: go-back-N
        resends from the gap and the message still assembles in order."""
        telemetry = Telemetry(trace=False)
        sim = Simulator(telemetry=telemetry)
        client, _server, cep, sep = build(sim)
        seen = {"count": 0}
        state = {"drops": 0}

        def drop_second(qp, frame):
            bth = frame.find(Bth)
            if bth is None or bth.is_ack:
                return False
            seen["count"] += 1
            if seen["count"] == 2 and state["drops"] == 0:
                state["drops"] += 1
                return True
            return False

        client.nic.rdma.drop_filter = drop_second
        payload = bytes(range(256)) * 12  # 3072 B -> 3 segments at MTU 1024
        received = []

        def receiver(sim):
            message, _cqe = yield sep.messages.get()
            received.append(message)

        def sender(sim):
            yield cep.post_send(payload)

        sim.spawn(receiver(sim))
        sim.spawn(sender(sim))
        sim.run(until=0.05)

        assert state["drops"] == 1
        assert received == [payload]
        assert cep.qp.stats_retransmits >= 1
        # The receiver saw at least one out-of-sequence segment (the one
        # after the hole) and counted it as a duplicate/out-of-order.
        assert telemetry.snapshot()[
            "server.nic.rdma.duplicate_segments"] >= 1

    def test_dropped_ack_triggers_resend_not_duplication(self):
        """Losing the ACK retransmits data; the receiver discards the
        duplicate and re-acks, so the message is delivered exactly once."""
        telemetry = Telemetry(trace=False)
        sim = Simulator(telemetry=telemetry)
        client, server, cep, sep = build(sim)
        state = {"drops": 0}

        def drop_first_ack(qp, frame):
            bth = frame.find(Bth)
            if bth is not None and bth.is_ack and state["drops"] == 0:
                state["drops"] += 1
                return True
            return False

        server.nic.rdma.drop_filter = drop_first_ack
        received = []

        def receiver(sim):
            while True:
                message, _cqe = yield sep.messages.get()
                received.append(message)

        def sender(sim):
            yield cep.post_send(b"ack goes missing")

        sim.spawn(receiver(sim))
        sim.spawn(sender(sim))
        sim.run(until=0.05)

        assert state["drops"] == 1
        assert received == [b"ack goes missing"]  # exactly once
        assert cep.qp.stats_retransmits >= 1
        assert telemetry.snapshot()[
            "server.nic.rdma.duplicate_segments"] >= 1


class TestRetransmitSpanPropagation:
    """Satellite of the span layer: a retransmitted segment must stay on
    the original packet's trace — same span tree, a ``rdma.retransmit``
    event, and an ``rdma`` span that still closes on the eventual ack."""

    def _run_lossy_send(self, payload=b"lost then found"):
        telemetry = Telemetry(trace=False, spans=True)
        sim = Simulator(telemetry=telemetry)
        client, _server, cep, sep = build(sim)
        state = {"drops": 0}
        client.nic.rdma.drop_filter = drop_first_data_segment(state)
        spans = telemetry.spans
        received = []

        def receiver(sim):
            message, cqe = yield sep.messages.get()
            received.append((message, cqe))
            spans.end_trace(cqe.trace_ctx, sim.now)

        def sender(sim):
            ctx = spans.start_trace("rdma.msg0", sim.now)
            state["ctx"] = ctx
            yield cep.post_send(payload, trace_ctx=ctx)

        sim.spawn(receiver(sim))
        sim.spawn(sender(sim))
        sim.run(until=0.05)
        assert state["drops"] == 1
        assert [m for m, _ in received] == [payload]
        return spans, state["ctx"], received

    def test_retransmit_event_lands_on_original_trace(self):
        spans, ctx, _ = self._run_lossy_send()
        trace = spans.get_trace(ctx)
        assert trace is not None
        assert any(name.startswith("rdma.retransmit:psn=")
                   for _, name in trace.events)

    def test_rdma_span_closes_on_eventual_ack(self):
        spans, ctx, _ = self._run_lossy_send()
        trace = spans.get_trace(ctx)
        rdma_spans = [s for s in trace.spans if s.stage == "rdma"]
        assert rdma_spans, "no rdma span recorded"
        assert all(s.end is not None for s in rdma_spans)
        # The recovery is visible as extra latency inside the rdma span:
        # it spans the timeout + resend, not just one flight.
        assert max(s.duration for s in rdma_spans) > 100e-6

    def test_retransmitted_copy_keeps_the_trace_context(self):
        spans, ctx, received = self._run_lossy_send()
        trace = spans.get_trace(ctx)
        # Both the dropped original and the retransmitted copy carried
        # the context; only delivered frames record wire spans, and the
        # receive completion hands the same trace back to the app.
        (_, cqe) = received[0]
        assert cqe.trace_ctx is not None
        assert cqe.trace_ctx.trace_id == trace.trace_id
        assert trace.finished
        wire = [s for s in trace.spans if s.stage == "wire"]
        assert wire, "delivered frame recorded no wire span"

    def test_no_orphans_after_recovery(self):
        spans, _ctx, _ = self._run_lossy_send()
        assert spans.orphan_spans() == []
        assert spans.pending_stashes() == []
