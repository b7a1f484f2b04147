"""Unit tests for checksum offloads, the shaper and the RDMA engine."""

import pytest

from repro.net import Aeth, Bth, Ethernet, Flow, Ipv4, PROTO_TCP, \
    PROTO_UDP, Packet, ROCE_V2_PORT, Reth, Tcp, Udp, fragment_packet, \
    send_opcode, write_opcode
from repro.net.parse import parse_layout
from repro.net.roce import ICRC_SIZE, OP_ACK
from repro.nic import CQE_FLAG_L3_OK, CQE_FLAG_L4_OK, ChecksumOffload, \
    Shaper
from repro.nic.rdma import RcQp, RdmaEngine, RdmaError
from repro.nic.wqe import (
    OP_RDMA_SEND, OP_RDMA_WRITE, TX_WQE, TxWqe, TxWqeRecord)
from repro.sim import Simulator
from repro.telemetry import Telemetry
from repro.telemetry.audit import audit_spans


def landed(wqe):
    """``wqe`` as a send queue hands it to the engine: the record read
    off its bytes, with no trace context."""
    return TxWqeRecord(TX_WQE.unpack_from(wqe.pack()) + (None,))


def tcp_packet(payload=b"data", checksum=True):
    flow = Flow("02:00:00:00:00:01", "02:00:00:00:00:02",
                "10.0.0.1", "10.0.0.2", 80, 443, proto=PROTO_TCP)
    return flow.make_packet(payload, fill_checksums=checksum)


class TestChecksumOffload:
    def test_valid_packet_sets_both_flags(self):
        flags = ChecksumOffload().validate(tcp_packet())
        assert flags & CQE_FLAG_L3_OK
        assert flags & CQE_FLAG_L4_OK

    def test_corrupt_l4_clears_flag(self):
        packet = tcp_packet()
        packet.find(Tcp).checksum ^= 0xFFFF
        flags = ChecksumOffload().validate(packet)
        assert flags & CQE_FLAG_L3_OK
        assert not (flags & CQE_FLAG_L4_OK)

    def test_fragment_skips_l4_validation(self):
        offload = ChecksumOffload()
        packet = tcp_packet(payload=bytes(3000))
        fragment = fragment_packet(packet, mtu=1500)[0]
        flags = offload.validate(fragment)
        assert flags & CQE_FLAG_L3_OK
        assert not (flags & CQE_FLAG_L4_OK)
        assert offload.stats_rx_l4_skipped == 1

    def test_tx_fill_produces_valid_checksum(self):
        packet = tcp_packet(checksum=False)
        ChecksumOffload().fill(packet)
        ip = packet.find(Ipv4)
        assert packet.find(Tcp).verify(ip.src, ip.dst, packet.payload)


class TestShaper:
    def test_police_passes_then_drops(self):
        sim = Simulator()
        shaper = Shaper(sim)
        shaper.add_limiter("t", rate_bps=1e6, burst_bits=8000)
        assert shaper.police("t", 8000)
        assert not shaper.police("t", 1)
        assert shaper.stats_dropped["t"] == 1

    def test_unknown_meter_passes(self):
        sim = Simulator()
        assert Shaper(sim).police("ghost", 1e12)

    def test_refill_restores_budget(self):
        sim = Simulator()
        shaper = Shaper(sim)
        shaper.add_limiter("t", rate_bps=1e6, burst_bits=1000)
        shaper.police("t", 1000)

        def later(sim):
            yield sim.timeout(1e-3)  # 1000 bits accrue
            assert shaper.police("t", 900)

        sim.spawn(later(sim))
        sim.run()

    def test_delay_for_shaping(self):
        sim = Simulator()
        shaper = Shaper(sim)
        shaper.add_limiter("t", rate_bps=1000.0, burst_bits=0.0)
        assert shaper.delay_for("t", 500) == pytest.approx(0.5)

    def test_remove_limiter(self):
        sim = Simulator()
        shaper = Shaper(sim)
        shaper.add_limiter("t", 1e3)
        shaper.remove_limiter("t")
        assert not shaper.has_limiter("t")


class _Loopback:
    """Two RDMA engines wired directly (no NIC) for transport tests."""

    def __init__(self, sim, drop_first_n=0):
        self.sim = sim
        self.delivered = {"a": [], "b": []}
        self.completed = []
        self.drop_remaining = drop_first_n
        self.a = self._engine("a", "b")
        self.b = self._engine("b", "a")
        self.qp_a = RcQp(1, _FakeSq(), None, _mac(1), _ip(1))
        self.qp_b = RcQp(2, _FakeSq(), None, _mac(2), _ip(2))
        self.a.register_qp(self.qp_a)
        self.b.register_qp(self.qp_b)
        for qp, peer in ((self.qp_a, 2), (self.qp_b, 1)):
            qp.modify(RcQp.INIT)
            qp.modify(RcQp.RTR, remote_mac=_mac(peer), remote_ip=_ip(peer),
                      remote_qpn=peer, rq_psn=0)
            qp.modify(RcQp.RTS, sq_psn=0)

    def _engine(self, name, peer_name):
        def egress(qp, frame, name=name, peer_name=peer_name):
            if self.drop_remaining > 0 and name == "a":
                from repro.net import Bth
                bth = frame.find(Bth)
                if bth is not None and not bth.is_ack:
                    self.drop_remaining -= 1
                    return  # lost on the wire
            peer = self.b if peer_name == "b" else self.a
            # Deliver with a small wire delay.
            self.sim.call_later(1e-6, lambda: peer.on_ingress(frame))

        def deliver(qp, payload, flags, context, first, last,
                    name=name):
            self.delivered[name].append(payload)

        def complete(qp, wqe):
            self.completed.append(wqe.wqe_index)

        return RdmaEngine(self.sim, mtu=1024, retransmit_timeout=50e-6,
                          egress=egress, deliver_segment=deliver,
                          complete_send=complete)


class _FakeSq:
    qpn = 0
    vport = 0


def _mac(n):
    return f"02:00:00:00:00:{n:02x}"


def _ip(n):
    return f"10.0.0.{n}"


class TestRdmaEngine:
    def test_message_segmentation_and_delivery(self):
        sim = Simulator()
        loop = _Loopback(sim)
        wqe = landed(TxWqe(OP_RDMA_SEND, 1, 0, 0, 2500))

        loop.a.send_message(loop.qp_a, wqe, bytes(2500))
        sim.run(until=0.01)
        # 3 segments at MTU 1024 delivered to b in order.
        assert [len(p) for p in loop.delivered["b"]] == [1024, 1024, 452]
        # Send completion fired after the ack.
        assert loop.completed == [0]

    def test_one_segment_per_scheduler_pass_then_on_done(self):
        sim = Simulator()
        loop = _Loopback(sim)
        wqe = landed(TxWqe(OP_RDMA_SEND, 1, 0, 0, 2500))
        sent = []     # segments out, sampled between the engine's passes
        done = []     # how many samples had been taken when on_done ran

        def probe():
            sent.append(loop.qp_a.stats_sent_segments)
            if len(sent) < 4:
                sim.call_later(0.0, probe)

        loop.a.send_message(loop.qp_a, wqe, bytes(2500),
                            on_done=lambda: done.append(len(sent)))
        # The first segment leaves inside the call; every further one
        # on its own zero-delay pass, which the probe interleaves with.
        assert loop.qp_a.stats_sent_segments == 1 and not done
        sim.call_later(0.0, probe)
        sim.run(until=0.01)
        assert sent == [2, 3, 3, 3]
        # Once, in the last segment's pass: no pass follows it.
        assert done == [1]
        assert loop.completed == [0]

    def test_a_qp_destroyed_between_segments_ends_its_message_once(self):
        telemetry = Telemetry(trace=False, spans=True)
        sim = Simulator(telemetry=telemetry)
        loop = _Loopback(sim)
        ctx = telemetry.spans.start_trace("torn", sim.now)
        wqe = TxWqeRecord(TX_WQE.unpack_from(
            TxWqe(OP_RDMA_SEND, 1, 0, 0, 2500).pack()) + (ctx,))
        done = []
        loop.a.send_message(loop.qp_a, wqe, bytes(2500),
                            on_done=lambda: done.append(sim.now))
        # The first segment left inside the call; the QP goes before the
        # second segment's pass.
        loop.a.unregister_qp(loop.qp_a.qpn)
        sim.run(until=0.01)
        assert loop.qp_a.stats_sent_segments == 1
        assert done == [0.0]
        (rdma,) = [span for span in ctx.spans if span.stage == "rdma"]
        assert rdma.end == 0.0
        assert audit_spans(telemetry.spans, expect_complete=False) == []

    def test_retransmission_recovers_loss(self):
        sim = Simulator()
        loop = _Loopback(sim, drop_first_n=1)
        wqe = landed(TxWqe(OP_RDMA_SEND, 1, 0, 0, 2048))

        loop.a.send_message(loop.qp_a, wqe, bytes(2048))
        sim.run(until=0.01)
        assert sum(len(p) for p in loop.delivered["b"]) == 2048
        assert loop.qp_a.stats_retransmits > 0
        assert loop.completed == [0]

    def test_duplicate_segment_reacked_not_redelivered(self):
        sim = Simulator()
        loop = _Loopback(sim)
        wqe = landed(TxWqe(OP_RDMA_SEND, 1, 0, 0, 100))
        loop.a.send_message(loop.qp_a, wqe, b"x" * 100)
        # Duplicate the segment mid-flight (as a spurious retransmission
        # after a delayed ack would).
        def dup(sim):
            yield sim.timeout(0.5e-6)
            if loop.qp_a.outstanding:
                loop.a._retransmit(loop.qp_a)

        sim.spawn(dup(sim))
        sim.run(until=0.01)
        assert loop.delivered["b"] == [b"x" * 100]
        assert loop.qp_b.stats_duplicate_segments == 1
        assert loop.completed == [0]

    def test_unconnected_send_rejected(self):
        sim = Simulator()
        engine = RdmaEngine(sim, egress=lambda *a: None,
                            deliver_segment=lambda *a: None,
                            complete_send=lambda *a: None)
        qp = RcQp(3, _FakeSq(), None, _mac(3), _ip(3))
        engine.register_qp(qp)
        wqe = landed(TxWqe(OP_RDMA_SEND, 3, 0, 0, 10))
        with pytest.raises(RdmaError):
            engine.send_message(qp, wqe, b"x")

    def test_duplicate_qpn_rejected(self):
        sim = Simulator()
        engine = RdmaEngine(sim, egress=lambda *a: None,
                            deliver_segment=lambda *a: None,
                            complete_send=lambda *a: None)
        qp = RcQp(3, _FakeSq(), None, _mac(3), _ip(3))
        engine.register_qp(qp)
        with pytest.raises(RdmaError):
            engine.register_qp(qp)

    def test_foreign_packet_ignored(self):
        sim = Simulator()
        loop = _Loopback(sim)
        from repro.net import Packet
        assert loop.a.on_ingress(Packet(payload=b"not roce")) is False


def packed_by_header_classes(qp, transport, payload):
    """The frame as the engine built it before frames were born frozen:
    every header constructed, pushed and packed per frame."""
    packet = Packet(transport, payload + bytes(ICRC_SIZE))
    udp = Udp(49152 + (qp.qpn & 0x3FFF), ROCE_V2_PORT)
    udp.finalize(sum(h.size() for h in transport) + len(payload) + ICRC_SIZE)
    packet.push(udp)
    packet.push(Ipv4(qp.local_ip, qp.remote_ip,
                     proto=PROTO_UDP).finalize(udp.length))
    packet.push(Ethernet(qp.local_mac, qp.remote_mac))
    return packet.to_bytes()


def assert_born_parsed(frame):
    """A frame leaves with its own parse, cached or not."""
    assert frame.layout == parse_layout(frame.raw)


class TestRoceFrameHeads:
    """Frames leave as cached head + transport + payload + ICRC with a
    cached layout; every one must equal what the header classes pack
    for the same fields, and carry the parse of those bytes."""

    @pytest.mark.parametrize("size", [1, 1024, 452])
    @pytest.mark.parametrize("first,last", [
        (True, False), (False, False), (False, True), (True, True)])
    def test_send_segments(self, first, last, size):
        loop = _Loopback(Simulator())
        qp, payload = loop.qp_a, bytes(range(256)) * 4
        wqe = landed(TxWqe(OP_RDMA_SEND, 1, 0, 0, size))
        for psn in (5, 6):      # the second is built on a warm head
            qp.next_psn = psn
            frame = loop.a._build_frame(qp, payload[:size], size, first,
                                        last, wqe)
            bth = Bth(send_opcode(first, last), qp.remote_qpn, psn,
                      ack_request=last)
            assert frame.to_bytes() == packed_by_header_classes(
                qp, [bth], payload[:size])
            assert_born_parsed(frame)
        assert list(qp.frame_heads) == [
            (8 + 12 + size + ICRC_SIZE, send_opcode(first, last))]

    @pytest.mark.parametrize("size", [1, 1024, 452])
    def test_write_first_carries_its_reth(self, size):
        loop = _Loopback(Simulator())
        qp = loop.qp_a
        wqe = landed(TxWqe(OP_RDMA_WRITE, 1, 0, 0, size))
        for _ in range(2):      # the second is built on a warm head
            frame = loop.a._build_frame(
                qp, bytes(size), size, True, False, wqe, is_write=True,
                remote_addr=0x1234_5678_9ABC, rkey=77, total_length=3000)
            assert frame.to_bytes() == packed_by_header_classes(
                qp, [Bth(write_opcode(True, False), qp.remote_qpn, 0),
                     Reth(0x1234_5678_9ABC, 77, 3000)], bytes(size))
            assert_born_parsed(frame)

    def test_same_length_other_opcode_is_parsed_again(self):
        """A WRITE_FIRST and a SEND body of one length share a UDP
        length, but only the first carries a RETH."""
        loop = _Loopback(Simulator())
        qp = loop.qp_a
        wqe = landed(TxWqe(OP_RDMA_WRITE, 1, 0, 0, 16))
        write = loop.a._build_frame(
            qp, bytes(16), 16, True, False, wqe, is_write=True,
            remote_addr=0x1000, rkey=7, total_length=16)
        send = loop.a._build_frame(qp, bytes(32), 32, True, False, wqe)
        assert len(write.raw) == len(send.raw)
        assert_born_parsed(write)
        assert_born_parsed(send)
        assert write.layout != send.layout

    def test_ack(self):
        loop = _Loopback(Simulator())
        qp, sent = loop.qp_b, []
        loop.b.egress = lambda qp, frame: sent.append(frame)
        qp.expected_psn, qp.received_msn = 10, 3
        loop.b._send_ack(qp)
        loop.b._send_ack(qp)
        expected = packed_by_header_classes(
            qp, [Bth(OP_ACK, qp.remote_qpn, 9), Aeth(msn=3)], b"")
        assert [frame.to_bytes() for frame in sent] == [expected, expected]
        for frame in sent:
            assert_born_parsed(frame)

    def test_thawing_an_outstanding_frame_leaves_its_retransmission(self):
        """A ``drop_filter`` may ``find(Bth)`` on the frame the QP keeps
        for go-back-N; the retransmitted ``copy()`` is the same bytes."""
        loop = _Loopback(Simulator())
        wqe = landed(TxWqe(OP_RDMA_SEND, 1, 0, 0, 100))
        frame = loop.a._build_frame(loop.qp_a, bytes(100), 100, True, True,
                                    wqe)
        sent = frame.to_bytes()
        assert frame.find(Bth).dest_qp == loop.qp_a.remote_qpn
        again = frame.copy()
        assert again.to_bytes() == sent
        assert again.meta == frame.meta and again.meta is not frame.meta
