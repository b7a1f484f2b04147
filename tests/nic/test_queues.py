"""Unit tests for NIC queue state machines."""

import pytest

from repro.net import RssEngine, make_flows
from repro.nic import (
    CompletionQueue,
    MultiPacketReceiveQueue,
    QueueError,
    ReceiveQueue,
    RssGroup,
    SendQueue,
)
from repro.sim import Simulator
from repro.testbed import make_local_node


def sim_and_cq():
    sim = Simulator()
    return sim, CompletionQueue(sim, 1, 0x1000, 256)


class TestCompletionQueue:
    def test_the_nic_advances_and_wraps_the_slots(self):
        """Receive (``_post_cqe``) and send (``_post_cqe_at``) CQEs take
        the CQ's slots in turn, wrapping at the ring's end."""
        sim = Simulator()
        nic = make_local_node(sim).nic
        cq = nic.create_cq(0x1000, 256)
        slots = []
        nic.fabric.post_write = (
            lambda _src, address, *args, **kwargs: slots.append(address))
        nic.fabric.post_write_at = (
            lambda _src, address, *args, **kwargs: slots.append(address))
        for i in range(257):
            if i % 2:
                nic._post_cqe_at(cq, bytes(64), None, 0.0)
            else:
                nic._post_cqe(cq, bytes(64), None)
        assert slots[:3] == [0x1000, 0x1040, 0x1080]
        assert slots[256] == 0x1000  # wrapped around the ring
        assert cq.pi == cq.stats_cqes == 257

    def test_entries_must_be_power_of_two(self):
        sim = Simulator()
        with pytest.raises(QueueError):
            CompletionQueue(sim, 1, 0, 100)


class TestSendQueue:
    def _sq(self, entries=16):
        sim, cq = sim_and_cq()
        return sim, SendQueue(sim, 7, 0x2000, entries, cq)

    def test_doorbell_advances_pi(self):
        _sim, sq = self._sq()
        sq.ring_doorbell(3)
        assert sq.pi == 3
        assert sq.outstanding == 3

    def test_backwards_doorbell_rejected(self):
        _sim, sq = self._sq()
        sq.ring_doorbell(5)
        with pytest.raises(QueueError):
            sq.ring_doorbell(4)

    def test_overflow_doorbell_rejected(self):
        _sim, sq = self._sq(entries=8)
        with pytest.raises(QueueError):
            sq.ring_doorbell(9)

    def test_slot_addresses_wrap(self):
        _sim, sq = self._sq(entries=16)
        assert sq.slot_addr(0) == 0x2000
        assert sq.slot_addr(16) == 0x2000
        assert sq.slot_addr(17) == 0x2000 + 64

    def test_invalid_transport_rejected(self):
        sim, cq = sim_and_cq()
        with pytest.raises(QueueError):
            SendQueue(sim, 1, 0, 16, cq, transport="udp")


class TestReceiveQueue:
    def test_post_and_consume(self):
        sim, cq = sim_and_cq()
        rq = ReceiveQueue(sim, 1, 0x3000, 64, cq)
        rq.post(10)
        assert rq.available == 10
        rq.ci += 3
        assert rq.available == 7

    def test_overpost_rejected(self):
        sim, cq = sim_and_cq()
        rq = ReceiveQueue(sim, 1, 0, 8, cq)
        with pytest.raises(QueueError):
            rq.post(9)


class TestMprq:
    def _mprq(self, entries=4, strides=8, stride_size=512):
        sim, cq = sim_and_cq()
        rq = MultiPacketReceiveQueue(sim, 1, 0, entries, cq, strides,
                                     stride_size)
        rq.post(entries)
        return rq

    def test_small_packets_pack_into_strides(self):
        rq = self._mprq()
        placements = [rq.place(100) for _ in range(8)]
        assert all(p is not None for p in placements)
        assert [p["stride_index"] for p in placements] == list(range(8))
        assert placements[-1]["closes_buffer"]
        assert rq.stats_buffers_closed == 1

    def test_large_packet_takes_multiple_strides(self):
        rq = self._mprq()
        placement = rq.place(1500)
        assert placement["strides"] == 3

    def test_tail_fragmentation_bounded(self):
        """A packet that doesn't fit closes the buffer: bounded waste."""
        rq = self._mprq()
        for _ in range(7):
            rq.place(100)
        placement = rq.place(1000)  # needs 2 strides, only 1 left
        assert placement["desc_index"] == 1
        assert placement["stride_index"] == 0
        assert rq.stats_wasted_strides == 1

    def test_oversized_packet_rejected(self):
        rq = self._mprq()
        with pytest.raises(QueueError):
            rq.place(8 * 512 + 1)

    def test_exhaustion_returns_none(self):
        rq = self._mprq(entries=1)
        for _ in range(8):
            assert rq.place(512) is not None
        assert rq.place(512) is None
        assert rq.stats_drops_no_desc == 1

    def test_buffer_size_property(self):
        rq = self._mprq(strides=8, stride_size=512)
        assert rq.buffer_size == 4096


class TestRssGroup:
    def test_selects_spread_queues(self):
        sim, cq = sim_and_cq()
        rqs = [ReceiveQueue(sim, i, 0x1000 * (i + 1), 64, cq)
               for i in range(4)]
        group = RssGroup("test", rqs, RssEngine(queues=list(range(4))))
        chosen = set()
        for flow in make_flows(32, seed=5):
            packet = flow.make_packet(b"x", fill_checksums=False)
            chosen.add(group.select(packet).rqn)
        assert len(chosen) >= 3

    def test_empty_group_rejected(self):
        with pytest.raises(QueueError):
            RssGroup("empty", [], RssEngine(queues=[0]))
