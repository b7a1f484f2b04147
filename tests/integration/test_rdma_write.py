"""Integration: one-sided RDMA WRITE through the full stack.

The NIC's hardware transport supports RDMA WRITE (the offload class
Table 1 credits FLD with); data lands directly in the remote registered
memory region — no receive descriptor, no receive CQE, no remote CPU.
"""

import pytest

from repro.sim import Event, Simulator
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


class TestRdmaWrite:
    def test_single_segment_write_lands_in_region(self):
        sim = Simulator()
        _c, _s, cep, sep = build(sim)
        addr, rkey, read = sep.register_mr(4096)
        payload = b"one-sided write!" * 4

        def proc(sim):
            yield cep.post_write(payload, addr, rkey)

        sim.spawn(proc(sim))
        sim.run(until=0.01)
        assert read(len(payload)) == payload

    def test_inbound_write_dma_builds_no_event(self, monkeypatch):
        """Nobody waits for the DMA of an inbound segment's payload: it
        is a posted write, with no completion Event."""
        sim = Simulator()
        _c, server, cep, sep = build(sim)
        addr, rkey, read = sep.register_mr(8192)
        built, per_segment = [], []
        init, dma_write = Event.__init__, server.nic.rdma.dma_write

        def counted_init(event, sim):
            built.append(event)
            init(event, sim)

        def counted_dma_write(va, data):
            before = len(built)
            dma_write(va, data)
            per_segment.append(len(built) - before)

        monkeypatch.setattr(Event, "__init__", counted_init)
        server.nic.rdma.dma_write = counted_dma_write
        payload = bytes(range(256)) * 20  # 5120 B -> 5 segments

        def proc(sim):
            yield cep.post_write(payload, addr, rkey)

        sim.spawn(proc(sim))
        sim.run(until=0.01)
        assert read(len(payload)) == payload
        assert per_segment == [0] * 5

    def test_multi_segment_write(self):
        sim = Simulator()
        _c, _s, cep, sep = build(sim)
        addr, rkey, read = sep.register_mr(8192)
        payload = bytes(range(256)) * 20  # 5120 B -> 5 segments

        def proc(sim):
            yield cep.post_write(payload, addr, rkey)

        sim.spawn(proc(sim))
        sim.run(until=0.01)
        assert read(len(payload)) == payload
        assert sep.qp.stats_writes_received == 5

    def test_write_consumes_no_receive_descriptor(self):
        sim = Simulator()
        _c, _s, cep, sep = build(sim)
        addr, rkey, _read = sep.register_mr(4096)
        available_before = sep.rq.available
        cqes_before = sep.rx_cq.stats_cqes

        def proc(sim):
            yield cep.post_write(b"x" * 2048, addr, rkey)

        sim.spawn(proc(sim))
        sim.run(until=0.01)
        assert sep.rq.available == available_before
        assert sep.rx_cq.stats_cqes == cqes_before

    def test_write_with_offset_into_region(self):
        sim = Simulator()
        _c, _s, cep, sep = build(sim)
        addr, rkey, read = sep.register_mr(4096)

        def proc(sim):
            yield cep.post_write(b"tail", addr + 1000, rkey)

        sim.spawn(proc(sim))
        sim.run(until=0.01)
        assert read(4, offset=1000) == b"tail"
        assert read(4, offset=0) == bytes(4)  # start untouched

    def test_bad_rkey_rejected(self):
        sim = Simulator()
        _c, _s, cep, sep = build(sim)
        addr, rkey, read = sep.register_mr(4096)

        def proc(sim):
            cep.post_write(b"forged", addr, rkey + 999, signaled=False)
            yield sim.timeout(0)

        sim.spawn(proc(sim))
        sim.run(until=0.01)
        assert read(6) == bytes(6)  # nothing written
        assert sep.qp.stats_write_protection_errors >= 1

    def test_out_of_bounds_write_rejected(self):
        sim = Simulator()
        _c, _s, cep, sep = build(sim)
        addr, rkey, read = sep.register_mr(128)

        def proc(sim):
            cep.post_write(b"y" * 256, addr, rkey, signaled=False)
            yield sim.timeout(0)

        sim.spawn(proc(sim))
        sim.run(until=0.01)
        assert read(128) == bytes(128)
        assert sep.qp.stats_write_protection_errors >= 1

    def test_deregistered_region_rejected(self):
        sim = Simulator()
        _c, server, cep, sep = build(sim)
        addr, rkey, read = sep.register_mr(4096)
        server.nic.rdma.deregister_mr(rkey)

        def proc(sim):
            cep.post_write(b"stale", addr, rkey, signaled=False)
            yield sim.timeout(0)

        sim.spawn(proc(sim))
        sim.run(until=0.01)
        assert read(5) == bytes(5)

    def test_write_then_send_ordering(self):
        """A WRITE followed by a SEND on the same QP: the receiver sees
        the written data before the notification message (RC ordering)."""
        sim = Simulator()
        _c, _s, cep, sep = build(sim)
        addr, rkey, read = sep.register_mr(4096)
        seen = {}

        def receiver(sim):
            message, _cqe = yield sep.messages.get()
            seen["data_at_notify"] = read(9)
            seen["message"] = message

        def sender(sim):
            cep.post_write(b"bulk data", addr, rkey, signaled=False)
            yield cep.post_send(b"done")

        sim.spawn(receiver(sim))
        sim.spawn(sender(sim))
        sim.run(until=0.01)
        assert seen["message"] == b"done"
        assert seen["data_at_notify"] == b"bulk data"
