"""Unit tests for the host software driver and CPU model."""

import pytest

from repro.host import (
    BumpAllocator,
    CpuComputeCost,
    CpuCore,
    HostMemory,
    PAGE_SIZE,
)
from repro.host.driver import QueueFullError
from repro.net import Flow
from repro.sim import Simulator
from repro.testbed import make_local_node


class TestHostMemory:
    def test_sparse_allocation(self):
        memory = HostMemory("m", size=1 << 40)  # a TiB of address space
        memory.handle_write(1 << 39, b"hello")
        assert memory.handle_read(1 << 39, 5) == b"hello"
        # Only the touched page is resident.
        assert memory.resident_bytes == PAGE_SIZE

    def test_cross_page_access(self):
        memory = HostMemory("m", size=1 << 20)
        data = bytes(range(256)) * 32  # 8 KiB spanning 3 pages
        memory.handle_write(PAGE_SIZE - 100, data)
        assert memory.handle_read(PAGE_SIZE - 100, len(data)) == data

    def test_unwritten_reads_as_zero(self):
        memory = HostMemory("m", size=1 << 20)
        assert memory.handle_read(12345, 8) == bytes(8)

    def test_bounds_enforced(self):
        from repro.pcie import PcieError
        memory = HostMemory("m", size=1024)
        with pytest.raises(PcieError):
            memory.handle_read(1020, 8)
        with pytest.raises(PcieError):
            memory.handle_write(1024, b"x")


class TestBumpAllocator:
    def test_alignment(self):
        alloc = BumpAllocator(0x1000, 0x1000)
        first = alloc.alloc(10, align=64)
        second = alloc.alloc(10, align=64)
        assert first % 64 == 0 and second % 64 == 0
        assert second >= first + 10

    def test_exhaustion(self):
        alloc = BumpAllocator(0, 128)
        alloc.alloc(100)
        with pytest.raises(MemoryError):
            alloc.alloc(100)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            BumpAllocator(0, 128).alloc(0)

    def test_double_free_is_refused_and_hands_out_nothing_live(self):
        alloc = BumpAllocator(0, 4096)
        x = alloc.alloc(100)
        alloc.alloc(100)
        alloc.free(x, 100)
        with pytest.raises(ValueError, match="overlaps free block"):
            alloc.free(x, 100)
        # Once part of the block is live again, freeing the whole of it
        # a second time would hand that live part out.
        c = alloc.alloc(50)
        assert c == x
        with pytest.raises(ValueError, match="overlaps free block"):
            alloc.free(x, 100)
        d = alloc.alloc(100)
        assert d >= c + 50
        assert alloc.used == 250

    def test_free_outside_the_allocated_window_is_refused(self):
        alloc = BumpAllocator(0, 4096)
        alloc.alloc(100)
        for addr, size in ((4000, 10), (90, 20), (-10, 20)):
            with pytest.raises(ValueError, match="outside the allocated"):
                alloc.free(addr, size)
        assert alloc.used == 100
        assert alloc.alloc(100) == 128


class TestCpuCore:
    def test_per_packet_time(self):
        sim = Simulator()
        core = CpuCore(sim, frequency_hz=1e9, per_packet_cycles=100,
                       os_jitter_probability=0.0)
        assert core.per_packet_seconds == pytest.approx(100e-9)
        assert core.packet_cost() == pytest.approx(100e-9)

    def test_jitter_appears_at_expected_rate(self):
        sim = Simulator()
        core = CpuCore(sim, os_jitter_probability=0.1, seed=42)
        costs = [core.packet_cost() for _ in range(2000)]
        assert 100 < core.stats_jitter_events < 320
        assert max(costs) > core.per_packet_seconds * 10

    def test_compute_cost_model(self):
        sim = Simulator()
        core = CpuCore(sim, frequency_hz=2e9, os_jitter_probability=0.0)
        compute = CpuComputeCost(core, cycles_per_byte=2.0,
                                 cycles_per_call=1000)
        assert compute.seconds_for(500) == pytest.approx(1e-6)
        assert compute.throughput_bps(500) == pytest.approx(4e9)


class TestEthQueuePair:
    def _node(self):
        sim = Simulator()
        node = make_local_node(sim)
        node.add_vport_for_mac(1, "02:00:00:00:00:01")
        return sim, node

    def test_send_rejects_oversized_frame(self):
        _sim, node = self._node()
        qp = node.driver.create_eth_qp(vport=1, buffer_size=256)
        with pytest.raises(ValueError):
            qp.send(bytes(300))

    def test_send_raises_when_ring_full(self):
        _sim, node = self._node()
        qp = node.driver.create_eth_qp(vport=1, sq_entries=16)
        frame = Flow("02:00:00:00:00:01", "02:00:00:00:00:02",
                     "1.1.1.1", "2.2.2.2", 1, 2).make_packet(
                         b"x", fill_checksums=False).to_bytes()
        # Fill the ring without running the simulator (NIC never drains).
        for _ in range(16):
            qp.send(frame)
        with pytest.raises(QueueFullError):
            qp.send(frame)

    def test_selective_signalling_retires_batches(self):
        sim, node = self._node()
        node.add_vport_for_mac(2, "02:00:00:00:00:02")
        sink = node.driver.create_eth_qp(vport=2)
        sink.post_rx_buffers(64)
        qp = node.driver.create_eth_qp(vport=1, signal_interval=8)
        frame = Flow("02:00:00:00:00:01", "02:00:00:00:00:02",
                     "1.1.1.1", "2.2.2.2", 1, 2).make_packet(
                         b"x" * 64, fill_checksums=False).to_bytes()
        for _ in range(16):
            qp.send(frame)
        sim.run(until=0.01)
        assert qp.tx_cq.stats_cqes == 2  # two signalled batches of 8
        assert qp.tx_free == qp.sq.entries

    def test_rx_buffer_recycling_sustains(self):
        sim, node = self._node()
        node.add_vport_for_mac(2, "02:00:00:00:00:02")
        sender = node.driver.create_eth_qp(vport=1)
        receiver = node.driver.create_eth_qp(vport=2, rq_entries=16)
        receiver.post_rx_buffers(16)
        flow = Flow("02:00:00:00:00:01", "02:00:00:00:00:02",
                    "1.1.1.1", "2.2.2.2", 1, 2)

        def send_many(sim):
            for _ in range(64):  # 4x the ring depth
                yield from sender.wait_for_tx_space()
                sender.send(flow.make_packet(b"y" * 100,
                                             fill_checksums=False)
                            .to_bytes())
                yield sim.timeout(2e-6)

        sim.spawn(send_many(sim))
        sim.run(until=0.01)
        assert receiver.stats_rx == 64

    def test_coreless_queue_receives_through_the_notify_store(self):
        # Without a core there is no processing delay to fold the CQE's
        # delivery into, so the NIC posts it the ordinary way.
        sim, node = self._node()
        node.add_vport_for_mac(2, "02:00:00:00:00:02")
        sender = node.driver.create_eth_qp(vport=1)
        node.driver.core = None
        receiver = node.driver.create_eth_qp(vport=2)
        assert receiver.rx_cq.fused_rx is None
        assert sender.rx_cq.fused_rx is not None
        receiver.post_rx_buffers(8)
        frame = Flow("02:00:00:00:00:01", "02:00:00:00:00:02",
                     "1.1.1.1", "2.2.2.2", 1, 2).make_packet(
                         b"z" * 80, fill_checksums=False).to_bytes()
        for _ in range(4):
            sender.send(frame)
        sim.run(until=0.01)
        assert receiver.stats_rx == 4
        data, _cqe = receiver.received.try_get()
        assert data == frame

    def test_memory_footprint_reported(self):
        _sim, node = self._node()
        node.driver.create_eth_qp(vport=1)
        footprint = node.driver.memory_footprint()
        assert footprint["allocated"] > 0
