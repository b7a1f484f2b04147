"""Unit tests for the FlexDriver top-level BAR handling and errors."""

import pytest

from repro.core import (
    AxisMetadata,
    FlexDriver,
    FldConfig,
    FldError,
    RxError,
    bar,
)
from repro.nic import CQE_RECV_COMPLETION, CQE_SEND_COMPLETION, Cqe
from repro.nic.wqe import CQE_ERROR
from repro.pcie import PcieError, PcieFabric
from repro.sim import Simulator


def make_fld(**config):
    sim = Simulator()
    fabric = PcieFabric(sim)
    fld = FlexDriver(sim, fabric, config=FldConfig(**config))
    return sim, fld


class TestBarHandling:
    def test_rx_buffer_write_lands_in_sram(self):
        _sim, fld = make_fld()
        fld.bind_rx_queue(0, FlexDriver.RX_CQ_BASE, 2, 8, 2048, 0x100)
        fld.handle_write(bar.rx_buffer_address(0), b"packet bytes")
        cqe = Cqe(CQE_RECV_COMPLETION, 1, 0, 12)
        fld.handle_write(bar.cq_address(FlexDriver.RX_CQ_BASE), cqe.pack())
        # rx_stream receives the packet after the pipeline latency.
        _sim.run()
        assert len(fld.rx_stream) == 1

    def test_cqe_on_unbound_ring_reports_error(self):
        _sim, fld = make_fld()
        cqe = Cqe(CQE_RECV_COMPLETION, 1, 0, 0)
        fld.handle_write(bar.cq_address(7), cqe.pack())
        assert fld.errors.stats_reported == 1

    def test_error_cqe_reported_to_channel(self):
        sim, fld = make_fld()
        fld.bind_tx_queue(0, 5, 16, 0, 0, cq_index=0)
        errors = []

        def drain(sim):
            error = yield fld.errors.channel.get()
            errors.append(error)

        sim.spawn(drain(sim))
        cqe = Cqe(CQE_ERROR, 5, 0, 0, syndrome=9)
        fld.handle_write(bar.cq_address(0), cqe.pack())
        sim.run()
        assert errors and errors[0].kind == FldError.CQE_ERROR
        assert errors[0].syndrome == 9

    def test_short_cqe_write_rejected(self):
        _sim, fld = make_fld()
        with pytest.raises(PcieError):
            fld.handle_write(bar.cq_address(0), b"\x00" * 10)

    def test_pi_region_writes_accepted(self):
        _sim, fld = make_fld()
        fld.handle_write(bar.PI_REGION, b"\x00\x00\x00\x01")  # no raise

    def test_out_of_range_buffer_write_rejected(self):
        _sim, fld = make_fld(rx_buffer_bytes=64 * 1024)
        with pytest.raises(RxError):
            fld.handle_write(bar.rx_buffer_address(64 * 1024 - 4),
                             b"too long")

    def test_unreadable_region_rejected(self):
        _sim, fld = make_fld()
        with pytest.raises(PcieError):
            fld.handle_read(bar.rx_buffer_address(0), 64)

    def test_send_completion_routes_to_tx(self):
        _sim, fld = make_fld()
        fld.bind_tx_queue(0, qpn=5, entries=16, doorbell_addr=0,
                          mmio_addr=0, cq_index=0, use_mmio=False)
        fld.tx.mmio_writer = lambda a, d: None  # detach PCIe
        fld.tx.submit(0, b"x" * 64, AxisMetadata(queue_id=0))
        cqe = Cqe(CQE_SEND_COMPLETION, 5, 0, 64)
        fld.handle_write(bar.cq_address(0), cqe.pack())
        assert fld.tx.descriptors.free_slots == fld.tx.descriptors.capacity


class TestSendPath:
    def test_try_send_respects_credits(self):
        sim, fld = make_fld()
        fld.bind_tx_queue(0, 5, entries=4, doorbell_addr=0, mmio_addr=0,
                          cq_index=0, credits=2)
        fld.tx.mmio_writer = lambda a, d: None
        assert fld.try_send(b"a", AxisMetadata(queue_id=0))
        assert fld.try_send(b"b", AxisMetadata(queue_id=0))
        assert not fld.try_send(b"c", AxisMetadata(queue_id=0))
        sim.run()
        assert fld.stats_tx_packets == 2

    def small_slot_pool(self, slots):
        """An FLD with ``slots`` descriptor slots and 64 B chunks, whose
        submits record the instant they land."""
        sim, fld = make_fld(descriptor_pool_size=slots, chunk_size=64)
        fld.bind_tx_queue(0, 5, entries=16, doorbell_addr=0, mmio_addr=0,
                          cq_index=0)
        fld.tx.mmio_writer = lambda a, d: None
        landed = []
        submit = fld.tx.submit

        def recording(queue_id, data, meta, *rest):
            landed.append(sim.now)
            return submit(queue_id, data, meta, *rest)

        fld.tx.submit = recording
        return sim, fld, landed

    def test_send_admission_counts_sends_not_chunks(self):
        """Two 256 B sends (four chunks each) and four descriptor slots:
        each send holds one slot, so neither waits for the other."""
        sim, fld, landed = self.small_slot_pool(4)
        done = []
        for _ in range(2):
            fld.send_then(bytes(256), AxisMetadata(queue_id=0),
                          done.append, sim.now)
        sim.run()
        # 4 cycles of occupancy (256 B at 64 B a cycle) + 200 ns latency.
        assert landed == [pytest.approx(216e-9)] * 2
        assert fld.stats_tx_packets == 2

    def test_try_send_admission_counts_sends_not_chunks(self):
        sim, fld, landed = self.small_slot_pool(4)
        assert fld.try_send(bytes(256), AxisMetadata(queue_id=0))
        assert fld.try_send(bytes(256), AxisMetadata(queue_id=0))
        sim.run()
        assert fld.stats_tx_packets == 2

    def test_try_send_refuses_past_the_free_slots(self):
        sim, fld, _landed = self.small_slot_pool(2)
        assert fld.try_send(b"a", AxisMetadata(queue_id=0))
        assert fld.try_send(b"b", AxisMetadata(queue_id=0))
        assert not fld.try_send(b"c", AxisMetadata(queue_id=0))
        sim.run()
        assert fld.stats_tx_packets == 2

    def test_send_blocks_for_credit_until_completion(self):
        sim, fld = make_fld()
        fld.bind_tx_queue(0, 5, entries=4, doorbell_addr=0, mmio_addr=0,
                          cq_index=0, credits=1)
        fld.tx.mmio_writer = lambda a, d: None
        sent = []

        def sender(sim):
            yield from fld.send(b"first", AxisMetadata(queue_id=0))
            sent.append(("first", sim.now))
            yield from fld.send(b"second", AxisMetadata(queue_id=0))
            sent.append(("second", sim.now))

        def completer(sim):
            yield sim.timeout(1.0)
            fld.tx.on_send_completion(5, 0)
            fld.tx.credits.refund(0, 0)  # no-op; credits refunded above

        sim.spawn(sender(sim))
        sim.spawn(completer(sim))
        sim.run(until=2.0)
        assert sent[0][0] == "first"
        assert sent[1][1] >= 1.0  # waited for the completion's credit

    def test_on_die_memory_totals(self):
        _sim, fld = make_fld()
        fld.bind_tx_queue(0, 5, 16, 0, 0, cq_index=0)
        fld.bind_rx_queue(0, FlexDriver.RX_CQ_BASE, 2, 8, 2048, 0)
        memory = fld.on_die_memory()
        expected = sum(v for k, v in memory.items() if k != "total")
        assert memory["total"] == expected
        assert memory["tx_buffers"] == 256 * 1024
        assert memory["rx_buffers"] == 256 * 1024


class TestErrorReporter:
    def test_reports_carry_time_and_detail(self):
        sim, fld = make_fld()

        def later(sim):
            yield sim.timeout(2.5)
            fld.errors.report(FldError.RING_OVERFLOW, queue=3,
                              detail="tx ring 3 overflow")

        sim.spawn(later(sim))
        sim.run()
        error = fld.errors.channel.try_get()
        assert error.kind == FldError.RING_OVERFLOW
        assert error.queue == 3
        assert error.time == pytest.approx(2.5)
        assert "overflow" in repr(error) or error.detail
