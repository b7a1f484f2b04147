"""Unit tests for the FLD Tx/Rx ring managers (no NIC attached)."""

import pytest

from repro.core import (
    AxisMetadata,
    BufferPool,
    RxError,
    RxRingManager,
    TranslationError,
    TxQueueError,
    TxRingManager,
)
from repro.nic import CQE_RECV_COMPLETION, Cqe, TxWqe, WQE_SIZE
from repro.nic.wqe import CQE, CqeRecord
from repro.sim import Simulator


def landed(cqe):
    """``cqe`` as FLD reads it off the bytes that landed."""
    return CqeRecord(CQE.unpack_from(cqe.pack()) + (None,))


def land(rx, offset, data):
    """The NIC's DMA write of packet data into receive SRAM (what
    ``FlexDriver.handle_write`` does for the rx-buffer region)."""
    rx._sram[offset:offset + len(data)] = data


def make_tx(descriptors=64, buffer_bytes=16 * 1024, mmio_log=None):
    sim = Simulator()
    pool = BufferPool(buffer_bytes, chunk_size=256)
    writer = (lambda addr, data: mmio_log.append((addr, data))) \
        if mmio_log is not None else None
    tx = TxRingManager(sim, pool, descriptors, mmio_writer=writer,
                       bar_base=0x1000_0000)
    return sim, tx


class TestTxSubmit:
    def test_submit_stores_compressed_state(self):
        _sim, tx = make_tx()
        tx.add_queue(0, qpn=5, entries=16, doorbell_addr=0x10,
                     mmio_addr=0x20)
        index = tx.submit(0, b"frame" * 20, AxisMetadata(queue_id=0))
        assert index == 0
        handle, length, context, _opcode, signaled = \
            tx.descriptors.lookup(0, 0)
        assert (length, context, signaled) == (100, 0, True)
        assert handle == tx.queue(0).outstanding[0][0][0]

    def test_mmio_doorbell_carries_expanded_wqe(self):
        log = []
        _sim, tx = make_tx(mmio_log=log)
        tx.add_queue(0, qpn=5, entries=16, doorbell_addr=0x10,
                     mmio_addr=0x20, use_mmio=True)
        tx.submit(0, b"x" * 64, AxisMetadata(queue_id=0))
        assert len(log) == 1
        addr, data = log[0]
        assert addr == 0x20
        wqe = TxWqe.unpack(data)
        assert wqe.qpn == 5 and wqe.byte_count == 64

    def test_plain_doorbell_mode(self):
        log = []
        _sim, tx = make_tx(mmio_log=log)
        tx.add_queue(0, qpn=5, entries=16, doorbell_addr=0x10,
                     mmio_addr=0x20, use_mmio=False)
        tx.submit(0, b"x", AxisMetadata(queue_id=0))
        addr, data = log[0]
        assert addr == 0x10
        assert int.from_bytes(data, "big") == 1

    def test_ring_read_generates_wqes_on_the_fly(self):
        _sim, tx = make_tx()
        tx.add_queue(0, qpn=9, entries=16, doorbell_addr=0, mmio_addr=0)
        payload = bytes(range(256)) * 2
        tx.submit(0, payload, AxisMetadata(queue_id=0))
        raw = tx.handle_ring_read(0, 0, WQE_SIZE)
        wqe = TxWqe.unpack(raw)
        assert wqe.byte_count == len(payload)
        # ...and the advertised data address resolves to the payload.
        data = tx.data_xlt.read_virtual(
            0, (wqe.buffer_addr - 0x1000_0000) & 0x7_FFFF, len(payload))
        assert data == payload

    def test_batched_ring_read(self):
        _sim, tx = make_tx()
        tx.add_queue(0, qpn=9, entries=16, doorbell_addr=0, mmio_addr=0)
        for i in range(4):
            tx.submit(0, bytes([i]) * 100, AxisMetadata(queue_id=0))
        raw = tx.handle_ring_read(0, 0, 4 * WQE_SIZE)
        wqes = [TxWqe.unpack(raw[i * 64:(i + 1) * 64]) for i in range(4)]
        assert [w.wqe_index for w in wqes] == [0, 1, 2, 3]
        assert tx.stats_wqe_reads == 4

    def test_burst_read_is_the_single_reads_stitched_together(self):
        _sim, tx = make_tx()
        tx.add_queue(0, qpn=9, entries=16, doorbell_addr=0, mmio_addr=0)
        for i in range(6):
            tx.submit(0, bytes([i]) * (80 + i), AxisMetadata(queue_id=0))
        burst = tx.handle_ring_read(0, 0, 6 * WQE_SIZE)
        singles = b"".join(tx.handle_ring_read(0, i * WQE_SIZE, WQE_SIZE)
                           for i in range(6))
        assert burst == singles
        assert tx.stats_wqe_reads == 12

    def test_ring_read_after_wrap_resolves_the_in_flight_index(self):
        """Slots 0-1 are reused by wqe 4-5 once 0-1 have completed."""
        _sim, tx = make_tx()
        tx.add_queue(0, qpn=9, entries=4, doorbell_addr=0, mmio_addr=0)
        for i in range(4):
            tx.submit(0, bytes([i]) * 64, AxisMetadata(queue_id=0))
        tx.on_send_completion(qpn=9, wqe_counter=1)
        for i in range(4, 6):
            tx.submit(0, bytes([i]) * 64, AxisMetadata(queue_id=0))
        head = tx.handle_ring_read(0, 0, 2 * WQE_SIZE)
        tail = tx.handle_ring_read(0, 2 * WQE_SIZE, 2 * WQE_SIZE)
        assert [w.wqe_index for w in TxWqe.unpack_many(head, 2)] == [4, 5]
        assert [w.wqe_index for w in TxWqe.unpack_many(tail, 2)] == [2, 3]

    def test_read_of_unposted_slot_raises(self):
        _sim, tx = make_tx()
        tx.add_queue(0, qpn=9, entries=16, doorbell_addr=0, mmio_addr=0)
        with pytest.raises(TranslationError):
            tx.handle_ring_read(0, 0, WQE_SIZE)

    def test_burst_reaching_an_unposted_slot_counts_nothing(self):
        """One posted WQE, a four-slot read: the read fails whole."""
        _sim, tx = make_tx()
        tx.add_queue(0, qpn=9, entries=16, doorbell_addr=0, mmio_addr=0)
        tx.submit(0, b"x" * 64, AxisMetadata(queue_id=0))
        with pytest.raises(TranslationError):
            tx.handle_ring_read(0, 0, 4 * WQE_SIZE)
        assert tx.stats_wqe_reads == 0

    def test_descriptor_pool_lookup_many(self):
        _sim, tx = make_tx()
        tx.add_queue(0, qpn=9, entries=16, doorbell_addr=0, mmio_addr=0)
        for _ in range(5):
            tx.submit(0, bytes(64), AxisMetadata(queue_id=0))
        many = tx.descriptors.lookup_many(0, range(5))
        assert many == [tx.descriptors.lookup(0, i) for i in range(5)]
        with pytest.raises(TranslationError):
            tx.descriptors.lookup_many(0, [0, 1, 99])

    def test_unaligned_ring_read_rejected(self):
        _sim, tx = make_tx()
        tx.add_queue(0, qpn=9, entries=16, doorbell_addr=0, mmio_addr=0)
        with pytest.raises(TxQueueError):
            tx.handle_ring_read(0, 7, 64)

    def test_completion_recycles_everything(self):
        _sim, tx = make_tx()
        tx.add_queue(0, qpn=9, entries=16, doorbell_addr=0, mmio_addr=0)
        for i in range(5):
            tx.submit(0, bytes(300), AxisMetadata(queue_id=0))
        free_before = tx.buffers.free_chunks
        retired = tx.on_send_completion(qpn=9, wqe_counter=4)
        assert retired == 5
        assert tx.buffers.free_chunks == tx.buffers.num_chunks
        assert tx.descriptors.free_slots == tx.descriptors.capacity
        assert tx.credits.available(0) == tx.credits.capacity(0)

    def test_cumulative_completion_is_selective_signalling(self):
        _sim, tx = make_tx()
        tx.add_queue(0, qpn=9, entries=32, doorbell_addr=0, mmio_addr=0)
        for _ in range(16):
            tx.submit(0, bytes(64), AxisMetadata(queue_id=0))
        assert tx.on_send_completion(9, 15) == 16

    def test_ring_overflow_rejected(self):
        _sim, tx = make_tx()
        tx.add_queue(0, qpn=9, entries=4, doorbell_addr=0, mmio_addr=0)
        for _ in range(4):
            tx.submit(0, b"x", AxisMetadata(queue_id=0))
        with pytest.raises(TxQueueError):
            tx.submit(0, b"x", AxisMetadata(queue_id=0))

    def test_buffer_exhaustion_rejected(self):
        _sim, tx = make_tx(buffer_bytes=1024)
        tx.add_queue(0, qpn=9, entries=64, doorbell_addr=0, mmio_addr=0)
        tx.submit(0, bytes(1024), AxisMetadata(queue_id=0))
        with pytest.raises(TxQueueError):
            tx.submit(0, bytes(256), AxisMetadata(queue_id=0))

    def test_unknown_queue_rejected(self):
        _sim, tx = make_tx()
        with pytest.raises(TxQueueError):
            tx.submit(9, b"x", AxisMetadata(queue_id=9))

    def test_completion_for_unknown_qpn_rejected(self):
        _sim, tx = make_tx()
        with pytest.raises(TxQueueError):
            tx.on_send_completion(qpn=123, wqe_counter=0)

    def test_memory_accounting_reports_components(self):
        _sim, tx = make_tx()
        tx.add_queue(0, qpn=1, entries=16, doorbell_addr=0, mmio_addr=0)
        memory = tx.memory_bytes()
        assert memory["tx_buffers"] == 16 * 1024
        assert memory["tx_descriptor_pool"] > 0
        assert memory["tx_data_translation"] > 0


class TestRxManager:
    def make_rx(self, emitted=None, doorbells=None):
        sim = Simulator()
        rx = RxRingManager(
            sim, capacity_bytes=64 * 1024,
            mmio_writer=(lambda a, d: doorbells.append((a, d)))
            if doorbells is not None else None,
            emit=(lambda data, meta: emitted.append((data, meta)))
            if emitted is not None else None,
        )
        return sim, rx

    def test_binding_carves_sram(self):
        _sim, rx = self.make_rx()
        first = rx.add_binding(0, ring_entries=2, strides_per_buffer=8,
                               stride_size=2048, rq_doorbell_addr=0x100)
        assert first == 0
        second = rx.add_binding(1, ring_entries=1, strides_per_buffer=8,
                                stride_size=2048, rq_doorbell_addr=0x200)
        assert second == 2 * 8 * 2048

    def test_sram_exhaustion_rejected(self):
        _sim, rx = self.make_rx()
        with pytest.raises(RxError):
            rx.add_binding(0, ring_entries=8, strides_per_buffer=8,
                           stride_size=2048, rq_doorbell_addr=0)

    def test_completion_emits_packet_data(self):
        emitted = []
        _sim, rx = self.make_rx(emitted=emitted)
        rx.add_binding(0, 2, 8, 2048, 0x100)
        land(rx, 0, b"hello packet")
        cqe = Cqe(CQE_RECV_COMPLETION, qpn=1, wqe_counter=0, byte_count=12,
                  flow_tag=0x77)
        rx.on_recv_completion(0, landed(cqe))
        assert emitted == [(b"hello packet", emitted[0][1])]
        assert emitted[0][1].context_id == 0x77

    def test_stride_addressing(self):
        emitted = []
        _sim, rx = self.make_rx(emitted=emitted)
        rx.add_binding(0, 2, 8, 2048, 0x100)
        land(rx, 3 * 2048, b"stride three")
        cqe = Cqe(CQE_RECV_COMPLETION, 1, wqe_counter=0, byte_count=12,
                  stride_index=3)
        rx.on_recv_completion(0, landed(cqe))
        assert emitted[0][0] == b"stride three"

    def test_in_order_recycle_rings_doorbell(self):
        doorbells = []
        _sim, rx = self.make_rx(doorbells=doorbells)
        rx.add_binding(0, 2, 8, 2048, 0x100)
        # A completion for descriptor 1 means buffer 0 is done.
        cqe = Cqe(CQE_RECV_COMPLETION, 1, wqe_counter=1, byte_count=0)
        rx.on_recv_completion(0, landed(cqe))
        assert len(doorbells) == 1
        addr, data = doorbells[0]
        assert addr == 0x100
        assert int.from_bytes(data, "big") == 3  # pi advanced past 2

    def test_unknown_binding_rejected(self):
        _sim, rx = self.make_rx()
        with pytest.raises(RxError):
            rx.on_recv_completion(5, landed(Cqe(1, 1, 0, 0)))

    def test_memory_accounting(self):
        _sim, rx = self.make_rx()
        memory = rx.memory_bytes()
        assert memory["rx_buffers"] == 64 * 1024
        assert memory["rx_ring"] == 0
