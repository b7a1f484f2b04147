"""Stateful property tests for FLD's resource management.

The invariants that make the compressed/translated design safe:
resources (descriptor slots, buffer chunks, credits) are conserved
across arbitrary submit/complete interleavings, and MPRQ stride
placement never overlaps.
"""

from hypothesis import example, given, settings, strategies as st

from repro.core import AxisMetadata, BufferPool, TxRingManager
from repro.nic import CompletionQueue, MultiPacketReceiveQueue
from repro.sim import Simulator


class TestTxManagerConservation:
    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 2048)),
                    min_size=1, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_random_submit_complete_conserves_resources(self, operations):
        """(submit, size) / (complete, _) sequences leave no leaks."""
        sim = Simulator()
        pool = BufferPool(64 * 1024, chunk_size=256)
        tx = TxRingManager(sim, pool, descriptor_pool_size=64)
        tx.add_queue(0, qpn=1, entries=32, doorbell_addr=0, mmio_addr=0)
        state = tx.queue(0)
        outstanding = 0
        submitted = 0
        for is_submit, size in operations:
            if is_submit:
                if (outstanding < 32
                        and pool.free_chunks >= max(1, -(-size // pool.chunk_size))
                        and tx.descriptors.free_slots > 0):
                    tx.submit(0, bytes(size), AxisMetadata(queue_id=0))
                    outstanding += 1
                    submitted += 1
            elif outstanding > 0:
                # Complete the oldest outstanding WQE (cumulative).
                tx.on_send_completion(1, state.ci & 0xFFFF)
                outstanding -= 1
        # Drain everything.
        if outstanding:
            tx.on_send_completion(1, (state.pi - 1) & 0xFFFF)
        assert pool.free_chunks == pool.num_chunks
        assert tx.descriptors.free_slots == tx.descriptors.capacity
        assert state.stats_completed == submitted
        assert not state.outstanding

    @given(st.lists(st.integers(1, 4096), min_size=1, max_size=31))
    @settings(max_examples=40, deadline=None)
    def test_nic_reads_match_submissions(self, sizes):
        """Every outstanding WQE the NIC could read expands correctly."""
        from repro.nic import TxWqe, WQE_SIZE
        sim = Simulator()
        pool = BufferPool(256 * 1024, chunk_size=256)
        tx = TxRingManager(sim, pool, descriptor_pool_size=64,
                           bar_base=0x1000_0000)
        tx.add_queue(0, qpn=9, entries=32, doorbell_addr=0, mmio_addr=0)
        payloads = []
        for i, size in enumerate(sizes):
            data = bytes([i & 0xFF]) * size
            payloads.append(data)
            tx.submit(0, data, AxisMetadata(queue_id=0))
        for i, data in enumerate(payloads):
            raw = tx.handle_ring_read(0, (i % 32) * WQE_SIZE, WQE_SIZE)
            wqe = TxWqe.unpack(raw)
            assert wqe.byte_count == len(data)
            virt = (wqe.buffer_addr - 0x1000_0000) & 0x7_FFFF
            assert tx.data_xlt.read_virtual(0, virt, len(data)) == data


#: 256 B chunks: sizes one byte either side of a chunk boundary.
STRADDLING = st.builds(lambda chunks, skew: chunks * 256 + skew,
                       st.integers(1, 35), st.integers(-1, 1))


class TestFldRoundTrip:
    """Through the BAR: what the accelerator sends is what the NIC's
    data read at the WQE's address returns, and cumulative completions
    give every resource back."""

    BAR_BASE = 0x1000_0000
    QPN = 9

    @given(sizes=st.lists(st.one_of(st.integers(1, 9000), STRADDLING),
                          min_size=1, max_size=12),
           at_window_end=st.booleans(),
           cuts=st.lists(st.integers(0, 11), max_size=4),
           split=st.integers(0, 9000))
    @example(sizes=[257, 9000], at_window_end=True, cuts=[0], split=300)
    @example(sizes=[256, 1, 513], at_window_end=False, cuts=[], split=0)
    @settings(deadline=None)
    def test_send_read_back_retire(self, sizes, at_window_end, cuts,
                                   split):
        """Each packet is read whole, and again as two reads split at a
        drawn byte (the second starting inside a chunk, at the window
        address the split lands on: the window is circular)."""
        from repro.core import FlexDriver, bar
        from repro.nic import CQE_SEND_COMPLETION, TxWqe
        from tests.cqe import cqe_bytes
        from repro.pcie import PcieFabric
        from repro.telemetry import audit_fld
        sim = Simulator()
        fld = FlexDriver(sim, PcieFabric(sim), bar_base=self.BAR_BASE)
        fld.bind_tx_queue(0, self.QPN, entries=32, doorbell_addr=0,
                          mmio_addr=0, cq_index=0)
        wqes = []
        fld.tx.mmio_writer = lambda _addr, wqe: wqes.append(wqe)
        state = fld.tx.queue(0)
        if at_window_end:
            # The first packet's chunks wrap the virtual window's end.
            state.data_cursor = state.window_chunks - 1
        payloads = [bytes((i * 7 + j) & 0xFF for j in range(size))
                    for i, size in enumerate(sizes)]
        for data in payloads:
            assert fld.try_send(data, AxisMetadata(queue_id=0))
        sim.run()
        assert len(wqes) == len(payloads)
        for raw, data in zip(wqes, payloads):
            wqe = TxWqe.unpack(raw)
            assert wqe.byte_count == len(data)
            offset = wqe.buffer_addr - self.BAR_BASE
            assert bar.TX_DATA_REGION <= offset < bar.RX_BUFFER_REGION
            assert fld.handle_read(offset, len(data)) == data
            window = offset - (offset - bar.TX_DATA_REGION) % bar.TX_DATA_SPAN
            cut = split % len(data)
            rest = window + (offset - window + cut) % bar.TX_DATA_SPAN
            assert fld.handle_read(offset, cut) \
                + fld.handle_read(rest, len(data) - cut) == data
        for counter in sorted(set(cuts)) + [len(payloads) - 1]:
            if counter < len(payloads):
                fld.handle_write(bar.cq_address(0), cqe_bytes(
                    CQE_SEND_COMPLETION, self.QPN, counter, 0))
        tx = fld.tx
        assert tx.buffers.free_chunks == tx.buffers.num_chunks
        assert tx.descriptors.free_slots == tx.descriptors.capacity
        assert tx.descriptors.cuckoo_stats()["entries"] == 0
        assert tx.data_xlt.cuckoo_stats()["entries"] == 0
        assert state.stats_completed == len(payloads)
        assert audit_fld(fld) == []


class TestMprqPlacement:
    @given(st.lists(st.integers(1, 8192), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_strides_never_overlap(self, sizes):
        sim = Simulator()
        cq = CompletionQueue(sim, 1, 0, 1024)
        rq = MultiPacketReceiveQueue(sim, 1, 0, 256, cq,
                                     strides_per_buffer=64,
                                     stride_size=256)
        rq.post(256)
        occupied = set()
        for size in sizes:
            placement = rq.place(size)
            if placement is None:
                break
            span = range(
                placement["stride_index"],
                placement["stride_index"] + placement["strides"],
            )
            for stride in span:
                key = (placement["desc_index"], stride)
                assert key not in occupied, "stride reused while open"
                occupied.add(key)
            # Strides fit inside the buffer.
            assert placement["stride_index"] + placement["strides"] <= 64
            # The placement covers the packet.
            assert placement["strides"] * 256 >= size

    @given(st.lists(st.integers(1, 4096), min_size=10, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_waste_bounded_by_half_buffer(self, sizes):
        """§5.2: MPRQ fragmentation is bounded — tail waste per closed
        buffer is less than the largest packet's strides."""
        sim = Simulator()
        cq = CompletionQueue(sim, 1, 0, 1024)
        rq = MultiPacketReceiveQueue(sim, 1, 0, 1024, cq,
                                     strides_per_buffer=32,
                                     stride_size=256)
        rq.post(1024)
        for size in sizes:
            if rq.place(size) is None:
                break
        if rq.stats_buffers_closed:
            max_strides = max(-(-s // rq.stride_size) for s in sizes)
            waste_per_buffer = (rq.stats_wasted_strides
                                / rq.stats_buffers_closed)
            assert waste_per_buffer < max_strides
