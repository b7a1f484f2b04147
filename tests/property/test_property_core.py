"""Property-based tests (hypothesis) for the core data structures."""

from hypothesis import given, settings, strategies as st

from repro.core import (
    COMPRESSED_CQE,
    COMPRESSED_TX_DESC,
    AxisMetadata,
    BufferPool,
    CuckooFullError,
    CuckooHashTable,
    TxRingManager,
)
from repro.nic import TxWqe
from repro.nic.wqe import (
    CQE,
    CqeRecord,
    OP_ETH_SEND,
    OP_RDMA_SEND,
    WQE_FLAG_SIGNALED,
    WQE_SIZE,
)
from repro.sim import Simulator
from tests.cqe import cqe_bytes


class TestCuckooProperties:
    @given(st.lists(st.integers(0, 10_000), unique=True, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_everything_inserted_is_found(self, keys):
        table = CuckooHashTable(capacity=max(1, len(keys)), load_factor=0.5)
        for key in keys:
            table.insert(key, key * 2)
        for key in keys:
            assert table.lookup(key) == key * 2
        assert len(table) == len(keys)

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 50)),
                    max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_mixed_operations_match_dict(self, operations):
        """The cuckoo table behaves exactly like a dict under churn."""
        table = CuckooHashTable(capacity=64, load_factor=0.5)
        model = {}
        for is_insert, key in operations:
            if is_insert and key not in model:
                if len(model) < 64:
                    table.insert(key, key)
                    model[key] = key
            elif not is_insert and key in model:
                assert table.remove(key) == model.pop(key)
        for key, value in model.items():
            assert table.lookup(key) == value
        assert len(table) == len(model)

    @given(st.integers(1, 512))
    @settings(max_examples=30, deadline=None)
    def test_half_load_never_stalls(self, capacity):
        """The paper's provisioning guarantee (§5.2)."""
        table = CuckooHashTable(capacity=capacity, load_factor=0.5)
        for i in range(capacity):
            table.insert(("k", i), i)  # must not raise
        assert len(table) == capacity


class TestBufferPoolProperties:
    @given(st.lists(st.integers(1, 4096), max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_alloc_free_conserves_chunks(self, sizes):
        pool = BufferPool(64 * 1024, chunk_size=256)
        allocations = []
        for size in sizes:
            handles = pool.alloc(size)
            if handles is not None:
                allocations.append(handles)
        for handles in allocations:
            pool.release_all(handles)
        assert pool.free_chunks == pool.num_chunks

    @given(st.binary(min_size=1, max_size=4096))
    @settings(max_examples=50, deadline=None)
    def test_scattered_write_read_roundtrip(self, data):
        pool = BufferPool(8 * 1024, chunk_size=256)
        handles = pool.alloc(len(data))
        pool.write_scattered(handles, data)
        assert pool.read_scattered(handles, len(data)) == data

    @given(st.integers(0, 8 * 1024))
    @settings(max_examples=50, deadline=None)
    def test_chunks_for_covers_size(self, nbytes):
        """``alloc`` takes the fewest chunks that hold ``nbytes`` (one
        for an empty payload)."""
        pool = BufferPool(8 * 1024, chunk_size=256)
        chunks = len(pool.alloc(nbytes))
        assert chunks * 256 >= nbytes
        assert chunks == 1 or (chunks - 1) * 256 < nbytes


def fld_tx(opcode=OP_ETH_SEND):
    """A standalone FLD transmit ring manager with one queue, 0."""
    tx = TxRingManager(Simulator(), BufferPool(64 * 1024, 256),
                       bar_base=0x1000_0000)
    tx.add_queue(0, qpn=3, entries=16, doorbell_addr=0, mmio_addr=0,
                 opcode=opcode)
    return tx


class TestDescriptorFormatProperties:
    @given(length=st.integers(0, 0xFFFF), context=st.integers(0, 0xFFFFFF),
           opcode=st.sampled_from([OP_ETH_SEND, OP_RDMA_SEND]),
           signaled=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_compressed_descriptor_roundtrip(self, length, context, opcode,
                                             signaled):
        """Every descriptor FLD queues fits the 8 B layout of Table 2b:
        packed into it and read back, it is the descriptor queued."""
        tx = fld_tx(opcode)
        index = tx.submit(0, bytes(length), AxisMetadata(
            queue_id=0, context_id=context, signaled=signaled))
        handle, *queued = tx.descriptors.lookup(0, index)
        assert queued == [length, context, opcode, signaled]
        packed = COMPRESSED_TX_DESC.pack(
            handle, length, context.to_bytes(3, "big"),
            opcode | signaled << 2)
        again, size, wide, bits = COMPRESSED_TX_DESC.unpack(packed)
        assert (again, size, int.from_bytes(wide, "big"), bits & 3,
                bool(bits & 4)) == (handle, length, context, opcode,
                                    signaled)

    @given(opcode=st.integers(0, 255), qpn=st.integers(0, 0xFFFFFF),
           counter=st.integers(0, 0xFFFF), count=st.integers(0, 0xFFFF),
           flags=st.integers(0, 255), tag=st.integers(0, 0xFFFFFFFF),
           stride=st.integers(0, 0xFFFF))
    @settings(max_examples=100, deadline=None)
    def test_compressed_cqe_roundtrip(self, opcode, qpn, counter, count,
                                      flags, tag, stride):
        """What FLD reads off the NIC's 64 B CQE fits the 15 B layout of
        Table 2b and reads back unchanged."""
        cqe = CqeRecord(CQE.unpack_from(cqe_bytes(
            opcode, qpn, counter, count, flags=flags, flow_tag=tag,
            stride_index=stride)) + (None, None))
        packed = COMPRESSED_CQE.pack(
            cqe.opcode, cqe.flags, cqe.wqe_counter, cqe.qpn.to_bytes(3, "big"),
            cqe.byte_count, cqe.flow_tag, cqe.stride_index)
        assert len(packed) == 15
        (again_opcode, again_flags, again_counter, wide, again_count,
         again_tag, again_stride) = COMPRESSED_CQE.unpack(packed)
        assert (again_opcode, again_flags, again_counter,
                int.from_bytes(wide, "big"), again_count, again_tag,
                again_stride) == (opcode, flags, counter, qpn, count, tag,
                                  stride)

    @given(qpn=st.integers(0, 0xFFFFFF), counter=st.integers(0, 0xFFFF),
           addr=st.integers(0, (1 << 64) - 1),
           count=st.integers(0, 0xFFFFFFFF), flags=st.integers(0, 255),
           context=st.integers(0, 0xFFFFFFFF))
    @settings(max_examples=100, deadline=None)
    def test_nic_wqe_roundtrip(self, qpn, counter, addr, count, flags,
                               context):
        wqe = TxWqe(OP_ETH_SEND, qpn, counter, addr, count, flags,
                    context_id=context)
        again = TxWqe.unpack(wqe.pack())
        assert (again.qpn, again.wqe_index, again.buffer_addr,
                again.byte_count, again.flags, again.context_id) == (
            qpn, counter & 0xFFFF, addr, count, flags, context)

    def test_compression_expansion_inverse(self):
        """The 64 B WQE FLD expands from a queued descriptor carries every
        field the descriptor holds."""
        tx = fld_tx(OP_RDMA_SEND)
        index = tx.submit(0, bytes(1200), AxisMetadata(
            queue_id=0, context_id=0x1234, signaled=True))
        _handle, length, context, opcode, signaled = \
            tx.descriptors.lookup(0, index)
        wqe = TxWqe.unpack(tx.handle_ring_read(0, 0, WQE_SIZE))
        assert (wqe.opcode, wqe.byte_count, wqe.context_id,
                bool(wqe.flags & WQE_FLAG_SIGNALED)) == (
            opcode, length, context, signaled) == (
            OP_RDMA_SEND, 1200, 0x1234, True)
        assert (wqe.qpn, wqe.wqe_index) == (3, index)
