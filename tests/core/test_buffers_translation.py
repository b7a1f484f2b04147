"""Unit tests for buffer pools, descriptor pool and data translation."""

import pytest

from repro.core import (
    BufferPool,
    BufferPoolError,
    CompressedTxDescriptor,
    CuckooFullError,
    DataTranslationTable,
    DescriptorPool,
    TranslationError,
)


class TestBufferPool:
    def test_alloc_and_release(self):
        pool = BufferPool(4096, chunk_size=256)
        handles = pool.alloc(1000)
        assert len(handles) == 4  # ceil(1000/256)
        assert pool.free_chunks == 12
        pool.release_all(handles)
        assert pool.free_chunks == 16

    def test_exhaustion_returns_none(self):
        pool = BufferPool(1024, chunk_size=256)
        assert pool.alloc(1024) is not None
        assert pool.alloc(1) is None
        assert pool.stats_alloc_failures == 1

    def test_refcounting(self):
        pool = BufferPool(1024, chunk_size=256)
        (handle,) = pool.alloc(100)
        pool.add_ref(handle)
        pool.release(handle)
        assert pool.free_chunks == 3  # still held by second ref
        pool.release(handle)
        assert pool.free_chunks == 4

    def test_double_free_raises(self):
        pool = BufferPool(1024, chunk_size=256)
        (handle,) = pool.alloc(10)
        pool.release(handle)
        with pytest.raises(BufferPoolError):
            pool.release(handle)

    def test_scattered_roundtrip(self):
        pool = BufferPool(4096, chunk_size=256)
        data = bytes(range(256)) * 3  # 768 B across 3 chunks
        handles = pool.alloc(len(data))
        pool.write_scattered(handles, data)
        assert pool.read_scattered(handles, len(data)) == data

    def test_chunk_boundary_enforced(self):
        pool = BufferPool(1024, chunk_size=256)
        with pytest.raises(BufferPoolError):
            pool.write(0, 250, b"x" * 10)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BufferPool(1000, chunk_size=256)  # not a multiple

    def test_min_free_watermark(self):
        pool = BufferPool(2048, chunk_size=256)
        handles = pool.alloc(2048)
        assert pool.stats_min_free == 0
        pool.release_all(handles)
        assert pool.stats_min_free == 0  # watermark is sticky


class TestDescriptorPool:
    def _descriptor(self, length=100):
        return CompressedTxDescriptor(handle=1, length=length)

    def test_store_lookup_remove(self):
        pool = DescriptorPool(64)
        slot = pool.store(queue=3, wqe_index=7, descriptor=self._descriptor())
        assert slot is not None
        assert pool.lookup(3, 7).length == 100
        pool.remove(3, 7)
        with pytest.raises(TranslationError):
            pool.lookup(3, 7)

    def test_slots_shared_across_queues(self):
        pool = DescriptorPool(8)
        for queue in range(4):
            for index in range(2):
                assert pool.store(queue, index, self._descriptor()) is not None
        assert pool.free_slots == 0
        assert pool.store(9, 0, self._descriptor()) is None
        assert pool.stats_failures == 1

    def test_free_slots_are_reused_first_in_first_out(self):
        pool = DescriptorPool(4)
        assert [pool.store(0, i, self._descriptor()) for i in range(3)] \
            == [0, 1, 2]
        pool.remove(0, 1)
        pool.remove(0, 0)
        # Slot 3 was never used; the released ones queue behind it in
        # release order.
        assert [pool.store(1, i, self._descriptor()) for i in range(3)] \
            == [3, 1, 0]

    def test_stalled_store_keeps_its_slot_at_the_head(self):
        pool = DescriptorPool(4)
        pool.store(0, 0, self._descriptor())
        insert = pool._xlt.insert

        def stall(key, value):
            raise CuckooFullError("stash full; insertion stalled")

        pool._xlt.insert = stall
        assert pool.store(0, 1, self._descriptor()) is None
        assert pool.free_slots == 3
        pool._xlt.insert = insert
        assert pool.store(0, 1, self._descriptor()) == 1

    def test_slot_recycled_after_remove(self):
        pool = DescriptorPool(1)
        pool.store(0, 0, self._descriptor())
        pool.remove(0, 0)
        assert pool.store(0, 1, self._descriptor()) is not None

    def test_memory_accounts_pool_plus_table(self):
        pool = DescriptorPool(4096)
        # 4096 slots x 8 B + translation table (~4 B x 2x-provisioned).
        assert pool.memory_bytes >= 4096 * 8
        assert pool.memory_bytes <= 4096 * 8 + 40 * 1024


class TestDataTranslation:
    def _setup(self):
        pool = BufferPool(64 * 1024, chunk_size=256)
        xlt = DataTranslationTable(pool, window_bytes=16 * 1024)
        return pool, xlt

    def test_map_translates(self):
        pool, xlt = self._setup()
        data = bytes(range(256)) * 2 + bytes(188)
        handles = pool.alloc(len(data))
        pool.write_scattered(handles, data)
        xlt.map_range(queue=0, virt_offset=0, handles=handles)
        # Window byte 300 is byte 44 of the second chunk.
        assert xlt.read_virtual(0, 300, 10) == bytes(range(44, 54))
        assert xlt.read_virtual(0, 300, 10) == pool.read(handles[1], 44, 10)

    def test_read_virtual_gathers_chunks(self):
        pool, xlt = self._setup()
        data = bytes(range(256)) * 4
        handles = pool.alloc(len(data))
        pool.write_scattered(handles, data)
        xlt.map_range(0, 512, handles)
        assert xlt.read_virtual(0, 512, len(data)) == data

    def test_unmapped_read_raises(self):
        _pool, xlt = self._setup()
        with pytest.raises(TranslationError):
            xlt.read_virtual(0, 0, 1)

    def test_read_into_an_unmapped_chunk_raises(self):
        pool, xlt = self._setup()
        xlt.map_range(0, 0, pool.alloc(256))
        with pytest.raises(TranslationError):
            xlt.read_virtual(0, 200, 100)

    def test_per_queue_isolation(self):
        pool, xlt = self._setup()
        a = pool.alloc(100)
        b = pool.alloc(100)
        pool.write_scattered(a, b"a" * 100)
        pool.write_scattered(b, b"b" * 100)
        xlt.map_range(0, 0, a)
        xlt.map_range(1, 0, b)
        assert xlt.read_virtual(0, 0, 100) == b"a" * 100
        assert xlt.read_virtual(1, 0, 100) == b"b" * 100

    def test_window_wraparound(self):
        pool, xlt = self._setup()
        data = bytes(range(256)) + bytes(range(255, -1, -1))
        handles = pool.alloc(len(data))
        pool.write_scattered(handles, data)
        # Map at the last chunk of the window: wraps to chunk 0.
        last_chunk_offset = 16 * 1024 - 256
        xlt.map_range(0, last_chunk_offset, handles)
        assert xlt.read_virtual(0, last_chunk_offset, 512) == data
        assert xlt.read_virtual(0, 0, 256) == data[256:]
        # A virtual address past the window end aliases its start.
        assert xlt.read_virtual(0, 16 * 1024, 256) == data[256:]

    def test_unmap_returns_handles(self):
        pool, xlt = self._setup()
        handles = pool.alloc(700)
        xlt.map_range(0, 1024, handles)
        returned = xlt.unmap_range(0, 1024, len(handles))
        assert returned == handles

    def test_unaligned_map_rejected(self):
        pool, xlt = self._setup()
        handles = pool.alloc(100)
        with pytest.raises(TranslationError):
            xlt.map_range(0, 100, handles)
