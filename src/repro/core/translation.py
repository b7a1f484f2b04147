"""Address translation: virtual rings/windows onto shared physical pools.

Two layers, both from §5.2:

* :class:`DescriptorPool` — the NIC sees a full-size descriptor ring per
  queue (``Nq x f(N_desc)`` WQEs of virtual address space), but FLD keeps
  a single shared pool of ``N_txdesc`` compressed descriptors; a cuckoo
  table maps (queue, wqe-index) to the pool slot.  This is the 2080x
  reduction of Table 3's Tx-rings row.

* :class:`DataTranslationTable` — each queue advertises a virtual data
  window; a second cuckoo table maps (queue, chunk-of-window) to on-chip
  buffer chunks so queues share one small buffer pool at fine granularity
  with bounded fragmentation (the 28.2x reduction of the Tx-buffer row).
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from .buffers import BufferPool
from .cuckoo import CuckooFullError, CuckooHashTable
from .descriptors import COMPRESSED_TX_DESC_SIZE

# Translation entry sizes (key + value + valid bits, rounded to bytes),
# chosen to land at the paper's reported table overheads (~15.5 KiB for
# descriptors, ~33 KiB for data at the Table 3 configuration).
DESC_XLT_ENTRY_SIZE = 4
DATA_XLT_ENTRY_SIZE = 8


class TranslationError(RuntimeError):
    """Raised on unmapped lookups and double mappings."""


class DescriptorPool:
    """Shared pool of compressed Tx descriptor tuples behind virtual rings."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._slots: List[Optional[tuple]] = [None] * capacity
        # Free slots, reused first-in first-out.
        self._free = deque(range(capacity))
        self._xlt = CuckooHashTable(capacity, load_factor=0.5,
                                    entry_size=DESC_XLT_ENTRY_SIZE)
        self.stats_stored = 0
        self.stats_failures = 0

    @property
    def free_slots(self) -> int:
        return len(self._free)

    def store(self, queue: int, wqe_index: int,
              descriptor: tuple) -> Optional[int]:
        """Place a descriptor for (queue, index); ``None`` when full."""
        if not self._free:
            self.stats_failures += 1
            return None
        slot = self._free.popleft()
        try:
            self._xlt.insert((queue, wqe_index), slot)
        except CuckooFullError:
            self._free.appendleft(slot)
            self.stats_failures += 1
            return None
        self._slots[slot] = descriptor
        self.stats_stored += 1
        return slot

    def lookup(self, queue: int, wqe_index: int) -> tuple:
        slot = self._xlt.lookup((queue, wqe_index))
        if slot is None:
            raise TranslationError(
                f"no descriptor mapped for queue {queue} index {wqe_index}"
            )
        return self._slots[slot]

    def lookup_many(self, queue: int,
                    wqe_indices) -> List[tuple]:
        """:meth:`lookup` for each of a ring read's indices."""
        slots = self._xlt.lookup_many(
            [(queue, index) for index in wqe_indices])
        out = []
        for index, slot in zip(wqe_indices, slots):
            if slot is None:
                raise TranslationError(
                    f"no descriptor mapped for queue {queue} index {index}"
                )
            out.append(self._slots[slot])
        return out

    def remove(self, queue: int, wqe_index: int) -> tuple:
        slot = self._xlt.remove((queue, wqe_index))
        descriptor = self._slots[slot]
        self._slots[slot] = None
        self._free.append(slot)
        return descriptor

    def cuckoo_stats(self) -> dict:
        """Translation-table counters (telemetry probe)."""
        stats = self._xlt.stats_dict()
        stats["stored"] = self.stats_stored
        stats["failures"] = self.stats_failures
        return stats

    @property
    def memory_bytes(self) -> int:
        """Pool SRAM + translation table SRAM."""
        return (self.capacity * COMPRESSED_TX_DESC_SIZE
                + self._xlt.memory_bytes)


class DataTranslationTable:
    """Maps per-queue virtual window chunks onto buffer-pool chunks."""

    def __init__(self, pool: BufferPool, window_bytes: int,
                 max_mappings: Optional[int] = None):
        if window_bytes % pool.chunk_size:
            raise ValueError("window must be a multiple of the chunk size")
        self.pool = pool
        self.window_bytes = window_bytes
        self.chunks_per_window = window_bytes // pool.chunk_size
        capacity = max_mappings or pool.num_chunks
        self._xlt = CuckooHashTable(capacity, load_factor=0.5,
                                    entry_size=DATA_XLT_ENTRY_SIZE)
        self.stats_mappings = 0
        self.stats_failures = 0

    def map_range(self, queue: int, virt_offset: int,
                  handles: List[int]) -> None:
        """Bind ``handles`` to the window chunks starting at virt_offset."""
        if virt_offset % self.pool.chunk_size:
            raise TranslationError("virtual offset must be chunk-aligned")
        start = virt_offset // self.pool.chunk_size
        chunks = self.chunks_per_window
        mapped = 0
        try:
            for handle in handles:
                self._xlt.insert((queue, (start + mapped) % chunks), handle)
                mapped += 1
        except (CuckooFullError, KeyError):
            for i in range(mapped):
                self._xlt.remove((queue, (start + i) % chunks))
            self.stats_failures += 1
            raise
        self.stats_mappings += mapped

    def unmap_range(self, queue: int, virt_offset: int, count: int) -> List[int]:
        """Remove ``count`` chunk mappings, returning the handles."""
        start = virt_offset // self.pool.chunk_size
        chunks = self.chunks_per_window
        return [self._xlt.remove((queue, (start + i) % chunks))
                for i in range(count)]

    def cuckoo_stats(self) -> dict:
        """Translation-table counters (telemetry probe)."""
        stats = self._xlt.stats_dict()
        stats["mappings"] = self.stats_mappings
        stats["failures"] = self.stats_failures
        return stats

    def read_virtual(self, queue: int, virt_offset: int, length: int) -> bytes:
        """Gather a read that may span several translated chunks: one
        translation (a cuckoo lookup) per chunk touched, the window
        wrapping at its end."""
        pool = self.pool
        size = pool.chunk_size
        sram = pool._data
        lookup = self._xlt.lookup
        window_offset = virt_offset % self.window_bytes
        chunk = window_offset // size
        inner = window_offset % size
        out = b""
        while length > 0:
            handle = lookup((queue, chunk))
            if handle is None:
                raise TranslationError(f"queue {queue} virt "
                                       f"{chunk * size + inner:#x} not mapped")
            base = handle * size + inner
            take = size - inner
            if take > length:
                take = length
            out += sram[base:base + take]
            length -= take
            inner = 0
            chunk += 1
            if chunk == self.chunks_per_window:
                chunk = 0
        return out

    @property
    def memory_bytes(self) -> int:
        return self._xlt.memory_bytes
