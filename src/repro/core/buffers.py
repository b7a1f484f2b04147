"""On-chip buffer pools (§5.1).

FLD's Tx and Rx data buffers are small on-die SRAMs divided into
fixed-size *chunks*.  The ring managers allocate chunks per packet (a
packet may span several) and recycle them when the NIC's completion or
the accelerator's consumption releases them.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class BufferPoolError(RuntimeError):
    """Raised on pool exhaustion misuse (double free, bad handle)."""


class BufferPool:
    """A chunked on-die memory pool.

    ``capacity_bytes`` total SRAM, carved into ``chunk_size`` chunks.
    Chunks are identified by integer handles (their index).
    """

    def __init__(self, capacity_bytes: int, chunk_size: int = 256,
                 name: str = ""):
        if capacity_bytes <= 0 or chunk_size <= 0:
            raise ValueError("capacity and chunk size must be positive")
        if capacity_bytes % chunk_size:
            raise ValueError("capacity must be a multiple of the chunk size")
        self.name = name
        self.chunk_size = chunk_size
        self.num_chunks = capacity_bytes // chunk_size
        self._data = bytearray(capacity_bytes)
        self._free: List[int] = list(range(self.num_chunks))
        self._live: Dict[int, bool] = {}     # allocated chunks
        self.stats_alloc_failures = 0
        self.stats_min_free = self.num_chunks

    @property
    def capacity_bytes(self) -> int:
        return self.num_chunks * self.chunk_size

    @property
    def free_chunks(self) -> int:
        return len(self._free)

    # -- allocation ---------------------------------------------------------

    def alloc(self, nbytes: int, chunks: int = 0) -> Optional[List[int]]:
        """Allocate chunks covering ``nbytes`` (``chunks`` of them, when
        the caller has counted); ``None`` when exhausted."""
        needed = chunks or -(-nbytes // self.chunk_size) or 1
        free = self._free
        left = len(free) - needed
        if left < 0:
            self.stats_alloc_failures += 1
            return None
        handles = free[:needed]
        del free[:needed]
        live = self._live
        for handle in handles:
            live[handle] = True
        if left < self.stats_min_free:
            self.stats_min_free = left
        return handles

    def release_all(self, handles: List[int]) -> None:
        """Return each handle's chunk to the pool."""
        live = self._live
        free = self._free
        for handle in handles:
            try:
                del live[handle]
            except KeyError:
                raise BufferPoolError(
                    f"release of free chunk {handle}") from None
            free.append(handle)

    # -- data access ----------------------------------------------------------

    def read(self, handle: int, offset: int, length: int) -> bytes:
        if offset + length > self.chunk_size:
            raise BufferPoolError("read crosses chunk boundary")
        if not 0 <= handle < self.num_chunks:
            raise BufferPoolError(f"bad chunk handle {handle}")
        base = handle * self.chunk_size + offset
        return bytes(self._data[base:base + length])

    def write_scattered(self, handles: List[int], data: bytes,
                        length: Optional[int] = None) -> None:
        """Spread ``data`` (``length`` bytes, when the caller has
        measured it) across an allocated chunk list."""
        size = self.chunk_size
        sram = self._data
        remaining = len(data) if length is None else length
        cursor = 0
        for handle in handles:
            if remaining <= 0:
                break
            if not 0 <= handle < self.num_chunks:
                raise BufferPoolError(f"bad chunk handle {handle}")
            take = size if remaining > size else remaining
            base = handle * size
            sram[base:base + take] = data[cursor:cursor + take]
            cursor += take
            remaining -= take

    def read_scattered(self, handles: List[int], length: int) -> bytes:
        out = bytearray()
        remaining = length
        for handle in handles:
            take = min(remaining, self.chunk_size)
            out.extend(self.read(handle, 0, take))
            remaining -= take
            if remaining <= 0:
                break
        return bytes(out)
