"""Host DRAM: a sparse, page-backed PCIe-addressable memory.

Big enough for driver rings and DPDK-style buffer pools without
allocating gigabytes of real Python memory — a page materializes on a
write's first touch of it, and a read of an untouched page returns
zeros.  Includes a bump allocator for carving rings and pools out of
the region.
"""

from __future__ import annotations

from ..pcie.endpoint import PcieEndpoint, PcieError

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
_PAGE_MASK = PAGE_SIZE - 1


class _Pages(dict):
    """Page number -> page.  Subscripting a missing page creates it, so
    only writes subscript blindly; a read tests ``in`` first and leaves
    an untouched page absent."""

    __slots__ = ()

    def __missing__(self, page_no: int) -> bytearray:
        page = self[page_no] = bytearray(PAGE_SIZE)
        return page


class HostMemory(PcieEndpoint):
    """Sparse byte-addressable memory."""

    def __init__(self, name: str, size: int = 1 << 34):
        super().__init__(name)
        if size <= 0:
            raise PcieError("memory size must be positive")
        self.size = size
        self._pages = _Pages()
        self.stats_reads = 0
        self.stats_writes = 0

    def _refuse(self, address: int, length: int) -> None:
        raise PcieError(
            f"access [{address:#x}+{length}] outside {self.name}"
        )

    def handle_read(self, address: int, length: int) -> bytes:
        # Tested here: only a refused access pays a frame for it.
        if address < 0 or length < 0 or address + length > self.size:
            self._refuse(address, length)
        self.stats_reads += 1
        pages = self._pages
        offset = address & _PAGE_MASK
        if offset + length <= PAGE_SIZE:
            # Fast path: the access fits in one page (rings, MTU-sized
            # buffers) — a single slice, no chunking loop.
            page_no = address >> PAGE_SHIFT
            if page_no in pages:
                return bytes(pages[page_no][offset:offset + length])
            return bytes(length)
        out = bytearray(length)
        cursor = 0
        while cursor < length:
            page_no = (address + cursor) >> PAGE_SHIFT
            offset = (address + cursor) & _PAGE_MASK
            chunk = min(length - cursor, PAGE_SIZE - offset)
            if page_no in pages:
                out[cursor:cursor + chunk] = \
                    pages[page_no][offset:offset + chunk]
            cursor += chunk
        return bytes(out)

    def handle_write(self, address: int, data: bytes) -> None:
        length = len(data)
        if address < 0 or address + length > self.size:
            self._refuse(address, length)
        self.stats_writes += 1
        offset = address & _PAGE_MASK
        if length and offset + length <= PAGE_SIZE:
            self._pages[address >> PAGE_SHIFT][offset:offset + length] = data
            return
        # Straddling pages, or empty: an empty write touches no page.
        cursor = 0
        while cursor < length:
            offset = (address + cursor) & _PAGE_MASK
            chunk = min(length - cursor, PAGE_SIZE - offset)
            self._pages[(address + cursor) >> PAGE_SHIFT][
                offset:offset + chunk] = data[cursor:cursor + chunk]
            cursor += chunk

    # CPU-local access: same operation, but models no PCIe traffic.
    read_local = handle_read
    write_local = handle_write

    @property
    def resident_bytes(self) -> int:
        """Physical footprint actually allocated (for tests)."""
        return len(self._pages) * PAGE_SIZE


class BumpAllocator:
    """Carves aligned regions out of an address window.

    Freed regions go on a sorted, coalesced free list and are reused
    first-fit; while nothing is freed the allocator behaves exactly like
    the historical bump pointer (identical addresses, bit-identical runs).
    """

    def __init__(self, base: int, size: int):
        self.base = base
        self.size = size
        self._cursor = base
        self._free: list = []  # sorted (start, size) blocks

    def alloc(self, size: int, align: int = 64) -> int:
        if size <= 0:
            raise ValueError("allocation size must be positive")
        for i, (start, free) in enumerate(self._free):
            aligned = (start + align - 1) // align * align
            waste = aligned - start
            if free - waste >= size:
                # Return alignment slack and the tail to the free list.
                del self._free[i]
                if waste:
                    self._free.append((start, waste))
                tail = free - waste - size
                if tail:
                    self._free.append((aligned + size, tail))
                self._free.sort()
                return aligned
        start = (self._cursor + align - 1) // align * align
        if start + size > self.base + self.size:
            raise MemoryError(
                f"allocator exhausted: need {size} at {start:#x}, "
                f"window ends {self.base + self.size:#x}"
            )
        if start != self._cursor:
            # Keep the alignment gap on the free list so accounting is
            # exact.  A gap starts unaligned and is shorter than one
            # alignment unit, so it can never serve a future aligned
            # request — bump-path addresses stay identical.
            self._free.append((self._cursor, start - self._cursor))
            self._free.sort()
        self._cursor = start + size
        return start

    def free(self, addr: int, size: int) -> None:
        """Return [addr, addr+size) to the allocator.  A range outside
        ``[base, cursor)`` or overlapping a free block (a double free)
        raises ``ValueError`` and changes nothing."""
        if size <= 0:
            return
        end = addr + size
        if addr < self.base or end > self._cursor:
            raise ValueError(
                f"free of [{addr:#x}+{size}] outside the allocated window "
                f"[{self.base:#x}, {self._cursor:#x})")
        for start, block in self._free:
            if start < end and addr < start + block:
                raise ValueError(
                    f"free of [{addr:#x}+{size}] overlaps free block "
                    f"[{start:#x}+{block}]")
        self._free.append((addr, size))
        self._free.sort()
        merged: list = []
        for start, block in self._free:
            if merged and merged[-1][0] + merged[-1][1] == start:
                merged[-1] = (merged[-1][0], merged[-1][1] + block)
            else:
                merged.append((start, block))
        # Retract the cursor over a trailing free block.
        while merged and merged[-1][0] + merged[-1][1] == self._cursor:
            self._cursor = merged.pop()[0]
        self._free = merged

    @property
    def used(self) -> int:
        """Bytes live inside the window (excludes freed blocks)."""
        return (self._cursor - self.base
                - sum(size for _s, size in self._free))
