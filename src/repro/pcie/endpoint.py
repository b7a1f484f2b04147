"""PCIe endpoints and address windows.

An endpoint is anything with a presence in the fabric's address space:
host memory, the NIC's doorbell/UAR pages, or FLD's BAR.  Endpoints
implement ``handle_read``/``handle_write``; the fabric routes TLPs to them
by address.
"""

from __future__ import annotations

from typing import Optional


class PcieError(RuntimeError):
    """Raised on bad fabric addressing or endpoint misuse."""


class PcieEndpoint:
    """Base class: a named device function reachable over the fabric."""

    def __init__(self, name: str):
        self.name = name
        self.fabric = None  # set by PcieFabric.attach
        self._port = None   # the fabric port, cached by attach
        # Profiler owner tag: heap events whose callable is bound to
        # this endpoint are attributed here.  Subclasses refine it
        # (e.g. the FLD tags its tx and rx engines separately).
        self.profile_tag = name

    def handle_read(self, address: int, length: int) -> bytes:
        raise PcieError(f"{self.name} does not implement reads")

    def handle_write(self, address: int, data: bytes) -> None:
        raise PcieError(f"{self.name} does not implement writes")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class Bar:
    """An address window [base, base+size) owned by an endpoint.

    Addresses handed to the endpoint are *BAR-relative* offsets, like a
    real device decoding its BAR hit.
    """

    __slots__ = ("base", "size", "endpoint")

    def __init__(self, base: int, size: int, endpoint: PcieEndpoint):
        if size <= 0:
            raise PcieError("BAR size must be positive")
        self.base = base
        self.size = size
        self.endpoint = endpoint

    def overlaps(self, other: "Bar") -> bool:
        return self.base < other.base + other.size and other.base < self.base + self.size

    def __repr__(self) -> str:
        return (
            f"Bar({self.base:#x}..{self.base + self.size:#x} -> "
            f"{self.endpoint.name})"
        )


class MemoryRegion(PcieEndpoint):
    """Byte-addressable memory (host DRAM or a device-exposed buffer)."""

    def __init__(self, name: str, size: int):
        super().__init__(name)
        if size <= 0:
            raise PcieError("memory size must be positive")
        self.size = size
        self._data = bytearray(size)
        self.stats_reads = 0
        self.stats_writes = 0

    def handle_read(self, address: int, length: int) -> bytes:
        if address < 0 or address + length > self.size:
            raise PcieError(
                f"read [{address:#x}+{length}] outside {self.name} "
                f"(size {self.size:#x})"
            )
        self.stats_reads += 1
        return bytes(self._data[address:address + length])

    def handle_write(self, address: int, data: bytes) -> None:
        if address < 0 or address + len(data) > self.size:
            raise PcieError(
                f"write [{address:#x}+{len(data)}] outside {self.name}"
            )
        self.stats_writes += 1
        self._data[address:address + len(data)] = data

    # Local (non-PCIe) access for the CPU touching its own DRAM.
    read_local = handle_read

    def write_local(self, address: int, data: bytes) -> None:
        self.handle_write(address, data)


class MmioRegion(PcieEndpoint):
    """A write-side MMIO window dispatching to a callback (doorbells)."""

    def __init__(self, name: str, on_write, on_read=None):
        super().__init__(name)
        self._on_write = on_write
        self._on_read = on_read

    def handle_write(self, address: int, data: bytes) -> None:
        self._on_write(address, data)

    def handle_read(self, address: int, length: int) -> bytes:
        if self._on_read is None:
            raise PcieError(f"{self.name} is write-only MMIO")
        return self._on_read(address, length)
