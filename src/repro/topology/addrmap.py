"""The per-node physical address map: one allocator, no magic numbers.

Every device window a node exposes — host DRAM, the NIC BAR, each FLD
instance's BAR, auxiliary accelerator BARs — used to be a constant
scattered across ``testbed.py`` / ``sw/runtime.py`` / experiment
modules.  They now live here, and each :class:`repro.topology.Node`
carries an :class:`AddressMap` that *checks* every window it maps:
overlapping windows raise at build time instead of silently aliasing
reads in the PCIe fabric.

The constants keep their historical values so that address-derived
behaviour (and therefore simulated results) is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

#: Host DRAM window (the software driver's allocator arena).
HOST_MEM_BASE = 0x0
HOST_MEM_SIZE = 1 << 34
#: The NIC's register/doorbell BAR.
NIC_BAR_BASE = 0x10_0000_0000
#: First FLD instance's BAR; additional instances stack above it at
#: ``FLD_BAR_BASE + index * FLD_BAR_SIZE`` (§9 scaling).
FLD_BAR_BASE = 0x18_0000_0000
#: Staging BAR of the CPU-mediated "dumb" accelerator (§3, Fig. 2a).
ACCEL_BAR_BASE = 0x20_0000_0000

# -- NIC BAR internal layout -------------------------------------------------
#
# One register file for every NIC consumer (``nic/device.py`` decodes
# writes against these, ``sw/runtime.py`` and ``host/driver.py`` compute
# doorbell/MMIO addresses from them).  Regions, low to high:
#
#   [0x00_0000, 0x08_0000) per-SQ doorbells, one 64 B stride per qpn
#                          (qpn 0 is never allocated)
#   [0x08_0000, 0x10_0000) per-RQ doorbells
#   [0x10_0000, 0x20_0000) MMIO WQE slots, 256 B per qpn

#: Bytes between consecutive SQ doorbell registers.
DOORBELL_STRIDE = 64
#: Start of the receive-queue doorbell region.
RQ_DOORBELL_BASE = 0x8_0000
#: Start of the MMIO WQE region (one slot per send queue).
WQE_MMIO_BASE = 0x10_0000
#: Bytes between consecutive MMIO WQE slots.
WQE_MMIO_STRIDE = 256
#: Total NIC BAR size.
BAR_SIZE = 0x20_0000



class AddressMapError(ValueError):
    """Raised when a window would overlap an existing one."""


@dataclass(frozen=True)
class Window:
    """One mapped device window."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def overlaps(self, other: "Window") -> bool:
        return self.base < other.end and other.base < self.end


class AddressMap:
    """Allocates and validates non-overlapping windows for one node."""

    def __init__(self, name: str = ""):
        self.name = name
        self._windows: Dict[str, Window] = {}

    def reserve(self, name: str, base: int, size: int) -> Window:
        """Claim ``[base, base+size)`` for ``name``; reject overlaps."""
        if size <= 0:
            raise AddressMapError(
                f"{self.name}: window {name!r} has non-positive size "
                f"{size}")
        window = Window(name, base, size)
        if name in self._windows:
            raise AddressMapError(
                f"{self.name}: window {name!r} already mapped at "
                f"{self._windows[name].base:#x}")
        for other in self._windows.values():
            if window.overlaps(other):
                raise AddressMapError(
                    f"{self.name}: window {name!r} "
                    f"[{window.base:#x}, {window.end:#x}) overlaps "
                    f"{other.name!r} [{other.base:#x}, {other.end:#x})")
        self._windows[name] = window
        return window

    def release(self, name: str) -> Window:
        """Unmap ``name``; its range becomes reservable again."""
        if name not in self._windows:
            raise AddressMapError(
                f"{self.name}: cannot release unmapped window {name!r}")
        return self._windows.pop(name)

    def fld_bar(self, index: int) -> int:
        """BAR base of the ``index``-th FLD instance on this node."""
        if index < 0:
            raise AddressMapError(f"negative FLD index {index}")
        from ..core import bar as fld_bar
        return FLD_BAR_BASE + index * fld_bar.FLD_BAR_SIZE

    def windows(self) -> List[Window]:
        return sorted(self._windows.values(), key=lambda w: w.base)

    def lookup(self, name: str) -> Window:
        return self._windows[name]

    def __contains__(self, name: str) -> bool:
        return name in self._windows
