"""Transaction-level PCIe fabric model."""

from .config import GEN5_X16_LINK, INNOVA2_LINK, PcieLinkConfig
from .endpoint import Bar, MemoryRegion, MmioRegion, PcieEndpoint, PcieError
from .fabric import POSTED, PcieFabric
from .tlp import (
    COMPLETION_HEADER,
    DLLP_FRAMING,
    MEM_REQUEST_HEADER,
    read_wire_bytes,
    write_wire_bytes,
)

__all__ = [
    "Bar",
    "COMPLETION_HEADER",
    "DLLP_FRAMING",
    "GEN5_X16_LINK",
    "INNOVA2_LINK",
    "MEM_REQUEST_HEADER",
    "MemoryRegion",
    "MmioRegion",
    "POSTED",
    "PcieEndpoint",
    "PcieError",
    "PcieFabric",
    "PcieLinkConfig",
    "read_wire_bytes",
    "write_wire_bytes",
]
