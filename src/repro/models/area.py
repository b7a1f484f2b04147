"""FPGA resource accounting (Tables 1 and 5, and the §7 NICA comparison).

Synthesis results cannot be produced in Python, so this module records
the paper's published utilization numbers as structured data and derives
the comparisons the paper makes from them: FLD's area versus prior
architectures per feature set (Table 1), the per-module breakdown
(Table 5), and the NICA-vs-(FLD + IoT offload) deltas quoted in §7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class Utilization:
    """One design's FPGA resource usage."""

    lut: int
    ff: int
    bram: int
    uram: int = 0

    def plus(self, other: "Utilization") -> "Utilization":
        return Utilization(self.lut + other.lut, self.ff + other.ff,
                           self.bram + other.bram, self.uram + other.uram)


@dataclass(frozen=True)
class Architecture:
    """A row of Table 1."""

    category: str
    solution: str
    gbps: List[int]
    utilization: Utilization
    stateless_offloads: bool
    tunneling: str        # "yes" / "no" / "host-nic-only"
    hardware_transport: str  # "yes" / "no" / "host-nic-only" / "n/a"


#: Table 1, as published (utilization at the highest listed rate).
TABLE1: List[Architecture] = [
    Architecture("CPU-mediated", "VN2F", [10],
                 Utilization(5_700, 1_100, 233),
                 True, "host-nic-only", "n/a"),
    Architecture("Accelerator-hosted", "Corundum", [25, 100],
                 Utilization(62_400, 76_800, 331, 20),
                 True, "no", "no"),
    Architecture("Accelerator-hosted", "StRoM", [10, 100],
                 Utilization(122_000, 214_000, 402),
                 True, "no", "host-nic-only"),
    Architecture("BITW", "NICA", [40],
                 Utilization(232_000, 299_000, 584),
                 True, "host-nic-only", "host-nic-only"),
    Architecture("BITW", "Innova-1 shell", [40],
                 Utilization(169_000, 212_000, 152),
                 True, "host-nic-only", "host-nic-only"),
    Architecture("FlexDriver", "FLD", [100],
                 Utilization(62_000, 89_000, 79, 44),
                 True, "yes", "yes"),
]


#: Table 5: per-module utilization and hardware LOC of the prototype.
@dataclass(frozen=True)
class HardwareModule:
    name: str
    clock_mhz: int
    utilization: Utilization
    loc: Optional[int] = None


TABLE5: List[HardwareModule] = [
    HardwareModule("FLD", 250, Utilization(50_000, 66_000, 35, 44), 11_000),
    HardwareModule("PCIe core", 250, Utilization(12_000, 23_000, 44, 0)),
    HardwareModule("ZUC", 200, Utilization(38_000, 37_000, 242, 0), 6_000),
    HardwareModule("IP defrag.", 250, Utilization(17_000, 16_000, 984, 64),
                   2_000),
    HardwareModule("IoT auth.", 200, Utilization(118_000, 138_000, 293, 0),
                   8_000),
]


def module(name: str) -> HardwareModule:
    for entry in TABLE5:
        if entry.name == name:
            return entry
    raise KeyError(name)


def fld_total_utilization(include_pcie: bool = True) -> Utilization:
    """FLD + its PCIe core: the networking footprint Table 1 reports."""
    total = module("FLD").utilization
    if include_pcie:
        total = total.plus(module("PCIe core").utilization)
    return total


def nica_comparison() -> Dict[str, float]:
    """§7: NICA's area relative to FLD + the IoT auth offload.

    The paper quotes NICA needing ~36% more LUTs, ~40% more FFs and
    ~63% more BRAMs — because NICA reimplements flow steering and QoS
    that FLD borrows from the NIC — while running 5.7x slower.
    """
    nica = next(a for a in TABLE1 if a.solution == "NICA").utilization
    ours = (module("FLD").utilization
            .plus(module("PCIe core").utilization)
            .plus(module("IoT auth.").utilization))
    return {
        "lut_overhead": nica.lut / ours.lut - 1.0,
        "ff_overhead": nica.ff / ours.ff - 1.0,
        "bram_overhead": nica.bram / ours.bram - 1.0,
        "nica_slowdown": 5.7,  # measured in the NICA paper's workload
    }
