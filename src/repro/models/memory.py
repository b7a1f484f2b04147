"""The paper's NIC-driver memory model (§4.3, §5.2, Tables 2-3, Fig. 4).

Reimplements the analytical model the authors published alongside the
paper ([27], github.com/acsl-technion/flexdriver-model): given a line
rate, buffer lifetimes and a queue count, compute how much memory a
conventional software driver needs for NIC control structures versus
FLD's compressed/translated/shared organization.

With the default parameters the model reproduces the paper's numbers:
85.3 MiB software vs 832.7 KiB FLD — a 105x reduction (Table 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

KIB = 1024
MIB = 1024 * 1024

# NIC / FLD structure sizes (Table 2b).
S_TXDESC_SW = 64      # software transmit WQE
S_TXDESC_FLD = 8      # FLD compressed transmit descriptor
S_RXDESC = 16         # receive descriptor
S_CQE_SW = 64         # NIC completion entry
S_CQE_FLD = 15        # FLD compressed completion
S_PI = 4              # producer index

ETHERNET_OVERHEAD = 20  # preamble/IFG bytes the paper's R formula uses

# Translation-table entry sizes, in bits (calibrated to the paper's
# reported overheads: 15.5 KiB for the descriptor table, 33 KiB for the
# data table at the Table 3 configuration).
DESC_XLT_ENTRY_BITS = 31
DATA_XLT_ENTRY_BITS = 33
XLT_PROVISIONING = 2   # tables doubled for cuckoo load factor 1/2 (§5.2)
DATA_CHUNK = 256       # data translation granularity (bytes)


def round_pow2(n: int) -> int:
    """f(n) = 2^ceil(log2 n): ring allocations round up to powers of 2."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


@dataclass
class DriverParameters:
    """Table 2a: the workload a driver must be provisioned for."""

    bandwidth_bps: float = 100e9
    min_packet: int = 256
    max_packet: int = 16 * KIB
    rx_lifetime: float = 5e-6
    tx_lifetime: float = 25e-6
    num_tx_queues: int = 512

    @property
    def packet_rate(self) -> float:
        """R = B / (M_min + 20 B), the worst-case packet rate."""
        return self.bandwidth_bps / ((self.min_packet + ETHERNET_OVERHEAD) * 8)

    @property
    def n_txdesc(self) -> int:
        """Minimum in-flight transmit descriptors to cover the lifetime."""
        return math.ceil(self.packet_rate * self.tx_lifetime)

    @property
    def n_rxdesc(self) -> int:
        return math.ceil(self.packet_rate * self.rx_lifetime)

    @property
    def tx_bdp_bytes(self) -> int:
        """Bandwidth x delay product of the transmit path."""
        return int(self.bandwidth_bps * self.tx_lifetime / 8)

    @property
    def rx_bdp_bytes(self) -> int:
        return int(self.bandwidth_bps * self.rx_lifetime / 8)

    def table2a(self) -> Dict[str, float]:
        """The derived rows of Table 2a."""
        return {
            "packet_rate_mpps": self.packet_rate / 1e6,
            "n_txdesc": self.n_txdesc,
            "n_rxdesc": self.n_rxdesc,
            "tx_bdp_kib": self.tx_bdp_bytes / KIB,
            "rx_bdp_kib": self.rx_bdp_bytes / KIB,
        }


def table2a(**overrides) -> Dict[str, float]:
    """Module-level Table 2a entry point (sweep-addressable)."""
    return DriverParameters(**overrides).table2a()


def software_memory(p: DriverParameters) -> Dict[str, int]:
    """Table 3, 'Software' column: a conventional driver's footprint."""
    txq = p.num_tx_queues * round_pow2(p.n_txdesc) * S_TXDESC_SW
    txdata = p.max_packet * p.n_txdesc
    rxdata = p.max_packet * p.n_rxdesc
    cq = (round_pow2(p.n_txdesc) + round_pow2(p.n_rxdesc)) * S_CQE_SW
    srq = round_pow2(p.n_rxdesc) * S_RXDESC
    pi = (p.num_tx_queues + 1) * S_PI
    return {
        "tx_rings": txq,
        "tx_buffers": txdata,
        "rx_buffers": rxdata,
        "completion_queues": cq,
        "rx_ring": srq,
        "producer_indices": pi,
        "total": txq + txdata + rxdata + cq + srq + pi,
    }


def desc_translation_bytes(p: DriverParameters) -> int:
    """S_xltTx: the cuckoo table over the shared descriptor pool."""
    slots = XLT_PROVISIONING * round_pow2(p.n_txdesc)
    return slots * DESC_XLT_ENTRY_BITS // 8


def data_translation_bytes(p: DriverParameters) -> int:
    """S_xltData: the per-chunk data window translation table."""
    chunks = math.ceil(2 * p.tx_bdp_bytes / DATA_CHUNK)
    slots = XLT_PROVISIONING * round_pow2(chunks)
    return slots * DATA_XLT_ENTRY_BITS // 8


def fld_memory(p: DriverParameters) -> Dict[str, int]:
    """Table 3, 'FLD' column: the on-die footprint after §5.2."""
    txq = round_pow2(p.n_txdesc) * S_TXDESC_FLD + desc_translation_bytes(p)
    txdata = 2 * p.tx_bdp_bytes + data_translation_bytes(p)
    rxdata = 2 * p.rx_bdp_bytes
    cq = (round_pow2(p.n_txdesc) + round_pow2(p.n_rxdesc)) * S_CQE_FLD
    srq = 0  # the receive ring lives in host memory (§5.2)
    pi = (p.num_tx_queues + 1) * S_PI
    return {
        "tx_rings": txq,
        "tx_buffers": txdata,
        "rx_buffers": rxdata,
        "completion_queues": cq,
        "rx_ring": srq,
        "producer_indices": pi,
        "total": txq + txdata + rxdata + cq + srq + pi,
    }


def shrink_ratios(p: DriverParameters) -> Dict[str, float]:
    """Table 3's rightmost column: software / FLD per structure."""
    software = software_memory(p)
    fld = fld_memory(p)
    ratios = {}
    for key, value in software.items():
        if fld[key] > 0:
            ratios[key] = value / fld[key]
    return ratios


def table3(p: DriverParameters = None) -> Dict[str, Dict[str, float]]:
    """The full Table 3 as nested dicts (bytes and ratios)."""
    p = p or DriverParameters()
    return {
        "software": software_memory(p),
        "fld": fld_memory(p),
        "ratios": shrink_ratios(p),
    }


#: On-chip memory of the prototype FPGA (Fig. 4's XCKU15P line): the
#: Kintex UltraScale+ KU15P has 34.6 Mb BRAM + 36 Mb URAM plus
#: distributed RAM ~= 10.05 MiB usable (§4.3).
XCKU15P_ON_CHIP_BYTES = int(10.05 * MIB)


def figure4_bandwidth_sweep(bandwidths=(25e9, 50e9, 100e9, 200e9, 400e9),
                            num_tx_queues: int = 512):
    """Fig. 4 (left): memory vs line rate for both designs."""
    rows = []
    for bandwidth in bandwidths:
        p = DriverParameters(bandwidth_bps=bandwidth,
                             num_tx_queues=num_tx_queues)
        rows.append({
            "bandwidth_gbps": bandwidth / 1e9,
            "software_bytes": software_memory(p)["total"],
            "fld_bytes": fld_memory(p)["total"],
        })
    return rows


def figure4_queue_sweep(queue_counts=(64, 128, 256, 512, 1024, 2048),
                        bandwidth_bps: float = 100e9):
    """Fig. 4 (right): memory vs transmit queue count."""
    rows = []
    for queues in queue_counts:
        p = DriverParameters(bandwidth_bps=bandwidth_bps,
                             num_tx_queues=queues)
        rows.append({
            "num_tx_queues": queues,
            "software_bytes": software_memory(p)["total"],
            "fld_bytes": fld_memory(p)["total"],
        })
    return rows
