"""PCIe link configurations and effective data rates.

Rates follow the spec: Gen 3 runs 8 GT/s per lane with 128b/130b encoding,
Gen 4 doubles it, Gen 5 doubles again.  ``effective_data_bps`` further
derates the raw rate for DLLP traffic (flow-control updates, ACK/NAK),
which the paper's model treats as a fixed efficiency factor.
"""

from __future__ import annotations

from dataclasses import dataclass

# Raw per-lane rates after line coding, in bits/second.
_LANE_RATE_BPS = {
    3: 8e9 * (128 / 130),
    4: 16e9 * (128 / 130),
    5: 32e9 * (128 / 130),
}

# Fraction of raw bandwidth left after DLLP overhead (ACK/NAK + FC).
DLLP_EFFICIENCY = 0.95


@dataclass(frozen=True)
class PcieLinkConfig:
    """A link's generation, width and transaction parameters."""

    generation: int = 3
    lanes: int = 8
    max_payload_size: int = 256      # MPS for writes
    read_completion_boundary: int = 256  # RCB for read completions
    max_read_request: int = 512
    latency: float = 500e-9          # one-way TLP latency through the fabric

    def __post_init__(self):
        if self.generation not in _LANE_RATE_BPS:
            raise ValueError(f"unsupported PCIe generation {self.generation}")
        if self.lanes not in (1, 2, 4, 8, 16):
            raise ValueError(f"invalid lane count {self.lanes}")
        for field in ("max_payload_size", "read_completion_boundary",
                      "max_read_request"):
            if not getattr(self, field) > 0:
                raise ValueError(f"{field} must be positive")
        if not self.latency >= 0:
            raise ValueError("latency must be non-negative")

    @property
    def raw_bps(self) -> float:
        """Raw encoded bandwidth of the link, one direction."""
        return _LANE_RATE_BPS[self.generation] * self.lanes

    @property
    def effective_data_bps(self) -> float:
        """Usable TLP bandwidth after DLLP overhead, one direction."""
        return self.raw_bps * DLLP_EFFICIENCY


#: The Innova-2 configuration: NIC<->FPGA over PCIe Gen 3 x8.  The paper
#: quotes the usable rate as "50 Gbps" (§6), i.e. the practical ceiling
#: of a Gen3 x8 link once TLP and DLLP overheads for realistic traffic
#: are paid; our config reproduces the raw 62.9 Gbps link from which that
#: ceiling emerges.
INNOVA2_LINK = PcieLinkConfig(generation=3, lanes=8)

#: A future 400 Gbps-era link (Gen 5 x16), used in scalability analysis.
GEN5_X16_LINK = PcieLinkConfig(generation=5, lanes=16)
