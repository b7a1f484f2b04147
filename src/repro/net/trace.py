"""Synthetic traffic traces.

The paper's §8.1.1 forwards mixed-size packets "taken from the IMC 2010
data-center trace" (Benson et al.).  The trace itself is proprietary-ish
raw pcap we do not ship, so :class:`ImcDatacenterSizes` reproduces the
published size *distribution* shape: a strong bimodal mixture of small
(<200 B) control/ACK packets and near-MTU data packets, with a thin middle.
That shape — not individual packets — is what drives the experiment's
packets-per-second result, so the substitution preserves the behaviour
under test.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

MIN_ETHERNET_FRAME = 64
DEFAULT_MTU_FRAME = 1500


class PacketSizeDistribution:
    """A discrete mixture over (low, high, weight) size buckets."""

    def __init__(self, buckets: Sequence[Tuple[int, int, float]],
                 seed: int = 0):
        if not buckets:
            raise ValueError("no buckets")
        total = sum(w for _lo, _hi, w in buckets)
        if total <= 0:
            raise ValueError("weights must sum positive")
        self.buckets = [(lo, hi, w / total) for lo, hi, w in buckets]
        for lo, hi, _w in self.buckets:
            if lo > hi or lo < MIN_ETHERNET_FRAME:
                raise ValueError(f"bad bucket [{lo}, {hi}]")
        self._rng = random.Random(seed)

    def sample(self) -> int:
        roll = self._rng.random()
        acc = 0.0
        for lo, hi, weight in self.buckets:
            acc += weight
            if roll <= acc:
                return self._rng.randint(lo, hi)
        lo, hi, _w = self.buckets[-1]
        return self._rng.randint(lo, hi)

    def sizes(self, count: int) -> List[int]:
        return [self.sample() for _ in range(count)]


class ImcDatacenterSizes(PacketSizeDistribution):
    """Bimodal datacenter packet sizes after Benson et al. (IMC 2010).

    The IMC study found most packets are either small (~40-200 B: TCP
    ACKs, control) or large (1400-1500 B: MSS-sized data), with the
    small mode dominating the packet count in cloud datacenters.  The
    weights below calibrate that shape so the mixture's mean frame size
    (~227 B) matches the packet rates §8.1.1 reports on this trace.
    """

    def __init__(self, seed: int = 0):
        super().__init__(
            buckets=[
                (64, 128, 0.78),    # ACKs and tiny control packets
                (129, 256, 0.08),
                (257, 576, 0.05),
                (577, 1200, 0.02),
                (1201, 1400, 0.02),
                (1401, 1500, 0.05),  # MSS-sized data packets
            ],
            seed=seed,
        )


class UniformSizes(PacketSizeDistribution):
    """Single fixed or uniform size, for fixed-size sweeps."""

    def __init__(self, size: int, seed: int = 0):
        super().__init__(buckets=[(size, size, 1.0)], seed=seed)
