"""Host CPU cost model.

The paper's baselines run DPDK on host cores.  We model a core as a
per-packet processing cost plus rare OS interference spikes — the spikes
are what inflate the CPU's 99.9th-percentile echo latency to 11.18 µs in
Table 6 while FLD-E (no OS) stays at 4.34 µs.

Calibration: testpmd io-forwarding on one Haswell core moves ~9.6 Mpps
(§8.1.1) → ~104 ns/packet.  The software ZUC baseline's throughput
(Fig. 8a) comes from its cycles-per-byte cost.
"""

from __future__ import annotations

import random
from typing import Optional

from ..pcie.endpoint import PcieEndpoint
from ..sim import Simulator


class HostCpuPort(PcieEndpoint):
    """The CPU's initiator identity on the PCIe fabric (MMIO source)."""

    def handle_read(self, address, length):
        raise NotImplementedError("CPUs are not PCIe targets here")


class CpuCore:
    """One core's timing behaviour."""

    def __init__(self, sim: Simulator, frequency_hz: float = 2.3e9,
                 per_packet_cycles: int = 240,
                 os_jitter_probability: float = 5e-4,
                 os_jitter_scale: float = 12e-6,
                 seed: Optional[int] = 0):
        self.sim = sim
        self.frequency_hz = frequency_hz
        self.per_packet_cycles = per_packet_cycles
        self.os_jitter_probability = os_jitter_probability
        self.os_jitter_scale = os_jitter_scale
        self._rng = random.Random(seed)
        self.stats_packets = 0
        self.stats_jitter_events = 0

    @property
    def per_packet_seconds(self) -> float:
        return self.per_packet_cycles / self.frequency_hz

    def seconds_for_cycles(self, cycles: float) -> float:
        return cycles / self.frequency_hz

    def packet_cost(self) -> float:
        """Per-packet software time, occasionally hit by OS interference."""
        self.stats_packets += 1
        cost = self.per_packet_cycles / self.frequency_hz
        if self._rng.random() < self.os_jitter_probability:
            self.stats_jitter_events += 1
            cost += self._rng.expovariate(1.0 / self.os_jitter_scale)
        return cost

    def work(self, packets: int = 1):
        """An event that fires after processing ``packets`` packets."""
        total = sum(self.packet_cost() for _ in range(packets))
        return self.sim.timeout(total)


class CpuComputeCost:
    """Cycles-per-byte model for software data-path kernels.

    Used for the software ZUC cipher baseline (Intel IPsec-MB class
    performance: a few cycles/byte) and software defragmentation.
    """

    def __init__(self, core: CpuCore, cycles_per_byte: float,
                 cycles_per_call: float = 500):
        self.core = core
        self.cycles_per_byte = cycles_per_byte
        self.cycles_per_call = cycles_per_call

    def seconds_for(self, nbytes: int) -> float:
        cycles = self.cycles_per_call + self.cycles_per_byte * nbytes
        return self.core.seconds_for_cycles(cycles)

    def throughput_bps(self, nbytes: int) -> float:
        """Steady-state one-core throughput for requests of ``nbytes``."""
        return nbytes * 8 / self.seconds_for(nbytes)
