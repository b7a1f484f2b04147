"""The CPU-mediated accelerator architecture (§3, Fig. 2a).

The third corner of the paper's trade-off triangle: VN2F-style designs
put the host CPU on *every* network transaction — the NIC delivers to
host memory, software relays the data over PCIe to a dumb accelerator
BAR, polls the result back, and retransmits.  Small accelerator area,
full NIC features, but CPU cycles burn per byte and the relay caps
throughput.

This module builds that architecture on the same substrate and measures
what the paper argues qualitatively: the mediated design's throughput
ceiling and host-CPU consumption against FLD's.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Optional

from ..host import CpuCore, LoadGenerator
from ..net import Flow
from ..pcie import MemoryRegion
from ..sim import Simulator, Store
from ..sweep import SweepPoint
from ..topology import ACCEL_BAR_BASE, HostQpSpec, VportSpec
from ..topology import build as build_topology
from .echo import open_loop, scenario_row
from .setups import (CLIENT_IP, CLIENT_MAC, SERVER_IP, SERVER_MAC,
                     Calibration, remote_spec)


class DumbAccelerator(MemoryRegion):
    """A fixed-function device with only a staging buffer BAR.

    No NIC access, no doorbells toward the network — everything moves
    through the host.  ``process`` transforms staged bytes in place
    after a fixed device latency (the echo workload: identity).
    """

    def __init__(self, sim: Simulator, name: str = "dumb-accel",
                 size: int = 1 << 20, latency: float = 500e-9):
        super().__init__(name, size)
        self.sim = sim
        self.latency = latency
        self.stats_jobs = 0

    def process(self, offset: int, length: int):
        """Event firing when the staged job completes."""
        self.stats_jobs += 1
        return self.sim.timeout(self.latency)


class CpuMediatedEcho:
    """Host software relaying packets NIC <-> accelerator (Fig. 2a)."""

    #: Cycles the relay spends per packet beyond the driver's rx cost:
    #: staging the DMA, polling the device, re-posting the transmit.
    RELAY_CYCLES = 220

    def __init__(self, sim: Simulator, node, qp, core: CpuCore):
        self.sim = sim
        self.node = node
        self.qp = qp
        self.core = core
        self.accel = DumbAccelerator(sim)
        node.fabric.attach(self.accel)
        # Overlap-checked against the node's other BAR windows.
        node.map_window("dumb-accel", ACCEL_BAR_BASE, self.accel.size,
                        self.accel)
        self._pending = Store(sim, capacity=4096, name="mediated.pending")
        self.stats_echoed = 0
        self.stats_cpu_seconds = 0.0
        qp.on_receive = lambda data, cqe: self._pending.try_put(data)
        sim.spawn(self._relay(), name="mediated.relay")

    def _relay(self):
        fabric = self.node.fabric
        cpu_port = self.node.driver.cpu_port
        while True:
            data = yield self._pending.get()
            start = self.sim.now
            # Host CPU stages the packet into the accelerator BAR...
            yield self.sim.timeout(
                self.core.seconds_for_cycles(self.RELAY_CYCLES))
            yield fabric.post_write(cpu_port, ACCEL_BAR_BASE, data)
            # ...busy-polls the device...
            yield self.accel.process(0, len(data))
            # ...reads the result back over PCIe (a blocking MMIO read
            # from the core's point of view)...
            result = yield fabric.read(cpu_port, ACCEL_BAR_BASE, len(data))
            # ...and transmits it (reusing the echo direction swap).
            from ..host.testpmd import swap_frame
            echo = swap_frame(result)
            yield from self.qp.wait_for_tx_space()
            self.qp.send(echo)
            self.stats_echoed += 1
            # The relay core spins for the whole turnaround: this is
            # the "CPU involved in every network transaction" cost.
            self.stats_cpu_seconds += self.sim.now - start


def build(sim: Simulator, cal: Calibration):
    """Client + CPU-mediated echo server."""
    spec = remote_spec(
        "cpu-mediated-echo", "app-nojitter",
        vports=[VportSpec(node="client", vport=1, mac=CLIENT_MAC),
                VportSpec(node="server", vport=1, mac=SERVER_MAC)],
        host_qps=[HostQpSpec(name="client", node="client", vport=1,
                             use_mmio_wqe=True, post_rx=1024),
                  HostQpSpec(name="server", node="server", vport=1,
                             use_mmio_wqe=True, post_rx=1024)],
    )
    testbed = build_topology(sim, spec, cal=cal)
    client, server = testbed.node("client"), testbed.node("server")
    server_qp = testbed.host_qp("server")
    echo = CpuMediatedEcho(sim, server, server_qp, server.core)
    flow = Flow(CLIENT_MAC, SERVER_MAC, CLIENT_IP, SERVER_IP, 7000, 7001)
    loadgen = LoadGenerator(sim, testbed.host_qp("client"), flow)
    return SimpleNamespace(client=client, server=server, echo=echo,
                           loadgen=loadgen, testbed=testbed)


def drive(sim, setup, count: int, size: int) -> Dict:
    """The paced echo, plus the relay's host CPU utilization."""
    result = open_loop(sim, setup.loadgen, count, size)
    duration = max(setup.loadgen.rx_meter.duration, 1e-12)
    return {
        "architecture": "cpu-mediated",
        **result,
        # Host CPU utilization of the relay alone (excludes the driver
        # rx path, which FLD also avoids).
        "host_cpu_utilization": setup.echo.stats_cpu_seconds / duration,
    }


def echo_throughput(size: int, count: int = 1200,
                    cal: Optional[Calibration] = None) -> Dict:
    """One throughput point for the mediated architecture (scenario
    ``cpu-mediated``)."""
    return scenario_row("cpu-mediated", count, size, cal)


def sweep_points(sizes=(64, 256, 1024, 1500),
                 count: int = 1200) -> List[SweepPoint]:
    """The mediated architecture's throughput curve, one point/size."""
    return [
        SweepPoint("cpu-mediated",
                   "repro.experiments.cpu_mediated:echo_throughput",
                   {"size": size, "count": count})
        for size in sizes
    ]
