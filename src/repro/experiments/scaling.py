"""FLD scaling to higher line rates (§9 "Discussion").

The paper argues FLD scales past one instance's PCIe/pipeline ceiling by
"instantiating multiple FLD 'cores' within the accelerator, combined
with NIC RSS offloads to balance the load on these cores."  This
experiment builds exactly that: a 100 GbE-class NIC steering traffic
through an RSS group whose queues belong to *N separate FLD instances*,
each with its own BAR window, PCIe x8 attachment and echo engine.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List

from ..host import LoadGenerator
from ..net import Flow, RssEngine
from ..nic import ForwardToRss, NicConfig, RssGroup
from ..sweep import SweepPoint
from ..topology import (
    AccelFnSpec,
    FldSpec,
    HostQpSpec,
    LinkSpec,
    NodeSpec,
    TopologySpec,
    VportSpec,
)
from ..topology import build as build_topology
from .echo import open_loop, scenario_row
from .setups import CLIENT_MAC, CLIENT_IP, Calibration, FLD_MAC, SERVER_IP


def scaling_spec(cores: int) -> TopologySpec:
    """``cores`` FLD instances (one BAR window each) on one server."""
    return TopologySpec(
        name=f"scaling-{cores}cores",
        # A 100 GbE-era testbed: hosts attach at PCIe x16 so the
        # traffic generator is not the bottleneck under test.
        nodes=[NodeSpec(name="client", core="loadgen", host_lanes=16),
               NodeSpec(name="server", host_lanes=16)],
        links=[LinkSpec(a="client", b="server")],
        vports=[VportSpec(node="client", vport=1, mac=CLIENT_MAC),
                VportSpec(node="server", vport=2, mac=FLD_MAC)],
        flds=[FldSpec(node="server", index=core,
                      name=f"server.fld{core}")
              for core in range(cores)],
        accel_fns=[AccelFnSpec(name=f"echo{core}",
                               fld=f"server.fld{core}", kind="echo",
                               vport=2, units=2, rx_default=False)
                   for core in range(cores)],
        host_qps=[HostQpSpec(name="client", node="client", vport=1,
                             use_mmio_wqe=True, sq_entries=2048,
                             rq_entries=2048, post_rx=2048)],
    )


def build(sim, cal: Calibration, cores: int = 4, flows: int = 32,
          port_rate_bps: float = 100e9) -> SimpleNamespace:
    """A server with ``cores`` FLD instances behind one RSS group, and a
    client generator cycling ``flows`` flows."""
    nic_config = NicConfig(port_rate_bps=port_rate_bps,
                           port_latency=cal.wire_latency,
                           processing_delay=cal.nic_processing)
    testbed = build_topology(
        sim, scaling_spec(cores), cal=cal,
        nic_configs={"client": nic_config, "server": nic_config},
    )
    client, server = testbed.node("client"), testbed.node("server")
    fns = [testbed.accel(f"echo{core}") for core in range(cores)]

    # NIC RSS spreads flows across the FLD cores' receive queues (§9).
    group = RssGroup("fld-cores", [fn.rq for fn in fns],
                     RssEngine(queues=list(range(cores))))
    vport = server.nic.eswitch.vports[2]
    server.nic.steering.table(vport.rx_root).default_actions = [
        ForwardToRss(group)]

    # Many flows so RSS can spread them; one aggregate latency/rx meter.
    flow_list = [
        Flow(CLIENT_MAC, FLD_MAC, CLIENT_IP, SERVER_IP, 40000 + i, 7001)
        for i in range(flows)
    ]
    loadgen = LoadGenerator(sim, testbed.host_qp("client"), flow_list[0])
    return SimpleNamespace(client=client, server=server,
                           runtimes=[fn.runtime for fn in fns],
                           accelerators=[fn.accel for fn in fns],
                           flows=flow_list, loadgen=loadgen,
                           port_rate_bps=port_rate_bps, testbed=testbed)


def drive(sim, setup, count: int, size: int) -> Dict:
    """Echo at the port's line rate, frames cycling over the flows."""
    result = open_loop(sim, setup.loadgen, count, size,
                       pace_bps=setup.port_rate_bps, flows=setup.flows)
    per_core = [a.stats_processed for a in setup.accelerators]
    return {
        "cores": len(per_core),
        "gbps": result["gbps"],
        "received": result["received"],
        "sent": result["sent"],
        "per_core_packets": per_core,
        "active_cores": sum(1 for c in per_core if c > 0),
    }


def throughput(cores: int, frame_size: int = 1500, count: int = 2000,
               flows: int = 32, port_rate_bps: float = 100e9) -> Dict:
    """Echo throughput with ``cores`` FLD instances at ``port_rate``
    (scenario ``scaling``)."""
    return scenario_row("scaling", count, frame_size,
                        shape={"cores": cores, "flows": flows,
                               "port_rate_bps": port_rate_bps})


def core_sweep_points(core_counts=(1, 2, 4), frame_size: int = 1500,
                      count: int = 1500) -> List[SweepPoint]:
    """§9 scaling: one point per FLD-core count."""
    return [
        SweepPoint("scaling", "repro.experiments.scaling:throughput",
                   {"cores": cores, "frame_size": frame_size,
                    "count": count})
        for cores in core_counts
    ]
