"""The IP defragmentation experiment (§8.2.2).

60 iperf-style TCP flows from a client to a server with 8 receive cores.
Configurations:

* ``nofrag``      — 1500 B packets, no fragmentation: RSS spreads flows
                    across the cores; near line rate (paper: 23.2 Gbps).
* ``sw-defrag``   — a 1450 B-MTU hop fragments every packet; RSS falls
                    back to the 2-tuple, all fragments land on ONE core,
                    which also pays software reassembly (paper: 3.2 Gbps).
* ``hw-defrag``   — the FLD accelerator reassembles fragments mid-pipeline
                    and returns whole datagrams to steering, restoring RSS
                    (paper: 22.4 Gbps, a 7x speedup).
* ``vxlan-sw`` /
  ``vxlan-hw``    — the same with pre-fragmented traffic inside a VXLAN
                    tunnel; the NIC's decapsulation offload runs *before*
                    the accelerator.  The sender's software fragmentation
                    + encapsulation makes it the bottleneck in the hw case
                    (paper: 5.25x over the sw case).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Optional

from ..accelerators import IpDefragAccelerator
from ..host import CpuCore
from ..net import (
    Ipv4,
    MacAddress,
    PROTO_TCP,
    Reassembler,
    RssEngine,
    VXLAN_PORT,
    fragment_packet,
    make_flows,
    vxlan_encapsulate,
)
from ..net.parse import parse_frame
from ..nic import (
    DecapVxlan,
    ForwardToRss,
    GotoTable,
    MatchSpec,
    RssGroup,
    ToAccelerator,
)
from ..sim import Simulator, ThroughputMeter
from ..sw import FldRuntime
from ..sweep import SweepPoint
from ..topology import VportSpec
from ..topology import build as build_topology
from .echo import scenario_row
from .setups import (CLIENT_IP, CLIENT_MAC, SERVER_IP, SERVER_MAC,
                     Calibration, remote_spec)

NUM_CORES = 8
NUM_FLOWS = 60
FULL_MTU = 1500
SMALL_MTU = 1450
VNI = 100
CONFIGS = ("nofrag", "sw-defrag", "hw-defrag", "vxlan-sw", "vxlan-hw")


class _KernelReceiver:
    """One core's iperf server: counts TCP goodput (optionally after
    software reassembly)."""

    def __init__(self, sim: Simulator, qp, meter: ThroughputMeter,
                 software_defrag: bool):
        self.sim = sim
        self.qp = qp
        self.meter = meter
        self.software_defrag = software_defrag
        self.reassembler = Reassembler() if software_defrag else None
        qp.on_receive = self._on_receive
        self.stats_packets = 0

    def _on_receive(self, data: bytes, cqe) -> None:
        # Timing is charged by the queue's per-core dispatcher; here we
        # account the goodput functionally.
        self.stats_packets += 1
        packet = parse_frame(data)
        ip = packet.find(Ipv4)
        if ip is None:
            return
        if ip.is_fragment:
            if self.reassembler is None:
                return  # fragments without a defragger are useless
            whole = self.reassembler.add(packet, now=self.sim.now)
            if whole is None:
                return
            packet = whole
        payload_bytes = (packet.find(Ipv4).total_length
                         - Ipv4.HEADER_LEN - 20)  # minus TCP header
        self.meter.record(self.sim.now, max(0, payload_bytes))


def build(sim: Simulator, cal: Calibration, config: str = "hw-defrag"):
    """Assemble the testbed for one §8.2.2 configuration."""
    if config not in CONFIGS:
        raise ValueError(f"unknown defrag config {config!r}")
    # The spec covers the static topology; the 8 per-core receive QPs
    # (each with its own kernel CpuCore) and the conditional FLD must
    # keep their historical interleaved construction, so they stay
    # imperative below.
    spec = remote_spec(
        f"defrag-{config}",
        vports=[VportSpec(node="client", vport=1, mac=CLIENT_MAC),
                VportSpec(node="server", vport=1, mac=SERVER_MAC)],
    )
    testbed = build_topology(sim, spec, cal=cal)
    client, server = testbed.node("client"), testbed.node("server")

    # 8 receive queues, each with its own kernel core.
    software_defrag = config in ("sw-defrag", "vxlan-sw")
    rx_cycles = cal.kernel_rx_cycles + (
        cal.sw_defrag_cycles if software_defrag else 0)
    meter = ThroughputMeter("goodput")
    meter.start(0.0)
    queues = []
    receivers = []
    for i in range(NUM_CORES):
        core = CpuCore(sim, cal.cpu_frequency_hz, rx_cycles,
                       os_jitter_probability=0.0)
        qp = server.driver.create_eth_qp(vport=1, core=core,
                                         register_default=False,
                                         rq_entries=2048)
        qp.post_rx_buffers(2048)
        queues.append(qp)
        receivers.append(_KernelReceiver(sim, qp, meter, software_defrag))

    engine = RssEngine(queues=list(range(NUM_CORES)))
    group = RssGroup("iperf", [qp.rq for qp in queues], engine)

    # Steering on the server vPort.
    table = server.nic.steering.table(
        server.nic.eswitch.vports[1].rx_root)
    accel = None
    if config in ("hw-defrag", "vxlan-hw"):
        runtime = FldRuntime(server, fld_config=cal.fld_config())
        fld_rq = runtime.create_rx_queue(vport=1, set_default=False)
        txq = runtime.create_eth_tx_queue(vport=1)
        accel = IpDefragAccelerator(sim, runtime.fld, units=1,
                                    tx_queue=txq)
        resume = server.nic.steering.table("post-defrag")
        resume.default_actions = [ForwardToRss(group)]
        runtime.nic.cmd.add_resume_table("post-defrag")
        frag_actions = [ToAccelerator(fld_rq, "post-defrag")]
    else:
        frag_actions = [ForwardToRss(group)]

    if config.startswith("vxlan"):
        post_decap = server.nic.steering.table("post-decap")
        post_decap.add_rule(MatchSpec(is_fragment=True), frag_actions)
        post_decap.default_actions = [ForwardToRss(group)]
        table.add_rule(MatchSpec(ip_proto=17, dst_port=VXLAN_PORT),
                       [DecapVxlan(), GotoTable("post-decap")], priority=20)
    table.add_rule(MatchSpec(is_fragment=True), frag_actions, priority=10)
    table.default_actions = [ForwardToRss(group)]

    # The client: one tx queue, 60 flows round-robin.
    client_qp = client.driver.create_eth_qp(vport=1, use_mmio_wqe=True)
    client_qp.post_rx_buffers(64)
    flows = make_flows(NUM_FLOWS, proto=PROTO_TCP, dst_ip=SERVER_IP,
                       seed=11)
    for flow in flows:
        flow.src_mac = MacAddress(CLIENT_MAC)
        flow.dst_mac = MacAddress(SERVER_MAC)
    return SimpleNamespace(client=client, server=server,
                           client_qp=client_qp, flows=flows, meter=meter,
                           receivers=receivers, accel=accel, config=config,
                           calibration=cal, testbed=testbed)


def _sender(sim, setup, count: int):
    """Client process: ``count`` 1500 B TCP packets round-robin over the
    flows, fragmented/encapsulated in software as the configuration
    demands."""
    cal = setup.calibration
    config = setup.config
    qp = setup.client_qp
    flows = setup.flows
    for index in range(count):
        packet = flows[index % len(flows)].make_sized_packet(FULL_MTU + 14)
        frames, cost = [packet], 0.0
        if config != "nofrag":
            frames = fragment_packet(packet, SMALL_MTU)
            cost += cal.client_frag_seconds * len(frames)
        if config.startswith("vxlan"):
            frames = [
                vxlan_encapsulate(f, VNI, CLIENT_MAC, SERVER_MAC,
                                  CLIENT_IP, SERVER_IP)
                for f in frames
            ]
            cost += cal.client_encap_seconds * len(frames)
        if cost:
            yield sim.timeout(cost)
        for frame in frames:
            yield from qp.wait_for_tx_space()
            qp.send(frame.to_bytes())
        # pace lightly so 60 flows interleave like parallel iperfs
        yield sim.timeout(1e-9)


def drive(sim, setup, count: int, size: Optional[int],
          deadline: float = 0.05) -> Dict:
    """``count`` datagrams round-robin over the 60 flows (``size`` is
    unused: every datagram is a 1500 B TCP packet); returns the measured
    goodput."""
    sim.spawn(_sender(sim, setup, count))
    sim.run(until=deadline)
    queue_counts = [r.stats_packets for r in setup.receivers]
    return {
        "config": setup.config,
        "goodput_gbps": setup.meter.gbps(),
        "datagrams": setup.meter.packets,
        "active_cores": sum(1 for c in queue_counts if c > 0),
        "queue_counts": queue_counts,
        "accel_reassembled": (setup.accel.stats_reassembled
                              if setup.accel else 0),
    }


def run(config: str, rounds: int = 40,
        cal: Optional[Calibration] = None,
        deadline: float = 0.05) -> Dict:
    """Run one configuration, ``rounds`` datagrams per flow (scenario
    ``defrag``); returns the measured goodput."""
    return scenario_row("defrag", rounds * NUM_FLOWS, cal=cal,
                        shape={"config": config}, deadline=deadline)


def experiment_points(rounds: int = 30,
                      configs=CONFIGS) -> List[SweepPoint]:
    """The §8.2.2 comparison as one sweep point per configuration."""
    return [
        SweepPoint("defrag", "repro.experiments.defrag:run",
                   {"config": config, "rounds": rounds})
        for config in configs
    ]
