"""Experiment testbed builders (paper §8 "Setup").

Two kinds of experiments:

* **local** — one Innova-2-like node; the load generator runs on the
  host and the eSwitch loops traffic between its vPort and FLD's vPort,
  stressing the PCIe path (ceiling ~50 Gbps);
* **remote** — a client node and a server node back-to-back over 25 GbE.

Each builder declares its testbed as a :class:`repro.topology.TopologySpec`
and elaborates it with :func:`repro.topology.build`; only the
application wiring (flows, load generators, control planes) stays
imperative.  Builders return small namespace objects with the pieces
each experiment needs; all calibration constants live in
:class:`Calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

from ..accelerators import RdmaEchoAccelerator, ZucAccelerator
from ..core.fld import FldConfig
from ..host import CpuCore, EchoApp, LoadGenerator
from ..net import Flow
from ..nic import NicConfig
from ..sim import Simulator
from ..sw import FldRClient, FldRControlPlane
from ..topology import (
    AccelFnSpec,
    FldSpec,
    HostQpSpec,
    LinkSpec,
    NodeSpec,
    TopologySpec,
    VportSpec,
    build,
)

CLIENT_MAC = "02:00:00:00:00:01"
SERVER_MAC = "02:00:00:00:00:02"
FLD_MAC = "02:00:00:00:00:99"
CLIENT_IP = "10.0.0.1"
SERVER_IP = "10.0.0.2"
#: The FLD-R client's message buffer: the largest message it posts.
FLDR_BUFFER = 16 * 1024


@dataclass
class Calibration:
    """Timing constants the experiments share.

    These are the free parameters of the behavioural model; they are
    documented per-experiment in EXPERIMENTS.md.  Defaults target the
    paper's testbed (Haswell + ConnectX-5 + Innova-2 FPGA).
    """

    # Host DPDK data path: ~9.6 Mpps/core forwarding (§8.1.1).
    cpu_packet_cycles: int = 240
    cpu_frequency_hz: float = 2.3e9
    # The load generator (testpmd with vectorized rx across queues) is
    # provisioned not to be the bottleneck it measures.
    loadgen_packet_cycles: int = 100
    # OS interference: rare scheduling events inflate the CPU tail
    # (Table 6's 11.18 us p99.9 vs 2.58 us p99).
    os_jitter_probability: float = 3e-3
    os_jitter_scale: float = 10e-6
    # Fabrics.
    wire_latency: float = 300e-9
    nic_processing: float = 25e-9
    rdma_mtu: int = 1024
    # FLD's FPGA pipeline is clocked slower than the NIC ASIC: §8.1.1
    # attributes FLD-E's higher mean latency to it.
    fld_pipeline_latency: float = 300e-9
    # §8.2.2's receivers run a kernel TCP stack + iperf (not DPDK): the
    # paper's 23.2 Gbps across many cores and 3.2 Gbps on one core imply
    # ~1.8 us per packet (4150 cycles at 2.3 GHz) and a few hundred ns
    # per fragment reassembled in software.  Its sender fragments (and
    # VXLAN-encapsulates) in software, per packet.
    kernel_rx_cycles: int = 4150
    sw_defrag_cycles: int = 600
    client_frag_seconds: float = 50e-9
    client_encap_seconds: float = 300e-9

    def client_core(self, sim: Simulator) -> CpuCore:
        return CpuCore(sim, self.cpu_frequency_hz,
                       self.loadgen_packet_cycles,
                       os_jitter_probability=0.0)

    def server_core(self, sim: Simulator, jitter: bool = True) -> CpuCore:
        return CpuCore(
            sim, self.cpu_frequency_hz, self.cpu_packet_cycles,
            os_jitter_probability=self.os_jitter_probability if jitter else 0,
            os_jitter_scale=self.os_jitter_scale,
        )

    def nic_config(self) -> NicConfig:
        return NicConfig(port_latency=self.wire_latency,
                         processing_delay=self.nic_processing,
                         rdma_mtu=self.rdma_mtu)

    def fld_config(self) -> FldConfig:
        return FldConfig(pipeline_latency=self.fld_pipeline_latency)


def remote_spec(name: str, server: str = "default",
                **parts) -> TopologySpec:
    """A load-generating client and a server (core role ``server``)
    back to back over 25 GbE, with ``parts`` (vports, flds, ...)."""
    return TopologySpec(
        name=name, links=[LinkSpec(a="client", b="server")],
        nodes=[NodeSpec(name="client", core="loadgen"),
               NodeSpec(name="server", core=server)], **parts)


def flde_echo_remote_spec(units: int = 2) -> TopologySpec:
    """The remote FLD-E echo testbed, as data."""
    return remote_spec(
        "flde-echo-remote",
        vports=[VportSpec(node="client", vport=1, mac=CLIENT_MAC),
                VportSpec(node="server", vport=2, mac=FLD_MAC)],
        flds=[FldSpec(node="server")],
        accel_fns=[AccelFnSpec(name="echo", fld="server.fld", kind="echo",
                               vport=2, units=units)],
        host_qps=[HostQpSpec(name="client", node="client", vport=1,
                             use_mmio_wqe=True, post_rx=1024)],
    )


def _flde_echo(sim, cal, spec: TopologySpec, client: str,
               server: str) -> SimpleNamespace:
    testbed = build(sim, spec, cal=cal)
    fn = testbed.accel("echo")
    flow = Flow(CLIENT_MAC, FLD_MAC, CLIENT_IP, SERVER_IP, 7000, 7001)
    loadgen = LoadGenerator(sim, testbed.host_qp(spec.host_qps[0].name),
                            flow)
    return SimpleNamespace(client=testbed.node(client),
                           server=testbed.node(server),
                           runtime=fn.runtime, accel=fn.accel,
                           loadgen=loadgen, rq=fn.rq, testbed=testbed)


def flde_echo_remote(sim: Simulator, cal: Optional[Calibration] = None,
                     units: int = 2) -> SimpleNamespace:
    """Remote FLD-E echo: client testpmd -> wire -> NIC -> FLD -> echo."""
    return _flde_echo(sim, cal, flde_echo_remote_spec(units), "client",
                      "server")


def flde_echo_local(sim: Simulator, cal: Optional[Calibration] = None,
                    units: int = 2) -> SimpleNamespace:
    """Local FLD-E echo: one node, eSwitch loopback between vPorts."""
    spec = TopologySpec(
        name="flde-echo-local",
        nodes=[NodeSpec(name="local", core="loadgen")],
        vports=[VportSpec(node="local", vport=1, mac=CLIENT_MAC),
                VportSpec(node="local", vport=2, mac=FLD_MAC)],
        flds=[FldSpec(node="local")],
        accel_fns=[AccelFnSpec(name="echo", fld="local.fld", kind="echo",
                               vport=2, units=units)],
        host_qps=[HostQpSpec(name="loadgen", node="local", vport=1,
                             use_mmio_wqe=True, post_rx=1024)],
    )
    return _flde_echo(sim, cal, spec, "local", "local")


def cpu_echo_remote(sim: Simulator, cal: Optional[Calibration] = None,
                    jitter: bool = True) -> SimpleNamespace:
    """The CPU baseline: DPDK testpmd echoing on the server host."""
    spec = remote_spec(
        "cpu-echo-remote", "app" if jitter else "app-nojitter",
        vports=[VportSpec(node="client", vport=1, mac=CLIENT_MAC),
                VportSpec(node="server", vport=1, mac=SERVER_MAC)],
        host_qps=[HostQpSpec(name="client", node="client", vport=1,
                             use_mmio_wqe=True, post_rx=1024),
                  HostQpSpec(name="server", node="server", vport=1,
                             use_mmio_wqe=True, post_rx=1024)],
    )
    testbed = build(sim, spec, cal=cal)
    echo = EchoApp(testbed.host_qp("server"))
    flow = Flow(CLIENT_MAC, SERVER_MAC, CLIENT_IP, SERVER_IP, 7000, 7001)
    loadgen = LoadGenerator(sim, testbed.host_qp("client"), flow)
    return SimpleNamespace(client=testbed.node("client"),
                           server=testbed.node("server"), echo=echo,
                           loadgen=loadgen, testbed=testbed)


def _fldr_service(sim, cal, name: str, local: bool,
                  accelerator) -> SimpleNamespace:
    """A host RDMA client connected through FLD-R's control plane to the
    engine ``accelerator(runtime, control)`` makes."""
    client, server = ("local", "local") if local else ("client", "server")
    parts = dict(vports=[VportSpec(node=client, vport=1, mac=CLIENT_MAC),
                         VportSpec(node=server, vport=2, mac=FLD_MAC)],
                 flds=[FldSpec(node=server)])
    spec = (TopologySpec(name=name, nodes=[NodeSpec(name="local",
                                                    core="loadgen")],
                         **parts)
            if local else remote_spec(name, **parts))
    testbed = build(sim, spec, cal=cal)
    runtime = testbed.fld(f"{server}.fld")
    control = FldRControlPlane(runtime, vport=2, mac=FLD_MAC, ip=SERVER_IP)
    accel = accelerator(runtime, control)
    connection = FldRClient(testbed.node(client).driver, vport=1,
                            mac=CLIENT_MAC, ip=CLIENT_IP,
                            buffer_size=FLDR_BUFFER).connect(control)
    return SimpleNamespace(client=testbed.node(client),
                           server=testbed.node(server), runtime=runtime,
                           accel=accel, connection=connection,
                           control=control, testbed=testbed)


def fldr_echo(sim: Simulator, cal: Optional[Calibration] = None,
              local: bool = False, units: int = 2) -> SimpleNamespace:
    """FLD-R echo: a host RDMA client against an FLD echo accelerator."""
    setup = _fldr_service(
        sim, cal, "fldr-echo-local" if local else "fldr-echo-remote", local,
        lambda runtime, _control: RdmaEchoAccelerator(sim, runtime.fld,
                                                      units=units))
    # Point the echo at the connection's reply queue.
    setup.accel.tx_queue = setup.connection.info.queue_id
    return setup


def zuc_service(sim: Simulator, cal: Optional[Calibration] = None,
                units: int = 8) -> SimpleNamespace:
    """The disaggregated ZUC accelerator behind FLD-R (§8.2.1)."""
    return _fldr_service(
        sim, cal, "zuc-service", False,
        lambda runtime, control: ZucAccelerator(
            sim, runtime.fld, units=units, queue_map=control.queue_map))
