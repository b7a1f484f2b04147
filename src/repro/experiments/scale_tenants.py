"""N-tenant accelerator multiplexing on one FLD (§5.4 contexts, §9).

The paper's FLD multiplexes *accelerator functions* for many tenants on
one NIC: each tenant gets its own vPort (FDB MAC rule), its own receive
and transmit queues on the shared FLD, and its own engine.  This
experiment composes exactly that from a single declarative
:class:`~repro.topology.TopologySpec`: N functions — cycling through
echo, ZUC-encrypt-echo and IoT-HMAC-echo kinds — behind one FLD, one
load generator offering an aggregate 25 Gbps round-robin across the
tenants' flows, and per-tenant throughput/latency accounting.

With ``tenants=1`` the elaborated testbed and traffic are
event-for-event identical to the single-tenant FLD-E remote echo
(``flde_echo_remote``); a golden test pins that equivalence.
"""

from __future__ import annotations

import struct
from types import SimpleNamespace
from typing import Dict, List, Optional

from ..host import LoadGenerator
from ..net import Flow
from ..net.parse import PAYLOAD, parse_layout
from ..sim import LatencyCollector, Simulator, ThroughputMeter
from ..sweep import SweepCache, SweepPoint, run_sweep
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
from .setups import CLIENT_IP, CLIENT_MAC, Calibration, SERVER_IP

#: Tenant ``i`` gets kind ``TENANT_KINDS[i % 3]`` — a mix of pure
#: forwarding and compute-heavy functions, so contention on the shared
#: FLD is visible in the per-tenant numbers.
TENANT_KINDS = ("echo", "zuc-echo", "iot-echo")

#: First tenant MAC == the single-tenant FLD MAC (N=1 equivalence).
_TENANT_MAC_BASE = 0x99


def tenant_mac(i: int) -> str:
    return "02:00:00:00:00:%02x" % (_TENANT_MAC_BASE + i)


def tenant_name(i: int) -> str:
    return f"tenant{i}"


def scale_tenants_spec(tenants: int, units: int = 2) -> TopologySpec:
    """N accelerator functions multiplexed on one FLD + NIC via vPorts."""
    if tenants < 1:
        raise ValueError("need at least one tenant")
    # Each tenant's receive-SRAM slice must be a power-of-two stride
    # count (MPRQ constraint): the largest one that still lets all N
    # bindings fit in the 64-stride budget of FLD's 256 KiB.
    rx_strides = 1 << max(0, (64 // tenants).bit_length() - 1)
    return TopologySpec(
        name=f"scale-tenants-{tenants}",
        nodes=[NodeSpec(name="client", core="loadgen"),
               NodeSpec(name="server")],
        links=[LinkSpec(a="client", b="server")],
        vports=([VportSpec(node="client", vport=1, mac=CLIENT_MAC)]
                + [VportSpec(node="server", vport=2 + i,
                             mac=tenant_mac(i))
                   for i in range(tenants)]),
        flds=[FldSpec(node="server")],
        # Carve FLD's 256 KiB receive SRAM evenly: N tenants each get
        # 64//N strides per buffer (the N=1 geometry is the historical
        # single-tenant default).
        accel_fns=[AccelFnSpec(name=tenant_name(i), fld="server.fld",
                               kind=TENANT_KINDS[i % len(TENANT_KINDS)],
                               vport=2 + i, units=units,
                               rx_strides=rx_strides)
                   for i in range(tenants)],
        host_qps=[HostQpSpec(name="client", node="client", vport=1,
                             use_mmio_wqe=True, post_rx=1024)],
    )


class _TenantAccounting:
    """Per-tenant RTT/throughput, attributed by ``seq % tenants``.

    Wraps the load generator's receive hook: reads the sequence stamp
    (and the generator's send timestamp) *before* delegating, because
    the generator pops the timestamp as it processes the completion.
    """

    def __init__(self, loadgen: LoadGenerator, tenants: int):
        self.loadgen = loadgen
        self.tenants = tenants
        self.latency = [LatencyCollector(f"{tenant_name(i)}-rtt")
                        for i in range(tenants)]
        self.meters = [ThroughputMeter(f"{tenant_name(i)}-rx")
                       for i in range(tenants)]
        now = loadgen.sim.now
        for meter in self.meters:
            meter.start(now)
        self._inner = loadgen._on_receive
        loadgen.qp.on_receive = self._on_receive

    def _on_receive(self, data: bytes, cqe) -> None:
        payload_at = (cqe.layout or parse_layout(data))[PAYLOAD]
        if len(data) - payload_at >= 8:
            (seq,) = struct.unpack_from("!Q", data, payload_at)
            sent = self.loadgen._sent_at.get(seq)
            tenant = seq % self.tenants
            now = self.loadgen.sim.now
            if sent is not None:
                self.latency[tenant].add(now - sent)
            self.meters[tenant].record(now, len(data))
        self._inner(data, cqe)


def build(tenants: int, units: int = 2,
          cal: Optional[Calibration] = None,
          telemetry=None) -> SimpleNamespace:
    """Elaborate the N-tenant testbed plus its traffic generator."""
    cal = cal or Calibration()
    sim = Simulator(telemetry=telemetry)
    spec = scale_tenants_spec(tenants, units=units)
    testbed = build_topology(sim, spec, cal=cal)
    flows = [
        Flow(CLIENT_MAC, tenant_mac(i), CLIENT_IP, SERVER_IP,
             7000, 7001 + i)
        for i in range(tenants)
    ]
    loadgen = LoadGenerator(sim, testbed.host_qp("client"), flows[0])
    accounting = _TenantAccounting(loadgen, tenants)
    return SimpleNamespace(sim=sim, spec=spec, testbed=testbed,
                           flows=flows, loadgen=loadgen,
                           accounting=accounting)


def throughput(tenants: int, size: int = 256, count: int = 400,
               units: int = 2, cal: Optional[Calibration] = None,
               telemetry=None) -> Dict:
    """One scale-tenants point: aggregate + per-tenant echo metrics.

    Pacing and deadline mirror the single-tenant echo throughput
    experiment (25 Gbps offered, 2 s simulated horizon); ``count``
    frames are dealt round-robin across the tenants' flows.
    """
    setup = build(tenants, units=units, cal=cal, telemetry=telemetry)
    sim, loadgen = setup.sim, setup.loadgen
    rate_pps = 25e9 / ((size + 24) * 8)
    labels = [tenant_name(i) for i in range(tenants)]

    def run(sim):
        yield from loadgen.run_open_loop_flows(
            setup.flows, [size] * count, rate_pps=rate_pps,
            labels=labels if tenants > 1 else None)
        yield from loadgen.drain()

    sim.spawn(run(sim))
    sim.run(until=2.0)

    acct = setup.accounting
    per_tenant: List[Dict] = []
    for i in range(tenants):
        fn = setup.testbed.accel(tenant_name(i))
        lat = acct.latency[i]
        per_tenant.append({
            "tenant": tenant_name(i),
            "kind": fn.spec.kind,
            "vport": fn.spec.vport,
            "received": acct.meters[i].packets,
            "gbps": acct.meters[i].gbps(wire_overhead_per_packet=24),
            "mean_us": lat.mean * 1e6 if len(lat) else None,
            "p99_us": lat.pct(99.0) * 1e6 if len(lat) else None,
            "accel_packets": fn.accel.stats_processed,
        })
    violations = setup.testbed.quiesce()
    return {
        "tenants": tenants,
        "size": size,
        "sent": loadgen.stats_sent,
        "received": loadgen.stats_received,
        "gbps": loadgen.rx_meter.gbps(wire_overhead_per_packet=24),
        "mpps": loadgen.rx_meter.mpps(),
        "per_tenant": per_tenant,
        "violations": len(violations),
    }


def sweep_points(tenant_counts=(1, 2, 4), size: int = 256,
                 count: int = 400) -> List[SweepPoint]:
    """One point per tenant count; the spec joins each cache key."""
    return [
        SweepPoint("scale-tenants",
                   "repro.experiments.scale_tenants:throughput",
                   {"tenants": tenants, "size": size, "count": count},
                   topology=scale_tenants_spec(tenants).to_dict())
        for tenants in tenant_counts
    ]


def sweep(tenant_counts=(1, 2, 4), size: int = 256, count: int = 400,
          jobs: int = 1, cache: Optional[SweepCache] = None) -> List[Dict]:
    return run_sweep(sweep_points(tenant_counts, size, count),
                     jobs=jobs, cache=cache).rows
