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
from ..sim import LatencyCollector, ThroughputMeter
from ..sweep import SweepPoint
from ..topology import (
    AccelFnSpec,
    FldSpec,
    HostQpSpec,
    TopologySpec,
    VportSpec,
)
from ..topology import build as build_topology
from .echo import open_loop, scenario_row
from .setups import CLIENT_IP, CLIENT_MAC, Calibration, SERVER_IP, remote_spec

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


def tenant_fns_spec(name: str, fns, units: int = 2) -> TopologySpec:
    """Accelerator functions on one FLD + NIC, function ``i`` of ``fns``
    (``(name, kind, rx_strides)`` each) behind vPort ``2 + i`` and MAC
    :func:`tenant_mac` ``(i)``, offered traffic by one client."""
    return remote_spec(
        name,
        vports=([VportSpec(node="client", vport=1, mac=CLIENT_MAC)]
                + [VportSpec(node="server", vport=2 + i,
                             mac=tenant_mac(i))
                   for i in range(len(fns))]),
        flds=[FldSpec(node="server")],
        accel_fns=[AccelFnSpec(name=fn, fld="server.fld", kind=kind,
                               vport=2 + i, units=units,
                               rx_strides=rx_strides)
                   for i, (fn, kind, rx_strides) in enumerate(fns)],
        host_qps=[HostQpSpec(name="client", node="client", vport=1,
                             use_mmio_wqe=True, post_rx=1024)],
    )


def scale_tenants_spec(tenants: int, units: int = 2) -> TopologySpec:
    """N accelerator functions multiplexed on one FLD + NIC via vPorts."""
    if tenants < 1:
        raise ValueError("need at least one tenant")
    # Carve FLD's 256 KiB receive SRAM evenly: each tenant's slice must
    # be a power-of-two stride count (MPRQ constraint), the largest that
    # still lets all N bindings fit in the 64-stride budget (the N=1
    # geometry is the historical single-tenant default).
    rx_strides = 1 << max(0, (64 // tenants).bit_length() - 1)
    return tenant_fns_spec(
        f"scale-tenants-{tenants}",
        [(tenant_name(i), TENANT_KINDS[i % len(TENANT_KINDS)], rx_strides)
         for i in range(tenants)], units)


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


def build(sim, cal: Calibration, tenants: int = 4,
          units: int = 2) -> SimpleNamespace:
    """Elaborate the N-tenant testbed plus its traffic generator."""
    spec = scale_tenants_spec(tenants, units=units)
    testbed = build_topology(sim, spec, cal=cal)
    flows = [
        Flow(CLIENT_MAC, tenant_mac(i), CLIENT_IP, SERVER_IP,
             7000, 7001 + i)
        for i in range(tenants)
    ]
    loadgen = LoadGenerator(sim, testbed.host_qp("client"), flows[0])
    accounting = _TenantAccounting(loadgen, tenants)
    return SimpleNamespace(spec=spec, testbed=testbed, flows=flows,
                           loadgen=loadgen, accounting=accounting)


def drive(sim, setup, count: int, size: int) -> Dict:
    """Aggregate + per-tenant echo metrics.

    Pacing and deadline are the single-tenant echo throughput
    experiment's (25 Gbps offered, 2 s simulated horizon); ``count``
    frames are dealt round-robin across the tenants' flows.
    """
    tenants = len(setup.flows)
    labels = [tenant_name(i) for i in range(tenants)]
    result = open_loop(sim, setup.loadgen, count, size, flows=setup.flows,
                       labels=labels if tenants > 1 else None)
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
    return {"tenants": tenants, **result, "per_tenant": per_tenant}


def throughput(tenants: int, size: int = 256, count: int = 400,
               units: int = 2, cal: Optional[Calibration] = None,
               telemetry=None) -> Dict:
    """One scale-tenants point (scenario ``scale-tenants``), with the
    testbed's invariant violation count."""
    return scenario_row("scale-tenants", count, size, cal, telemetry,
                        shape={"tenants": tenants, "units": units})


def sweep_points(tenant_counts=(1, 2, 4), size: int = 256,
                 count: int = 400) -> List[SweepPoint]:
    """One point per tenant count."""
    return [
        SweepPoint("scale-tenants",
                   "repro.experiments.scale_tenants:throughput",
                   {"tenants": tenants, "size": size, "count": count})
        for tenants in tenant_counts
    ]
