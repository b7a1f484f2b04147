"""Match-action programs in the FLD datapath (repro.prog, ISSUE 6).

Four example programs run against declarative testbeds, exercising the
whole stack: verifier + loader through the firmware command unit,
rx-hook interpretation ahead of the accelerator, and (for the load
balancer) redirect re-injection through the eswitch:

* **firewall** — one echo tenant, four flows; a blocklist map drops two
  of the four UDP destination ports before the accelerator sees them.
* **lb** — an L4 load balancer function fronting two backend echo
  functions on the same FLD: the program rewrites the destination MAC
  and hairpins the packet out of the LB vPort; the FDB loops it back to
  the chosen backend.  The LB function's own accelerator stays idle.
* **nat** — static destination-port translation; every packet takes the
  ``modify`` verdict and still echoes back to the client.
* **ddos** — a token-bucket filter (one bucket per destination port):
  each flow's first ``burst`` packets pass, the rest drop, and the
  bucket state lives in firmware-owned cuckoo maps.

Each scenario is a :mod:`repro.scenario` row (``prog-firewall`` ...)
reporting per-verdict counters (read back through ``QueryObject``),
per-function accelerator counts, map stats and the invariant-audit
violation count — drops end their packet's trace, so a clean run audits
complete even when most packets die in the program.  Per-program
interpretation latency is read from the ``prog.<name>`` spans of a run
under span telemetry (:func:`prog_latency_us`; ``python -m repro
prog``).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List

from ..host import LoadGenerator
from ..net import Flow
from ..prog.programs import (
    ddos_filter,
    firewall,
    load_balancer,
    mac_to_int,
    nat,
    passthrough,
)
from ..topology import TopologySpec
from ..topology import build as build_topology
from .echo import open_loop
from .scale_tenants import tenant_fns_spec, tenant_mac
from .setups import CLIENT_IP, CLIENT_MAC, Calibration, SERVER_IP

SCENARIOS = ("firewall", "lb", "nat", "ddos")

#: Token bucket used by the ddos scenario: at 25 Gbps offered load the
#: whole burst arrives in well under a refill interval, so each flow
#: passes exactly ``burst`` packets and drops the rest.
DDOS_RATE_PPS = 2_000
DDOS_BURST = 20

#: UDP destination ports the firewall scenario blocks (of 7001..7004).
BLOCKED_PORTS = (7003, 7004)

#: External -> internal destination-port translations for nat.
NAT_TRANSLATIONS = {7001: 7101, 7002: 7102}


def prog_spec(scenario: str) -> TopologySpec:
    """The testbed for one scenario: echo functions behind one FLD.

    All scenarios ingress at the first function's vPort (its MAC is the
    flows' destination); ``lb`` adds two backend echo functions whose
    vPorts the redirected packets loop back into.
    """
    if scenario == "lb":
        # Every packet ingresses at the LB front end, so the 64-stride
        # receive-SRAM budget is carved asymmetrically: half to the LB
        # binding, a quarter to each backend (which only ever sees its
        # share of the redirected traffic).
        fns = (("lb", "echo", 32), ("b0", "echo", 16), ("b1", "echo", 16))
    else:
        fns = (("tenant0", "echo", 64),)
    return tenant_fns_spec(f"prog-{scenario}", fns)


def _scenario_flows(scenario: str) -> List[Flow]:
    ports = {"firewall": 4, "lb": 4, "nat": 2, "ddos": 2}[scenario]
    return [Flow(CLIENT_MAC, tenant_mac(0), CLIENT_IP, SERVER_IP,
                 7000, 7001 + i)
            for i in range(ports)]


def _scenario_program(scenario: str):
    """(program, map specs) — each map spec is (capacity, entries)."""
    if scenario == "firewall":
        return firewall(), [(64, {port: 1 for port in BLOCKED_PORTS})]
    if scenario == "lb":
        backends = {0: mac_to_int(tenant_mac(1)),
                    1: mac_to_int(tenant_mac(2))}
        return load_balancer(2, vport=2), [(64, backends)]
    if scenario == "nat":
        return nat(), [(64, dict(NAT_TRANSLATIONS))]
    if scenario == "ddos":
        return ddos_filter(DDOS_RATE_PPS, DDOS_BURST), [(256, {}),
                                                        (256, {})]
    raise ValueError(f"unknown scenario {scenario!r} "
                     f"(one of {', '.join(SCENARIOS)})")


def prog_latency_us(spans, name: str) -> Dict:
    """Mean/p99 of the ``prog.<name>`` span durations, in microseconds."""
    stage = f"prog.{name}"
    durations = sorted(
        span.duration
        for trace in spans.traces
        for span in trace.spans
        if span.stage == stage and span.end is not None)
    if not durations:
        return {"spans": 0, "mean_us": None, "p99_us": None}
    p99 = durations[min(len(durations) - 1,
                        int(round(0.99 * (len(durations) - 1))))]
    return {"spans": len(durations),
            "mean_us": sum(durations) / len(durations) * 1e6,
            "p99_us": p99 * 1e6}


def build(sim, cal: Calibration, scenario: str = "firewall"):
    """The scenario's testbed with its program loaded and attached.

    The program and its maps are created, populated and attached (and,
    by :func:`drive`, detached and destroyed) strictly through the
    firmware command unit — the lifecycle a real driver would drive.
    """
    program, map_specs = _scenario_program(scenario)
    testbed = build_topology(sim, prog_spec(scenario), cal=cal)
    runtime = testbed.fld("server.fld")
    ctrl = runtime.ctrl
    maps = []
    for capacity, entries in map_specs:
        prog_map = ctrl.create_prog_map(capacity=capacity)
        for key, value in entries.items():
            ctrl.map_set(prog_map, key, value)
        maps.append(prog_map)
    prog = ctrl.create_prog(program, maps)
    ingress = testbed.accel("lb" if scenario == "lb" else "tenant0")
    binding = runtime.rx_binding_of(ingress.rq)
    ctrl.attach_prog(runtime.fld, prog, "rx", binding)
    flows = _scenario_flows(scenario)
    loadgen = LoadGenerator(sim, testbed.host_qp("client"), flows[0])
    return SimpleNamespace(scenario=scenario, program=program, prog=prog,
                           maps=maps, runtime=runtime, binding=binding,
                           flows=flows, loadgen=loadgen, testbed=testbed)


def drive(sim, setup, count: int, size: int) -> Dict:
    """Offer ``count`` frames round-robin over the scenario's flows, then
    read the verdicts back, detach the program and destroy it."""
    # The lb hairpin sends every packet through the shared FLD twice
    # (LB binding, then backend binding), so its lossless offered load
    # is half the single-pass scenarios'.
    result = open_loop(sim, setup.loadgen, count, size,
                       pace_bps=12.5e9 if setup.scenario == "lb" else 25e9,
                       flows=setup.flows)
    runtime, ctrl, testbed = setup.runtime, setup.runtime.ctrl, setup.testbed
    info = ctrl.query(setup.prog)
    per_fn = [{"fn": fn_spec.name, "vport": fn_spec.vport,
               "accel_packets": testbed.accel(fn_spec.name)
               .accel.stats_processed}
              for fn_spec in testbed.spec.accel_fns]
    map_stats = [prog_map.stats_dict() for prog_map in setup.maps]
    # Detach unpins the program; destroy order (program before maps)
    # satisfies the dependency refcounts.
    ctrl.detach_prog(runtime.fld, "rx", setup.binding)
    ctrl.destroy(setup.prog)
    for prog_map in setup.maps:
        ctrl.destroy(prog_map)
    lat = setup.loadgen.latency
    return {
        "scenario": setup.scenario,
        "program": setup.program.name,
        "count": count,
        **result,
        "rtt_mean_us": lat.mean * 1e6 if len(lat) else None,
        "rtt_p99_us": lat.pct(99.0) * 1e6 if len(lat) else None,
        "verdicts": info["counters"],
        "per_fn": per_fn,
        "maps": map_stats,
    }


# -- NULL fast path ------------------------------------------------------

def build_null(sim, cal: Calibration, touch_prog: bool = False):
    """The firewall testbed with no program attached.

    With ``touch_prog=True`` a passthrough program is created, attached,
    detached and destroyed *before* any traffic; the engine restores the
    datapath hooks to ``None`` when the last program detaches.
    """
    testbed = build_topology(sim, prog_spec("firewall"), cal=cal)
    runtime = testbed.fld("server.fld")
    if touch_prog:
        fn = testbed.accel("tenant0")
        binding = runtime.rx_binding_of(fn.rq)
        prog = runtime.ctrl.create_prog(passthrough(), [])
        runtime.ctrl.attach_prog(runtime.fld, prog, "rx", binding)
        runtime.ctrl.detach_prog(runtime.fld, "rx", binding)
        runtime.ctrl.destroy(prog)
    flows = _scenario_flows("firewall")
    loadgen = LoadGenerator(sim, testbed.host_qp("client"), flows[0])
    return SimpleNamespace(flows=flows, loadgen=loadgen, testbed=testbed)


def drive_null(sim, setup, count: int, size: int) -> Dict:
    """A single-tenant echo run, fingerprinted for bit-identity checks."""
    result = open_loop(sim, setup.loadgen, count, size, flows=setup.flows)
    lat = setup.loadgen.latency
    return {
        "sent": result["sent"],
        "received": result["received"],
        "gbps": result["gbps"],
        "mpps": result["mpps"],
        "rtt_mean": lat.mean if len(lat) else None,
        "rtt_p99": lat.pct(99.0) if len(lat) else None,
        "accel_packets": setup.testbed.accel("tenant0").accel.stats_processed,
    }
