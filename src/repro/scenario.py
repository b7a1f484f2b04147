"""One declaration per experiment run, and the one driver that runs it.

A :class:`Scenario` row builds a testbed (``build(sim, cal, **shape)``;
the setup carries ``.testbed``) and drives it (``drive(sim, setup,
count, size, **traffic)`` returns the result row).  :func:`run`
executes a row and is the only code that makes and drives a simulator
for a testbed; every experiment family's entry points are calls of it.
:func:`observe`, the body of ``python -m repro trace|latency|profile|
objects``, runs and audits (:func:`audit`) the same rows: an observed
run is the sweep's own run, not a copy of it.
"""

from __future__ import annotations

import json
from functools import partial
from types import SimpleNamespace
from typing import (Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Tuple)

from .accelerators.zuc import HEADER_SIZE as ZUC_HEADER
from .experiments import (cpu_mediated, defrag, echo, iot, prog, scaling,
                          scale_tenants, zuc)
from .experiments.setups import (
    FLDR_BUFFER,
    Calibration,
    cpu_echo_remote,
    flde_echo_local,
    flde_echo_remote,
    fldr_echo,
    zuc_service,
)
from .sim import Simulator
from .telemetry import Telemetry, Violation, audit_spans, build_report


#: The ``size`` a row can carry, inclusive: an Ethernet frame from the
#: 64 B minimum to the 2048 B host receive buffer, an FLD-R message up
#: to the client's buffer, a ZUC payload up to that less its header.
FRAME_SIZES = (64, 2048)
MESSAGE_SIZES = (0, FLDR_BUFFER)


class Scenario(NamedTuple):
    """One experiment point: how it is built, driven and audited."""

    description: str
    build: Callable[..., SimpleNamespace]
    drive: Callable[..., Dict]
    #: None when the traffic is timed rather than counted.
    count: Optional[int]
    #: None when the traffic sets its own frame sizes (a trace).
    size: Optional[int]
    #: Closed loop: every packet's trace must finish by quiesce.
    drained: bool
    #: The standard sweep (``latency <name> --sweep``), as a points factory.
    sweep: Optional[Callable[..., List]] = None
    #: The row reports its testbed's audit as a ``violations`` count.
    audited: bool = False
    #: The smallest and largest ``size`` the row carries.
    sizes: Tuple[int, int] = FRAME_SIZES


def _prog(program: str, description: str) -> Scenario:
    return Scenario(f"match-action {program}: {description}",
                    partial(prog.build, scenario=program), prog.drive,
                    400, 256, True, audited=True)


SCENARIOS: Dict[str, Scenario] = {
    "fig7b": Scenario(
        "FLD-E remote echo throughput (one Fig. 7b point)",
        flde_echo_remote, partial(echo.drive_throughput, mode="flde-remote"),
        700, 256, False, partial(echo.fig7b_points, count=700)),
    "fig7b-local": Scenario(
        "FLD-E local echo throughput, eSwitch loopback (Fig. 7b)",
        flde_echo_local, partial(echo.drive_throughput, mode="flde-local"),
        700, 256, False),
    "fig7b-cpu": Scenario(
        "CPU-baseline remote echo throughput (Fig. 7b)",
        partial(cpu_echo_remote, jitter=False),
        partial(echo.drive_throughput, mode="cpu-remote"), 700, 256, False),
    "table6": Scenario(
        "FLD-E closed-loop echo latency (Table 6)",
        flde_echo_remote, partial(echo.drive_closed_loop, mode="flde"),
        300, 64, True, partial(echo.table6_points, count=600)),
    "table6-cpu": Scenario(
        "CPU-baseline closed-loop echo latency, OS jitter on (Table 6)",
        partial(cpu_echo_remote, jitter=True),
        partial(echo.drive_closed_loop, mode="cpu"), 300, 64, True),
    "forwarding": Scenario(
        "FLD-E mixed-size trace forwarding, 4 echo units (§8.1.1)",
        partial(flde_echo_remote, units=4),
        partial(echo.drive_trace, mode="flde"), 2000, None, False,
        partial(echo.forwarding_points, count=2000)),
    "forwarding-cpu": Scenario(
        "one CPU core forwarding the same trace (§8.1.1)",
        partial(cpu_echo_remote, jitter=False),
        partial(echo.drive_trace, mode="cpu"), 2000, None, False),
    "fldr": Scenario(
        "FLD-R RDMA echo throughput (§8.1.2)",
        fldr_echo, partial(echo.drive_fldr, mode="fldr-remote"),
        200, 1024, True, sizes=MESSAGE_SIZES),
    "fldr-local": Scenario(
        "FLD-R RDMA echo throughput, one node (§8.1.2)",
        partial(fldr_echo, local=True),
        partial(echo.drive_fldr, mode="fldr-local"), 200, 1024, True,
        sizes=MESSAGE_SIZES),
    "fig7c": Scenario(
        "FLD-R echo latency at one offered load (one Fig. 7c point)",
        fldr_echo, echo.drive_load, 800, 1024, True, sizes=MESSAGE_SIZES),
    "fig7c-local": Scenario(
        "FLD-R echo latency at one offered load, one node (Fig. 7c)",
        partial(fldr_echo, local=True), echo.drive_load, 800, 1024, True,
        sizes=MESSAGE_SIZES),
    "fig8a": Scenario(
        "ZUC encryption over FLD-R, 8 units (one Fig. 8a point)",
        zuc_service, zuc.drive, 300, 512, True,
        sizes=(0, FLDR_BUFFER - ZUC_HEADER)),
    "iot-line-rate": Scenario(
        "IoT token authentication at 25 GbE line rate, timed (§8.2.3)",
        iot.build, iot.drive_line_rate, None, 512, False),
    "iot-isolation": Scenario(
        "IoT tenants at 8 + 16 Gb/s on a 12 Gb/s accelerator, unshaped, "
        "timed (§8.2.3)",
        partial(iot.build, isolation=True), iot.drive_isolation, None, 1024,
        False),
    "defrag": Scenario(
        "hw-defrag: IP reassembly of 60 TCP flows in FLD (§8.2.2)",
        defrag.build, defrag.drive, 600, None, False),
    "scale-tenants": Scenario(
        "4 mixed-kind tenant accelerator functions on one FLD (§5.4)",
        scale_tenants.build, scale_tenants.drive, 400, 256, False,
        audited=True),
    "prog-firewall": _prog("firewall", "a blocklist drops two of four "
                                       "ports"),
    "prog-lb": _prog("lb", "an L4 load balancer over two backends"),
    "prog-nat": _prog("nat", "destination-port translation"),
    "prog-ddos": _prog("ddos", "a token bucket per destination port"),
    "prog-null": Scenario(
        "single-tenant echo, no match-action program attached",
        prog.build_null, prog.drive_null, 200, 256, True, audited=True),
    "cpu-mediated": Scenario(
        "echo through a host CPU relaying every packet (§3, Fig. 2a)",
        cpu_mediated.build, cpu_mediated.drive, 1200, 256, False),
    "scaling": Scenario(
        "4 FLD cores behind NIC RSS at 100 GbE (§9)",
        scaling.build, scaling.drive, 2000, 1500, False),
}

#: Command-specific names: (command, name) -> (scenario, default count;
#: None keeps the scenario's).
ALIASES: Dict[Tuple[str, str], Tuple[str, Optional[int]]] = {
    ("latency", "echo"): ("table6", 300),
    ("latency", "cpu-echo"): ("table6-cpu", 300),
    ("latency", "forwarding"): ("forwarding", 800),
    ("profile", "echo"): ("fig7b", 600),
    ("profile", "cpu-echo"): ("fig7b-cpu", 600),
    ("profile", "forwarding"): ("forwarding", 1500),
    ("objects", "echo"): ("fig7b", None),
    ("objects", "cpu-echo"): ("fig7b-cpu", None),
}


def resolve(kind: str, name: str, size: Optional[int] = None,
            count: Optional[int] = None) -> Tuple[str, Optional[int]]:
    """``kind``'s ``name`` -> (scenario name, default count or None)."""
    target, default = ALIASES.get((kind, name), (name, None))
    if target not in SCENARIOS:
        known = list(SCENARIOS) + [alias for command, alias in ALIASES
                                   if command == kind
                                   and alias not in SCENARIOS]
        raise ValueError(f"unknown experiment {name!r} for {kind}; "
                         f"choose from: {', '.join(known)}")
    if size is not None and SCENARIOS[target].size is None:
        raise ValueError(f"{name} sets its own frame sizes; "
                         f"a size does not apply")
    if count is not None and SCENARIOS[target].count is None:
        raise ValueError(f"{name} runs timed traffic; "
                         f"a count does not apply")
    # A library run may send nothing; an observed run needs packets.
    if kind != "run" and count is not None and count < 1:
        raise ValueError(f"{name} needs a count of at least 1; got {count}")
    low, high = SCENARIOS[target].sizes
    if size is not None and not low <= size <= high:
        raise ValueError(f"{name} carries sizes of {low} to {high} B; "
                         f"got {size}")
    return target, default


def elaborate(name: str, cal: Optional[Calibration] = None,
              telemetry=None, shape: Optional[Mapping] = None):
    """Build ``name``'s testbed on a fresh simulator; nothing runs.

    ``shape`` reaches the row's build (``tenants``, the defrag
    ``config``, the FLD ``cores``, iot's ``shaped``, prog's
    ``touch_prog``).
    """
    sim = Simulator(telemetry=telemetry)
    return sim, SCENARIOS[name].build(sim, cal or Calibration(),
                                      **(shape or {}))


def run(name: str, count: Optional[int] = None, size: Optional[int] = None,
        cal: Optional[Calibration] = None, telemetry=None,
        shape: Optional[Mapping] = None, **traffic):
    """Build and drive scenario ``name``; returns (result row, testbed).

    ``shape`` reaches the row's build (see :func:`elaborate`) and
    ``traffic`` its drive (``seed`` for a trace, ``window`` for FLD-R,
    ``rate`` for Fig. 7c, ``duration`` for timed traffic).
    """
    resolve("run", name, size, count)
    scenario = SCENARIOS[name]
    sim, setup = elaborate(name, cal, telemetry, shape)
    row = scenario.drive(sim, setup,
                         scenario.count if count is None else count,
                         scenario.size if size is None else size, **traffic)
    if scenario.audited:
        row["violations"] = len(setup.testbed.quiesce())
    return row, setup.testbed


def audit(name: str, testbed, telemetry=None) -> List[Violation]:
    """Scenario ``name``'s testbed after quiesce, and its span stream
    when spans are on."""
    violations = testbed.quiesce()
    if telemetry is not None and telemetry.spans.enabled:
        violations += audit_spans(
            telemetry.spans, expect_complete=SCENARIOS[name].drained)
    return violations


def sweep_points(name: str, count: Optional[int] = None) -> List:
    """Scenario ``name``'s standard sweep, span-instrumented."""
    factory = SCENARIOS[name].sweep
    if factory is None:
        raise ValueError(f"{name} has no standard sweep")
    return factory(telemetry="spans",
                   **({} if count is None else {"count": count}))


def _write(path: Optional[str], text: str) -> None:
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def observe(kind: str, name: str, count: Optional[int] = None,
            size: Optional[int] = None, output: Optional[str] = None, *,
            metrics_output: Optional[str] = None, sample_rate: int = 1,
            wallclock: bool = False, collapsed_output: Optional[str] = None,
            top: int = 10) -> Dict:
    """Run ``kind``'s ``name`` observed; audit it; write its artifact.

    ``trace`` writes a Chrome trace to ``output``, ``latency`` the
    per-stage attribution report and span trees, ``profile`` the
    profiler's report (JSON to ``output``, for both); ``objects`` only
    elaborates the testbed and dumps its firmware object tables.  The
    audit covers the testbed after quiesce, the span stream when spans
    are on, and the profiler's stage sums.  Returns the summary.
    """
    target, default_count = resolve(kind, name, size, count)
    summary: Dict = {"experiment": name}
    if kind == "objects":
        summary["nodes"] = elaborate(target)[1].testbed.objects()
        _write(output, json.dumps(summary, indent=2))
        return summary
    telemetry = {
        "trace": lambda: Telemetry(trace=True),
        "latency": lambda: Telemetry(trace=False, spans=True,
                                     span_sample_rate=sample_rate,
                                     max_traces=200_000),
        "profile": lambda: Telemetry(trace=False, profile=True,
                                     profile_wallclock=wallclock),
    }[kind]()
    result, testbed = run(target, default_count if count is None else count,
                          size, telemetry=telemetry)
    violations = audit(target, testbed, telemetry)
    spans = telemetry.spans
    summary["result"] = result
    if kind == "trace":
        telemetry.tracer.write(output)
        if metrics_output is not None:
            _write(metrics_output, telemetry.metrics.to_json())
        summary.update(trace_events=len(telemetry.tracer),
                       trace_dropped=telemetry.tracer.dropped,
                       metrics=len(telemetry.metrics))
    elif kind == "latency":
        summary.update(
            sample_rate=sample_rate,
            report=build_report(spans, registry=telemetry.metrics),
            traces=len(spans),
            sampler={"seen": spans.seen, "sampled": spans.sampled,
                     "skipped": spans.skipped, "dropped": spans.dropped})
    else:
        profiler = telemetry.profiler
        delivered = result.get("received", result.get("count"))
        summary.update(delivered=delivered,
                       profile=profiler.report(delivered=delivered),
                       engine_events=telemetry.snapshot()[
                           "sim.events.processed"])
        stage_sum = sum(stage["events"]
                        for stage in summary["profile"]["stages"].values())
        if stage_sum != summary["engine_events"]:
            violations.append(Violation(
                "event-attribution", "profiler",
                f"stages sum to {stage_sum} events, the engine processed "
                f"{summary['engine_events']}"))
    summary["violations"] = [v.to_dict() for v in violations]
    if kind == "latency":
        _write(output, json.dumps(dict(summary, spans=spans.to_dict()),
                                  indent=2))
    elif kind == "profile":
        _write(output, json.dumps(summary, indent=2))
        if collapsed_output is not None:
            _write(collapsed_output,
                   "\n".join(profiler.collapsed_stacks()) + "\n")
        # Rendered after the artifacts so the text can't drift from them.
        summary["rendered"] = profiler.render(delivered=delivered, top=top)
    summary["output"] = output
    return summary
