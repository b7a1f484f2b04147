"""Run one experiment under full telemetry and export its trace.

This is the implementation behind ``python -m repro trace <experiment>``:
it builds an enabled :class:`~repro.telemetry.sink.Telemetry`, hands it
to the experiment (which passes it into its :class:`repro.sim.Simulator`),
and writes the recorded span/instant events as Chrome-trace JSON that
``chrome://tracing`` or https://ui.perfetto.dev load directly.

Kept out of :mod:`repro.telemetry`'s ``__init__`` on purpose: importing
the experiments pulls in the whole simulated datapath, while the rest of
the telemetry package stays dependency-free so :mod:`repro.sim` can
import it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .sink import Telemetry


def _run_fig7b(telemetry: Telemetry, count: int, size: int) -> Dict:
    from ..experiments.echo import echo_throughput
    return echo_throughput("flde-remote", size, count=count,
                           telemetry=telemetry)


def _run_table6(telemetry: Telemetry, count: int, size: int) -> Dict:
    from ..experiments.echo import echo_latency
    return echo_latency("flde", count=count, frame_size=size,
                        telemetry=telemetry)


def _run_forwarding(telemetry: Telemetry, count: int, size: int) -> Dict:
    from ..experiments.echo import trace_forwarding
    return trace_forwarding("flde", count=count, telemetry=telemetry)


def _run_fldr(telemetry: Telemetry, count: int, size: int) -> Dict:
    from ..experiments.echo import fldr_throughput
    return fldr_throughput(size, count=count, telemetry=telemetry)


# experiment name -> (runner, default count, default size)
TRACEABLE: Dict[str, Tuple[Callable[[Telemetry, int, int], Dict], int, int]] = {
    "fig7b": (_run_fig7b, 700, 256),
    "table6": (_run_table6, 300, 64),
    "forwarding": (_run_forwarding, 2000, 0),
    "fldr": (_run_fldr, 200, 1024),
}


def traceable_experiments() -> Dict[str, str]:
    """Name -> short description, for ``--list`` and error messages."""
    return {
        "fig7b": "FLD-E remote echo throughput (one Fig. 7b point)",
        "table6": "FLD-E closed-loop echo latency (Table 6)",
        "forwarding": "mixed-size trace forwarding (§8.1.1)",
        "fldr": "FLD-R RDMA echo throughput (§8.1.2)",
    }


def run_traced(experiment: str, output: str,
               count: Optional[int] = None, size: Optional[int] = None,
               metrics_output: Optional[str] = None,
               max_trace_events: int = 1_000_000) -> Dict:
    """Run ``experiment`` with telemetry on; write the Chrome trace.

    Returns a summary dict: the experiment's own result row plus event
    and metric counts.  ``metrics_output``, when given, receives the
    registry's JSON export alongside the trace.
    """
    try:
        runner, default_count, default_size = TRACEABLE[experiment]
    except KeyError:
        known = ", ".join(sorted(TRACEABLE))
        raise ValueError(
            f"unknown traceable experiment {experiment!r}; "
            f"choose from: {known}") from None
    telemetry = Telemetry(trace=True, max_trace_events=max_trace_events)
    result = runner(telemetry,
                    count if count is not None else default_count,
                    size if size is not None else default_size)
    telemetry.tracer.write(output)
    if metrics_output is not None:
        with open(metrics_output, "w", encoding="utf-8") as handle:
            handle.write(telemetry.metrics.to_json())
    return {
        "experiment": experiment,
        "result": result,
        "trace_events": len(telemetry.tracer),
        "trace_dropped": telemetry.tracer.dropped,
        "metrics": len(telemetry.metrics),
        "output": output,
    }


# ---------------------------------------------------------------------------
# Object-table dump (``python -m repro objects <experiment>``)
# ---------------------------------------------------------------------------
#
# Every NIC resource an experiment uses is created through the firmware
# command channel, so the per-node object tables are a complete
# inventory of the control-plane state an experiment sets up.  These
# runners elaborate the experiment's testbed — construction is
# synchronous, no simulation time elapses — and dump the tables.


def object_experiments() -> Dict[str, str]:
    """Name -> short description, for ``--list`` and error messages."""
    return {
        "echo": "FLD-E remote echo testbed (client + server + FLD)",
        "cpu-echo": "CPU-baseline remote echo testbed (no FLD)",
        "forwarding": "FLD-E forwarding testbed (4 engine units)",
        "fldr": "FLD-R RDMA echo testbed (RC QP + shared RQ)",
    }


def run_objects(experiment: str) -> Dict:
    """Elaborate ``experiment``'s testbed; dump each node's firmware
    object table (no packets are sent).

    Returns ``{"experiment", "nodes": {node -> [row, ...]}}`` where each
    row is an :meth:`ObjectTable.rows` dict (handle, kind, label,
    refcount, deps).
    """
    from ..experiments.setups import Calibration, cpu_echo_remote, \
        flde_echo_remote, fldr_echo
    from ..sim import Simulator
    builders: Dict[str, Callable] = {
        "echo": lambda sim, cal: flde_echo_remote(sim, cal),
        "cpu-echo": lambda sim, cal: cpu_echo_remote(sim, cal),
        "forwarding": lambda sim, cal: flde_echo_remote(sim, cal, units=4),
        "fldr": lambda sim, cal: fldr_echo(sim, cal),
    }
    try:
        builder = builders[experiment]
    except KeyError:
        known = ", ".join(sorted(builders))
        raise ValueError(
            f"unknown objects experiment {experiment!r}; "
            f"choose from: {known}") from None
    sim = Simulator()
    setup = builder(sim, Calibration())
    return {
        "experiment": experiment,
        "nodes": setup.testbed.objects(),
    }


# ---------------------------------------------------------------------------
# Latency attribution (``python -m repro latency <experiment>``)
# ---------------------------------------------------------------------------
#
# Unlike ``run_traced``, these runners build the experiment setup
# themselves instead of calling :mod:`repro.experiments.echo`'s entry
# points: the invariant auditor needs live handles on the FLD cores and
# NICs after quiesce, and the experiment functions only return result
# rows.  The simulation driven here is the same one those entry points
# run.


def _drive(sim, process, until: float) -> None:
    sim.spawn(process)
    sim.run(until=until)


def _echo_setup(telemetry: Telemetry, mode: str):
    from ..experiments.setups import Calibration, cpu_echo_remote, \
        flde_echo_remote
    from ..sim import Simulator
    sim = Simulator(telemetry=telemetry)
    cal = Calibration()
    if mode == "flde":
        setup = flde_echo_remote(sim, cal)
        flds = [setup.runtime.fld]
    elif mode == "flde-forwarding":
        setup = flde_echo_remote(sim, cal, units=4)
        flds = [setup.runtime.fld]
    else:
        setup = cpu_echo_remote(sim, cal, jitter=True)
        flds = []
    nics = [setup.client.nic]
    if setup.server is not setup.client:
        nics.append(setup.server.nic)
    return sim, setup, flds, nics


def _lat_closed_loop(telemetry: Telemetry, count: int, size: int,
                     mode: str):
    sim, setup, flds, nics = _echo_setup(telemetry, mode)
    loadgen = setup.loadgen

    def run(sim):
        yield from loadgen.run_closed_loop(size, count, window=1)
        yield from loadgen.drain()

    _drive(sim, run(sim), until=10.0)
    summary = loadgen.latency.summary()
    result = {
        "mode": mode,
        "count": len(loadgen.latency),
        "mean_us": summary["mean"] * 1e6,
        "median_us": summary["median"] * 1e6,
        "p99_us": summary["p99"] * 1e6,
    }
    return result, flds, nics


def _lat_echo_flde(telemetry: Telemetry, count: int, size: int):
    return _lat_closed_loop(telemetry, count, size, "flde")


def _lat_echo_cpu(telemetry: Telemetry, count: int, size: int):
    return _lat_closed_loop(telemetry, count, size, "cpu")


def _lat_forwarding(telemetry: Telemetry, count: int, size: int):
    from ..net import ImcDatacenterSizes
    sim, setup, flds, nics = _echo_setup(telemetry, "flde-forwarding")
    loadgen = setup.loadgen
    sizes = ImcDatacenterSizes(seed=7).sizes(count)

    def run(sim):
        yield from loadgen.run_open_loop(sizes)
        yield from loadgen.drain()

    _drive(sim, run(sim), until=5.0)
    result = {
        "mode": "flde",
        "sent": loadgen.stats_sent,
        "received": loadgen.stats_received,
        "mpps": loadgen.rx_meter.mpps(),
    }
    return result, flds, nics


# experiment name -> (runner, default count, default size,
#                     expect fully-drained traces)
LATENCY_TRACEABLE: Dict[str, Tuple[Callable, int, int, bool]] = {
    "echo": (_lat_echo_flde, 300, 64, True),
    "cpu-echo": (_lat_echo_cpu, 300, 64, True),
    "forwarding": (_lat_forwarding, 800, 0, False),
}


def latency_experiments() -> Dict[str, str]:
    """Name -> short description, for ``--list`` and error messages."""
    return {
        "echo": "FLD-E closed-loop echo, per-stage breakdown (Table 6)",
        "cpu-echo": "CPU-baseline closed-loop echo breakdown",
        "forwarding": "mixed-size trace forwarding breakdown (open loop)",
    }


def run_latency(experiment: str, count: Optional[int] = None,
                size: Optional[int] = None, sample_rate: int = 1,
                json_output: Optional[str] = None,
                max_traces: int = 200_000) -> Dict:
    """Run ``experiment`` with span tracing; build the attribution report.

    Returns ``{"experiment", "result", "report", "violations", ...}``.
    The report is the exact-attribution kind (:func:`build_report`): for
    every traced packet the per-stage sums reconcile with its end-to-end
    latency.  ``violations`` comes from the invariant auditor run over
    the span stream, the FLD cores and the NICs after quiesce.  With
    ``json_output`` the report, the violations and the full span trees
    are written as one JSON document.
    """
    try:
        runner, default_count, default_size, expect_complete = \
            LATENCY_TRACEABLE[experiment]
    except KeyError:
        known = ", ".join(sorted(LATENCY_TRACEABLE))
        raise ValueError(
            f"unknown latency experiment {experiment!r}; "
            f"choose from: {known}") from None
    telemetry = Telemetry(trace=False, spans=True,
                          span_sample_rate=sample_rate,
                          max_traces=max_traces)
    result, flds, nics = runner(
        telemetry,
        count if count is not None else default_count,
        size if size is not None else default_size)

    from .audit import audit_all
    from .latency import build_report
    # Open-loop runs may legitimately quiesce with dropped (hence
    # unfinished) traces; closed-loop runs must drain completely.
    fabrics = list({id(nic.fabric): nic.fabric for nic in nics}.values())
    violations = audit_all(spans=telemetry.spans, flds=flds, nics=nics,
                           fabrics=fabrics,
                           expect_complete=expect_complete)
    report = build_report(telemetry.spans, registry=telemetry.metrics)
    spans = telemetry.spans
    summary = {
        "experiment": experiment,
        "sample_rate": sample_rate,
        "result": result,
        "report": report,
        "violations": [v.to_dict() for v in violations],
        "traces": len(spans),
        "sampler": {"seen": spans.seen, "sampled": spans.sampled,
                    "skipped": spans.skipped, "dropped": spans.dropped},
    }
    if json_output is not None:
        import json
        document = dict(summary)
        document["spans"] = telemetry.spans.to_dict()
        with open(json_output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
        summary["json_output"] = json_output
    return summary


# ---------------------------------------------------------------------------
# Simulator profiling (``python -m repro profile <experiment>``)
# ---------------------------------------------------------------------------
#
# Same live-handle pattern as the latency runners: the auditor needs the
# FLD cores and NICs after quiesce, and the profiler report needs the
# delivered-packet count to express events per packet.


def _prof_throughput(telemetry: Telemetry, count: int, size: int,
                     mode: str):
    sim, setup, flds, nics = _echo_setup(telemetry, mode)
    loadgen = setup.loadgen
    # Offer line rate for this size, exactly as the Fig. 7b points do.
    rate_pps = 25e9 / ((size + 24) * 8)

    def run(sim):
        yield from loadgen.run_open_loop([size] * count, rate_pps=rate_pps)
        yield from loadgen.drain()

    _drive(sim, run(sim), until=2.0)
    result = {
        "mode": mode,
        "size": size,
        "sent": loadgen.stats_sent,
        "received": loadgen.stats_received,
        "gbps": loadgen.rx_meter.gbps(wire_overhead_per_packet=24),
        "mpps": loadgen.rx_meter.mpps(),
    }
    return result, flds, nics, loadgen.stats_received


def _prof_echo(telemetry: Telemetry, count: int, size: int):
    return _prof_throughput(telemetry, count, size, "flde")


def _prof_cpu_echo(telemetry: Telemetry, count: int, size: int):
    return _prof_throughput(telemetry, count, size, "cpu")


def _prof_forwarding(telemetry: Telemetry, count: int, size: int):
    from ..net import ImcDatacenterSizes
    sim, setup, flds, nics = _echo_setup(telemetry, "flde-forwarding")
    loadgen = setup.loadgen
    sizes = ImcDatacenterSizes(seed=7).sizes(count)

    def run(sim):
        yield from loadgen.run_open_loop(sizes)
        yield from loadgen.drain()

    _drive(sim, run(sim), until=5.0)
    result = {
        "mode": "flde",
        "sent": loadgen.stats_sent,
        "received": loadgen.stats_received,
        "mpps": loadgen.rx_meter.mpps(),
    }
    return result, flds, nics, loadgen.stats_received


# experiment name -> (runner, default count, default size)
PROFILEABLE: Dict[str, Tuple[Callable, int, int]] = {
    "echo": (_prof_echo, 600, 256),
    "cpu-echo": (_prof_cpu_echo, 600, 256),
    "forwarding": (_prof_forwarding, 1500, 0),
}


def profile_experiments() -> Dict[str, str]:
    """Name -> short description, for ``--list`` and error messages."""
    return {
        "echo": "FLD-E remote echo, per-stage event accounting",
        "cpu-echo": "CPU-baseline remote echo event accounting",
        "forwarding": "mixed-size trace forwarding event accounting",
    }


def run_profile(experiment: str, count: Optional[int] = None,
                size: Optional[int] = None, wallclock: bool = False,
                json_output: Optional[str] = None,
                collapsed_output: Optional[str] = None,
                top: int = 10) -> Dict:
    """Run ``experiment`` under the simulator profiler.

    Returns ``{"experiment", "result", "profile", "violations", ...}``.
    The profile reports per-stage heap-event counts (which sum exactly
    to the engine's total event count), events per delivered packet, a
    heap-depth timeline and — with ``wallclock=True`` — per-callsite
    wall-clock totals plus collapsed-stack lines for flamegraph tools.
    ``violations`` comes from the invariant auditor run over the FLD
    cores and NICs after quiesce.
    """
    try:
        runner, default_count, default_size = PROFILEABLE[experiment]
    except KeyError:
        known = ", ".join(sorted(PROFILEABLE))
        raise ValueError(
            f"unknown profile experiment {experiment!r}; "
            f"choose from: {known}") from None
    telemetry = Telemetry(trace=False, profile=True,
                          profile_wallclock=wallclock)
    result, flds, nics, delivered = runner(
        telemetry,
        count if count is not None else default_count,
        size if size is not None else default_size)

    from .audit import audit_all
    fabrics = list({id(nic.fabric): nic.fabric for nic in nics}.values())
    violations = audit_all(flds=flds, nics=nics, fabrics=fabrics)
    profiler = telemetry.profiler
    summary = {
        "experiment": experiment,
        "result": result,
        "delivered": delivered,
        "profile": profiler.report(delivered=delivered),
        "engine_events": telemetry.snapshot()["sim.events.processed"],
        "violations": [v.to_dict() for v in violations],
    }
    if json_output is not None:
        import json
        with open(json_output, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
        summary["json_output"] = json_output
    if collapsed_output is not None:
        with open(collapsed_output, "w", encoding="utf-8") as handle:
            handle.write("\n".join(profiler.collapsed_stacks()) + "\n")
        summary["collapsed_output"] = collapsed_output
    # Rendered after the artifacts so the text can't drift from them.
    summary["rendered"] = profiler.render(delivered=delivered, top=top)
    return summary


def run_latency_sweep(experiment: str = "table6",
                      jobs: int = 1, cache_dir: Optional[str] = None,
                      count: Optional[int] = None) -> Dict:
    """Merged attribution across sweep points, via the result cache.

    Runs the experiment's standard sweep with ``telemetry="spans"``;
    each point feeds its ``spans.stage.*`` histograms into the cached
    metrics export, and the merged registry is folded back into an
    approximate report (:func:`report_from_registry`).  Warm runs merge
    entirely from cache without simulating.
    """
    from ..experiments.echo import fig7b_points, forwarding_points, \
        table6_points
    from ..sweep import SweepCache, run_sweep
    from .latency import report_from_registry
    builders: Dict[str, Callable[[], List]] = {
        "table6": lambda: table6_points(
            count=count if count is not None else 600,
            telemetry="spans"),
        "fig7b": lambda: fig7b_points(
            count=count if count is not None else 700,
            telemetry="spans"),
        "forwarding": lambda: forwarding_points(
            count=count if count is not None else 2000,
            telemetry="spans"),
    }
    try:
        points = builders[experiment]()
    except KeyError:
        known = ", ".join(sorted(builders))
        raise ValueError(
            f"unknown latency sweep {experiment!r}; "
            f"choose from: {known}") from None
    cache = SweepCache(cache_dir) if cache_dir is not None else None
    sweep = run_sweep(points, jobs=jobs, cache=cache)
    if sweep.metrics is None:
        raise RuntimeError("sweep produced no telemetry to merge")
    report = report_from_registry(sweep.metrics)
    return {
        "experiment": experiment,
        "points": sweep.points,
        "computed": sweep.computed,
        "cache_hits": sweep.cache_hits,
        "rows": sweep.rows,
        "report": report,
    }
