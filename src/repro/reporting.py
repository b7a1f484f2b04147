"""Regenerate the paper's tables and figures from the command line.

``python -m repro`` prints the analytical tables (instant) and, with
``--full``, re-runs the simulated experiments too; ``tables`` and
``figures`` render one group.  The same renderers back the benchmark
suite's output.

Simulated sections execute through :mod:`repro.sweep`: ``--jobs N``
fans their sweep points across a process pool (bit-identical output to
``--jobs 1``).

``trace``, ``latency``, ``profile`` and ``objects`` observe one
:mod:`repro.scenario` row (``--list`` names them).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from .models import area, loc
from .models.memory import (
    DriverParameters,
    KIB,
    MIB,
    figure4_bandwidth_sweep,
    figure4_queue_sweep,
    table3,
)
from .models.perf import figure7a
from .sweep import SweepPoint, run_sweep


@dataclass
class RenderContext:
    """How simulated renderers execute their sweeps.

    Carries ``--jobs`` from the CLI into each renderer and counts the
    points run, for the end-of-run summary (printed to stderr — stdout
    stays byte-identical across ``--jobs`` values).
    """

    jobs: int = 1
    points: int = 0

    def sweep(self, points: Sequence[SweepPoint]) -> List:
        outcome = run_sweep(points, jobs=self.jobs)
        self.points += outcome.points
        return outcome.rows

    def summary(self) -> Optional[str]:
        if not self.points:
            return None
        return f"sweep: {self.points} points (jobs={self.jobs})"


def format_table(title: str, rows: List[Dict], columns=None) -> str:
    """Render rows as an aligned text table under a banner."""
    lines = [f"\n=== {title} ==="]
    if not rows:
        lines.append("(no rows)")
        return "\n".join(lines)
    columns = columns or list(rows[0].keys())
    widths = {
        c: max(len(str(c)), *(len(_fmt(r.get(c))) for r in rows))
        for c in columns
    }
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("  ".join(_fmt(row.get(c)).ljust(widths[c])
                               for c in columns))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _human(nbytes: float) -> str:
    if nbytes >= MIB:
        return f"{nbytes / MIB:.1f} MiB"
    if nbytes >= KIB:
        return f"{nbytes / KIB:.1f} KiB"
    return f"{int(nbytes)} B"


# ---------------------------------------------------------------------------
# Section renderers
# ---------------------------------------------------------------------------

def render_table1(ctx: Optional[RenderContext] = None) -> str:
    rows = [
        {"category": a.category, "solution": a.solution,
         "LUT": a.utilization.lut, "FF": a.utilization.ff,
         "BRAM": a.utilization.bram, "tunneling": a.tunneling,
         "hw transport": a.hardware_transport}
        for a in area.TABLE1
    ]
    return format_table("Table 1: accelerator networking architectures",
                        rows)


def render_table2(ctx: Optional[RenderContext] = None) -> str:
    derived = DriverParameters().table2a()
    rows = [{"parameter": k, "value": round(v, 2)}
            for k, v in derived.items()]
    return format_table("Table 2a: driver memory parameters", rows)


def render_table3(ctx: Optional[RenderContext] = None) -> str:
    result = table3()
    rows = []
    for key in ("tx_rings", "tx_buffers", "rx_buffers",
                "completion_queues", "rx_ring", "producer_indices",
                "total"):
        rows.append({
            "structure": key,
            "software": _human(result["software"][key]),
            "fld": _human(result["fld"][key]),
            "shrink": (f"x{result['ratios'][key]:.1f}"
                       if key in result["ratios"] else "-"),
        })
    return format_table("Table 3: memory, software vs FLD", rows)


def render_table4(ctx: Optional[RenderContext] = None) -> str:
    rows = [{"component": k, "python loc": v}
            for k, v in loc.table4().items()]
    return format_table("Table 4: software LOC (this reproduction)", rows)


def render_table5(ctx: Optional[RenderContext] = None) -> str:
    rows = [
        {"module": m.name, "clk MHz": m.clock_mhz,
         "LUT": m.utilization.lut, "FF": m.utilization.ff,
         "BRAM": m.utilization.bram, "URAM": m.utilization.uram}
        for m in area.TABLE5
    ]
    return format_table("Table 5: prototype resource utilization", rows)


def render_fig4(ctx: Optional[RenderContext] = None) -> str:
    bandwidth = [
        {"line_rate_gbps": r["bandwidth_gbps"],
         "software": _human(r["software_bytes"]),
         "fld": _human(r["fld_bytes"])}
        for r in figure4_bandwidth_sweep()
    ]
    queues = [
        {"tx_queues": r["num_tx_queues"],
         "software": _human(r["software_bytes"]),
         "fld": _human(r["fld_bytes"])}
        for r in figure4_queue_sweep()
    ]
    return (format_table("Fig. 4 (left): memory vs line rate", bandwidth)
            + "\n" + format_table("Fig. 4 (right): memory vs queues",
                                  queues))


def render_fig7a(ctx: Optional[RenderContext] = None) -> str:
    rows = figure7a(sizes=[64, 128, 256, 512, 1024, 1500])
    return format_table("Fig. 7a: PCIe model vs raw Ethernet (Gbps)", rows)


def render_table6(ctx: RenderContext) -> str:
    from .experiments.echo import table6_points
    rows = ctx.sweep(table6_points(count=1500))
    return format_table("Table 6: 64 B echo RTT (simulated)", rows)


def render_fig7b(ctx: RenderContext) -> str:
    from .experiments.echo import fig7b_points
    rows = ctx.sweep(fig7b_points(
        sizes=[64, 256, 1024, 1500], count=700,
        modes=["flde-remote", "cpu-remote", "flde-local"]))
    return format_table(
        "Fig. 7b: echo throughput (simulated, Gbps)", rows,
        columns=["mode", "size", "gbps", "model_gbps", "mpps"])


def render_fig8a(ctx: RenderContext) -> str:
    from .experiments.zuc import fig8a_points
    rows = ctx.sweep(fig8a_points(sizes=[64, 256, 512, 1024], count=200))
    return format_table(
        "Fig. 8a: ZUC throughput (simulated, Gbps)", rows,
        columns=["mode", "size", "gbps", "model_gbps"])


def render_defrag(ctx: RenderContext) -> str:
    from .experiments.defrag import experiment_points
    rows = ctx.sweep(experiment_points(rounds=40))
    return format_table(
        "§8.2.2: IP defragmentation (simulated)", rows,
        columns=["config", "goodput_gbps", "active_cores"])


def render_iot(ctx: RenderContext) -> str:
    from .experiments.iot import isolation_points
    unshaped, shaped = ctx.sweep(isolation_points())
    rows = [dict(name="unshaped", **unshaped),
            dict(name="shaped 6G+6G", **shaped)]
    return format_table(
        "§8.2.3: IoT tenant isolation (simulated)", rows,
        columns=["name", "tenant_a_gbps", "tenant_b_gbps", "meter_drops"])


ANALYTICAL = {
    "table1": render_table1,
    "table2": render_table2,
    "table3": render_table3,
    "table4": render_table4,
    "table5": render_table5,
    "fig4": render_fig4,
    "fig7a": render_fig7a,
}

SIMULATED = {
    "table6": render_table6,
    "fig7b": render_fig7b,
    "fig8a": render_fig8a,
    "defrag": render_defrag,
    "iot": render_iot,
}


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

_TABLE_SECTIONS = ("table1", "table2", "table3", "table4", "table5",
                   "table6")
_FIGURE_SECTIONS = ("fig4", "fig7a", "fig7b", "fig8a", "defrag", "iot")


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    """The sweep-execution knob of every command that runs a sweep."""
    parser.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="run simulated sweep points across N worker processes "
             "(output is bit-identical to --jobs 1)")


def _add_group_arguments(parser: argparse.ArgumentParser,
                         sections: Sequence[str], full_help: str) -> None:
    parser.add_argument("sections", nargs="*", metavar="SECTION",
                        help=f"subset of: {', '.join(sections)}")
    parser.add_argument("--full", action="store_true", help=full_help)
    _add_sweep_options(parser)


def _configure_group(name: str, help: str, sections: Sequence[str],
                     full_help: str):
    def configure(sub) -> None:
        _add_group_arguments(sub.add_parser(name, help=help), sections,
                             full_help)
    return configure


def _observe_parser(sub, kind: str, help: str, output: str,
                    output_help: str, sized: bool = True):
    """What ``trace``, ``latency``, ``profile`` and ``objects`` share;
    ``output`` is the long form of ``-o``."""
    parser = sub.add_parser(kind, help=help)
    parser.add_argument("experiment",
                        help="scenario or alias to run (see --list)")
    parser.add_argument("-o", output, dest="output", metavar="PATH",
                        required=kind == "trace", help=output_help)
    if sized:
        parser.add_argument("--count", type=int, default=None,
                            help="override the packet/message count")
        parser.add_argument("--size", type=int, default=None,
                            help="override the packet/message size (B)")
    return parser


def _configure_trace(sub) -> None:
    trace = _observe_parser(
        sub, "trace",
        "run one experiment with telemetry on; write a Chrome trace",
        "--output", "path for the chrome://tracing JSON file")
    trace.add_argument("--metrics", default=None, metavar="PATH",
                       help="also dump the metrics registry as JSON")


def _configure_latency(sub) -> None:
    latency = _observe_parser(
        sub, "latency",
        "run one experiment with span tracing; print the per-stage "
        "latency attribution (Table-6 style)",
        "--json", "also write the report, violations and span trees")
    latency.add_argument("--sample-rate", type=int, default=1, metavar="N",
                         help="trace one in every N packets (default: 1)")
    latency.add_argument("--sweep", action="store_true",
                         help="merge attribution across the scenario's "
                              "standard sweep (approximate log2-bucket "
                              "percentiles)")
    _add_sweep_options(latency)


def _configure_profile(sub) -> None:
    profile = _observe_parser(
        sub, "profile",
        "run one experiment under the simulator profiler; print "
        "per-stage heap-event attribution and events per packet",
        "--json", "also write the full profile report as JSON")
    profile.add_argument("--wallclock", action="store_true",
                         help="also time handler execution per callsite "
                              "(machine-local; not in the metrics registry)")
    profile.add_argument("--collapsed", default=None, metavar="PATH",
                         help="write collapsed-stack lines for "
                              "flamegraph.pl / speedscope")
    profile.add_argument("--top", type=int, default=10, metavar="N",
                         help="rows per top-N table (default: 10)")


def _configure_objects(sub) -> None:
    _observe_parser(
        sub, "objects",
        "elaborate one experiment's testbed and dump each node's "
        "firmware object table (no packets are sent)",
        "--json", "also write the dump as JSON", sized=False)


def _configure_scale_tenants(sub) -> None:
    scale = sub.add_parser(
        "scale-tenants",
        help="N accelerator functions multiplexed on one FLD: "
             "per-tenant throughput/latency + invariant audit")
    scale.add_argument("--tenants", type=int, nargs="+", default=[4],
                       metavar="N",
                       help="tenant count(s) to run (default: 4)")
    scale.add_argument("--size", type=int, default=256,
                       help="frame size in bytes (default: 256)")
    scale.add_argument("--count", type=int, default=400,
                       help="frames dealt round-robin across tenants "
                            "(default: 400)")
    _add_sweep_options(scale)


def _configure_prog(sub) -> None:
    prog = sub.add_parser(
        "prog",
        help="run the match-action example programs (firewall, lb, "
             "nat, ddos) in the FLD datapath; per-verdict counters + "
             "program latency + invariant audit")
    prog.add_argument("--scenario", nargs="+", default=["all"],
                      metavar="NAME",
                      help="scenario(s) to run: firewall, lb, nat, "
                           "ddos or all (default: all)")
    prog.add_argument("--size", type=int, default=256,
                      help="frame size in bytes (default: 256)")
    prog.add_argument("--count", type=int, default=400,
                      help="frames offered per scenario (default: 400)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures, or "
                    "observe one simulated experiment.",
    )
    parser.add_argument("--list", action="store_true",
                        help="list every section and scenario")
    sub = parser.add_subparsers(dest="command")
    for command in SUBCOMMANDS.values():
        command.configure(sub)
    return parser


def _cmd_group(sections: Sequence[str], full: bool,
               ordered: Sequence[str], jobs: int) -> int:
    ctx = RenderContext(jobs=jobs)
    bad = [s for s in sections if s not in ordered]
    if bad:
        print(f"unknown sections: {', '.join(bad)}; "
              f"choose from {', '.join(ordered)}")
        return 2
    everything = {**ANALYTICAL, **SIMULATED}
    for name in sections or [n for n in ordered if n in ANALYTICAL or full]:
        print(everything[name](ctx))
    simulated = [n for n in ordered if n in SIMULATED]
    if not sections and not full and simulated:
        print(f"\n(add --full to also run: {', '.join(simulated)})")
    summary = ctx.summary()
    if summary:
        print(summary, file=sys.stderr)
    return 0


def _cmd_observe(args: argparse.Namespace) -> int:
    """``trace``, ``latency``, ``profile`` and ``objects``: print one
    :func:`repro.scenario.observe` run; exit 1 if its audit is dirty, 2
    if ``latency`` finished no trace to attribute."""
    from .scenario import observe, resolve, sweep_points
    from .telemetry.latency import render_report, report_from_registry
    kind, name = args.command, args.experiment
    size = getattr(args, "size", None)
    try:
        for flag, value in (("--top", getattr(args, "top", 1)),
                            ("--sample-rate", getattr(args, "sample_rate", 1))):
            if value < 1:
                raise ValueError(f"{flag} must be at least 1; got {value}")
        target = resolve(kind, name, size, getattr(args, "count", None))[0]
        points = (sweep_points(target, args.count)
                  if getattr(args, "sweep", False) else None)
    except ValueError as exc:
        print(exc)
        return 2
    if points is not None:
        outcome = run_sweep(points, jobs=args.jobs)
        print(render_report(
            report_from_registry(outcome.metrics),
            title=f"Latency attribution: {name} sweep "
                  f"(merged across {outcome.points} points)"))
        print(f"sweep: {outcome.points} points (jobs={args.jobs})",
              file=sys.stderr)
        return 0
    summary = observe(
        kind, name, getattr(args, "count", None), size, args.output,
        metrics_output=getattr(args, "metrics", None),
        sample_rate=getattr(args, "sample_rate", 1),
        wallclock=getattr(args, "wallclock", False),
        collapsed_output=getattr(args, "collapsed", None),
        top=getattr(args, "top", 10))
    if kind == "objects":
        for node, rows in summary["nodes"].items():
            print(format_table(
                f"Firmware objects: {node} ({len(rows)} object(s))",
                [{"handle": row["handle"], "kind": row["kind"],
                  "label": row["label"], "refs": row["refcount"],
                  "deps": " ".join(row["deps"]) or "-"}
                 for row in rows]) if rows
                else f"Firmware objects: {node} (empty table)")
        if args.output:
            print(f"json dump: {args.output}")
        return 0
    if kind == "latency":
        print(render_report(summary["report"],
                            title=f"Latency attribution: {name}"))
        sampler = summary["sampler"]
        print(f"sampler: {sampler['sampled']}/{sampler['seen']} packets "
              f"traced ({sampler['skipped']} skipped by 1-in-"
              f"{args.sample_rate} sampling, {sampler['dropped']} dropped "
              f"at the trace cap)")
    else:
        print(f"traced {name}: {summary['trace_events']} events "
              f"({summary['trace_dropped']} dropped), {summary['metrics']} "
              f"metrics -> {args.output}" if kind == "trace"
              else f"profiled {name}:")
        for key, value in summary["result"].items():
            print(f"  {key}: {_fmt(value)}")
        if kind == "trace" and args.metrics:
            print(f"  metrics json: {args.metrics}")
        if kind == "profile":
            print(f"\n{summary['rendered']}")
    status = _audit_footer(len(summary["violations"]), summary["violations"])
    if kind != "trace" and args.output:
        print(f"json report: {args.output}")
    if getattr(args, "collapsed", None):
        print(f"collapsed stacks: {args.collapsed}")
    if kind == "latency" and not summary["report"]["traces"]:
        print(f"no {name} packet finished a trace: nothing to attribute")
        return 2
    return status


def _audit_footer(count: int, violations: Sequence[Dict] = ()) -> int:
    """Print the invariant-audit verdict every running command ends
    with (``count`` violations, detailed as far as ``violations`` go);
    returns the exit status."""
    print(f"\n{count} invariant violation(s):" if count
          else "\ninvariant audit: clean")
    for violation in violations:
        print(f"  [{violation['rule']}] {violation['subject']}: "
              f"{violation['detail']}")
    return 1 if count else 0


def _usage_error(kind: str, names: Sequence[str], size: Optional[int],
                 count: Optional[int]) -> bool:
    """Print the first of ``names`` that ``kind`` cannot run at ``size``
    and ``count`` (see :func:`repro.scenario.resolve`)."""
    from .scenario import resolve
    try:
        for name in names:
            resolve(kind, name, size, count)
    except ValueError as exc:
        print(exc)
        return True
    return False


def _cmd_scale_tenants(args: argparse.Namespace) -> int:
    from .core.bar import MAX_TX_QUEUES
    from .experiments import scale_tenants
    bad = [n for n in args.tenants if not 1 <= n <= MAX_TX_QUEUES]
    if bad:
        print(f"--tenants must be 1..{MAX_TX_QUEUES} (one FLD tx queue "
              f"each); got {' '.join(map(str, bad))}")
        return 2
    if _usage_error(args.command, ["scale-tenants"], args.size, args.count):
        return 2
    ctx = RenderContext(jobs=args.jobs)
    rows = ctx.sweep(scale_tenants.sweep_points(
        tuple(args.tenants), size=args.size, count=args.count))
    print(format_table(
        "Scale-tenants: aggregate echo (25 Gbps offered, one FLD)", rows,
        columns=["tenants", "size", "sent", "received", "gbps", "mpps",
                 "violations"]))
    for row in rows:
        print(format_table(
            f"Per-tenant breakdown ({row['tenants']} tenant(s))",
            row["per_tenant"]))
    summary = ctx.summary()
    if summary:
        print(summary, file=sys.stderr)
    return _audit_footer(sum(row["violations"] for row in rows))


def _cmd_prog(args: argparse.Namespace) -> int:
    """Each program's row, under span telemetry for its latency."""
    from .experiments.prog import SCENARIOS, prog_latency_us
    from .scenario import audit, run
    from .telemetry import Telemetry
    scenarios = SCENARIOS if args.scenario == ["all"] else args.scenario
    unknown = [s for s in scenarios if s not in SCENARIOS]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}; choose from "
              f"{', '.join(SCENARIOS)} or all")
        return 2
    if _usage_error(args.command, [f"prog-{name}" for name in scenarios],
                    args.size, args.count):
        return 2
    rows, violations = [], []
    for name in scenarios:
        telemetry = Telemetry(trace=False, spans=True)
        row, testbed = run(f"prog-{name}", args.count, args.size,
                           telemetry=telemetry)
        violations += [violation.to_dict() for violation
                       in audit(f"prog-{name}", testbed, telemetry)]
        rows.append(dict(row, prog_p99_us=prog_latency_us(
            telemetry.spans, row["program"])["p99_us"]))
    print(format_table(
        "Match-action programs in the FLD datapath", rows,
        columns=["scenario", "sent", "received", "gbps", "rtt_p99_us",
                 "prog_p99_us", "violations"]))
    for row in rows:
        print(format_table(
            f"Verdict counters ({row['scenario']}, "
            f"{row['verdicts']['insns']} insns interpreted)",
            [dict(row["verdicts"], scenario=row["scenario"])]))
        print(format_table(
            f"Per-function accelerator counts ({row['scenario']})",
            row["per_fn"]))
    return _audit_footer(len(violations), violations)


def _listing_scenarios() -> List[str]:
    from .scenario import ALIASES, SCENARIOS
    return (["traceable scenarios (python -m repro trace|latency|profile|"
             "objects <name>; trace also needs -o t.json):"]
            + [f"  {name:14s} {row.description}"
               for name, row in SCENARIOS.items()]
            + ["aliases (command name -> scenario, default count):"]
            + [f"  {command:8s} {name:10s} -> {target}"
               + (f" ({count})" if count else "")
               for (command, name), (target, count) in ALIASES.items()])


class Subcommand(NamedTuple):
    """One CLI subcommand: parser wiring, dispatch and --list entry.

    The registry below is the single source of truth for the parser,
    dispatch, and ``--list`` output — adding a subcommand means adding
    one entry here, nothing else.
    """

    configure: Callable[[argparse._SubParsersAction], None]
    run: Callable[[argparse.Namespace], int]
    listing: Optional[Callable[[], List[str]]] = None


SUBCOMMANDS: Dict[str, Subcommand] = {
    "tables": Subcommand(
        _configure_group("tables", "render the paper's tables (1-6)",
                         _TABLE_SECTIONS,
                         "include the simulated table (table6)"),
        lambda args: _cmd_group(args.sections, args.full,
                                _TABLE_SECTIONS, args.jobs)),
    "figures": Subcommand(
        _configure_group("figures",
                         "render the paper's figures (4, 7a/b, 8a, ...)",
                         _FIGURE_SECTIONS, "include the simulated figures"),
        lambda args: _cmd_group(args.sections, args.full,
                                _FIGURE_SECTIONS, args.jobs)),
    "trace": Subcommand(_configure_trace, _cmd_observe, _listing_scenarios),
    "latency": Subcommand(_configure_latency, _cmd_observe),
    "profile": Subcommand(_configure_profile, _cmd_observe),
    "objects": Subcommand(_configure_objects, _cmd_observe),
    "scale-tenants": Subcommand(
        _configure_scale_tenants, _cmd_scale_tenants,
        lambda: ["multi-tenant scaling (python -m repro scale-tenants "
                 "--tenants N): per-tenant throughput/latency on one FLD"]),
    "prog": Subcommand(
        _configure_prog, _cmd_prog,
        lambda: ["match-action programs (python -m repro prog [--scenario "
                 "firewall lb nat ddos]): verified datapath programs with "
                 "per-verdict counters"]),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or (argv[0] not in SUBCOMMANDS
                    and argv[0] not in ("--list", "-h", "--help")):
        # ``python -m repro [--full] [section ...]``: every section, with
        # the options and the path of ``tables`` and ``figures``.
        sections = list(ANALYTICAL) + list(SIMULATED)
        bare = argparse.ArgumentParser(prog="python -m repro")
        _add_group_arguments(bare, sections,
                             "include the simulated sections")
        args = bare.parse_args(argv)
        return _cmd_group(args.sections, args.full, sections, args.jobs)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.list:
        return SUBCOMMANDS[args.command].run(args)
    print("analytical sections: " + ", ".join(ANALYTICAL))
    print("simulated sections:  " + ", ".join(SIMULATED))
    for command in SUBCOMMANDS.values():
        if command.listing is not None:
            print("\n".join(command.listing()))
    return 0
