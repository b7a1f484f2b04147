#!/usr/bin/env python3
"""The repo benchmark: six workloads, end-to-end and per-layer metrics.

Two ways in, one measurement underneath (``Session``):

* ``python benchmarks/perf/run.py [--seed N] [-o out.json] [--quick]``
  runs the whole plan: one persistent worker process per workload, only
  one of them active at a time, R = 9 timed repeats issued round-robin
  across the workloads (host noise here comes in 15-20 s spells, so
  interleaving is what makes medians comparable), then each worker's
  traced pass.  Prints every metric by name with its unit and exits
  non-zero if any simulated output was wrong.
* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` measures
  one workload in this process for S seconds and prints one JSON object
  as the last line of stdout: the ``end_to_end`` metrics of
  ``BENCHMARK.json`` with ``--trace 0``, the ``per_layer`` ones with
  ``--trace 1``.

``--regen-golden`` rewrites ``golden.json`` (the simulated statistics at
the default seed) and says so.  See ``README.md`` for what each metric
means and how they are expected to move together.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import deque
from heapq import heappop, heappush
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GOLDEN = os.path.join(HERE, "golden.json")

DEFAULT_SEED = 7
ROUNDS = 9
QUICK_SCALE = 0.1
IMPORT_REPEATS = 7
REF_ITERATIONS = 7_500
REF_LOOPS = 10
#: What the reference loop takes on the host the benchmark was defined on,
#: in its fast state.  Only fixes the unit; comparisons need no more.
REF_NOMINAL_S = 0.0038
#: What a workload needs imported before its first frame; timed as set-up.
IMPORTS = ("repro.experiments.setups", "repro.sw", "repro.telemetry",
           "repro.net", "repro.accelerators.zuc.eea3")

COUNTERS = {   # per_layer name -> (simulated-statistics key, per packet?)
    "pcie.tlps_per_pkt": ("pcie_tlps", True),
    "nic.wqe_fetches_per_pkt": ("nic_wqe_fetches", True),
    "core.wqe_reads_per_pkt": ("core_wqe_reads", True),
    "core.cuckoo_lookups_per_pkt": ("core_cuckoo_lookups", True),
    "nic.rdma_retransmits": ("nic_rdma_retransmits", False),
    "nic.rq_drops_no_desc": ("nic_rq_drops_no_desc", False),
}


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value

    def touch(self):
        return self.value + self.key


def _reference_loop() -> float:
    started = perf_counter()
    heap, ready, table, total = [], deque(), {}, 0.0
    for i in range(REF_ITERATIONS):
        node = _Node(i, i * 0.5)
        heappush(heap, (i * 7919 % 1013 * 1e-9, i, node.touch))
        table[i & 1023] = node
        ready.append(node)
        if i & 3 == 3:
            total += heappop(heap)[2]()
            ready.popleft()
    return perf_counter() - started


def host_slowdown() -> float:
    """How slow the host is right now: the best of ``REF_LOOPS`` runs of a
    fixed ~4 ms pure-Python loop, over ``REF_NOMINAL_S``.

    This host flips between two speeds about 1.25x apart and stays in one
    for 10-30 s at a time, which no estimator over a 10 s run can average
    away.  The loop (heap, deque, dict, small objects, bound-method calls:
    the simulator's instruction mix, none of its code, so no change to the
    repo can speed it up) tracks the flips to a few percent.  Every host
    time the benchmark reports is divided by the slowdown measured right
    before and after it, i.e. is in seconds of the host at nominal speed.
    """
    # The collector is paused: a full collection landing inside one
    # loop (the loop allocates; the heap holds all of repro) is the host's
    # doing for a repeat but pure noise here.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_reference_loop()
                   for _ in range(REF_LOOPS)) / REF_NOMINAL_S
    finally:
        if enabled:
            gc.enable()


def timed_imports(repeats: int):
    """Seconds to import what a workload needs, ``repeats`` times over.

    The first sample is the cold one (numpy, the standard library); later
    ones drop ``repro`` from ``sys.modules`` and import it again, so the
    median is the cost of executing the package's own module bodies —
    which is where work moved into import time would land.
    """
    samples = []
    slowdown = host_slowdown()
    for _ in range(repeats):
        for name in [m for m in sys.modules
                     if m == "repro" or m.startswith("repro.")]:
            del sys.modules[name]
        started = perf_counter()
        for name in IMPORTS:
            importlib.import_module(name)
        elapsed = perf_counter() - started
        before, slowdown = slowdown, host_slowdown()
        samples.append(elapsed / ((before + slowdown) / 2))
    gc.collect()
    return samples


def sampled(values, unit):
    """A host-speed metric from a run's repeats: their upper quartile.

    What noise survives the normalisation only ever slows a repeat down, so
    the upper quartile repeats better from run to run than the median does
    (3.8% against 4.6% quartile spread over eighteen ten-run sets, worst
    7.6% against 11.5%).  The median and both quartiles are kept beside it.
    """
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"value": q3, "unit": unit, "median": median,
            "q1": q1, "q3": q3, "n": len(values)}


def exact(value, unit):
    return {"value": value, "unit": unit}


class Session:
    """One workload measured in this process.

    Construction times the imports, so build it before anything else has
    imported ``repro``.  Every repeat it runs is checked and counted
    towards ``attempted`` / ``failed``.
    """

    def __init__(self, name: str, seed: int, scale: float,
                 import_repeats: int):
        self.import_samples = timed_imports(import_repeats)
        import layers
        import workloads
        self._layers = layers
        self._workloads = workloads
        if name not in workloads.WORKLOADS:
            raise SystemExit(f"unknown workload {name!r}; choose from "
                             + ", ".join(workloads.WORKLOADS))
        self.workload = workloads.WORKLOADS[name]
        self.seed = seed
        self.count = max(1, round(self.workload.count * scale))
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.stats = None        # the simulated statistics every repeat gave
        self.golden = None
        if seed == DEFAULT_SEED and os.path.exists(GOLDEN):
            with open(GOLDEN, encoding="utf-8") as handle:
                self.golden = json.load(handle).get(name, {}).get(
                    str(self.count))

    # -- repeats ----------------------------------------------------------

    def repeat(self, workload=None, **options):
        """One checked repeat (of ``workload``, default this session's)."""
        gc.collect()
        before = host_slowdown()
        result = self._workloads.run_repeat(
            workload or self.workload, self.seed, self.count, **options)
        result["slowdown"] = (before + host_slowdown()) / 2
        for key in ("build_s", "run_s"):
            if result[key] is not None:
                result["raw_" + key] = result[key]
                result[key] /= result["slowdown"]
        problems = result["problems"]
        stats = result["stats"]
        if stats is not None and not problems:
            if self.stats is None:
                self.stats = stats
                if self.golden is not None and stats != self.golden:
                    problems.append(
                        "simulated statistics differ from golden.json: "
                        + _diff(self.golden, stats))
            elif stats != self.stats:
                problems.append(
                    "simulated statistics differ from an earlier repeat: "
                    + _diff(self.stats, stats))
            if problems:
                result["failed"] = result["offered"]
        self.attempted += result["offered"]
        self.failed += result["failed"]
        self.problems += problems
        return result

    def warmup(self):
        """One untimed repeat, so caches fill and lazy set-up finishes.

        A workload under spans first runs with spans off (``echo_small``
        at this count): every later repeat is then held to those
        statistics, because observability must not change the model.
        """
        if self.workload.spans:
            self.repeat(dataclasses.replace(self.workload, spans=False))
        self.repeat()

    def timed(self, seconds: float, at_least: int = 3, at_most: int = 10**6):
        """Untraced repeats until ``seconds`` have passed."""
        results = []
        started = perf_counter()
        while len(results) < at_most and (
                len(results) < at_least
                or perf_counter() - started < seconds):
            results.append(self.repeat())
        return results

    # -- the traced pass --------------------------------------------------

    def profiled(self):
        """One repeat under cProfile: calls and self time by layer."""
        profile = cProfile.Profile()
        result = self.repeat(cprofile=profile)
        calls, self_s, total = self._layers.by_layer(profile)
        if sum(calls.values()) != total:
            raise AssertionError(
                f"per-layer calls sum to {sum(calls.values())}, "
                f"profile counted {total}")
        return {"pkts": result["returned"], "run_s": result["run_s"],
                "calls_total": total, "calls": calls,
                "self_s": {layer: seconds / result["slowdown"]
                           for layer, seconds in self_s.items()}}

    def engine_events(self):
        """One repeat under the engine's event profiler: events by stage."""
        result = self.repeat(engine_events=True)
        stages = dict.fromkeys(self._layers.STAGES, 0)
        for stage, count in result.get("stage_events", {}).items():
            stages[stage if stage in stages else "other"] += count
        total = result.get("events", 0)
        if sum(stages.values()) != total:
            raise AssertionError(
                f"per-stage events sum to {sum(stages.values())}, "
                f"engine counted {total}")
        return {"pkts": result["returned"], "events_total": total,
                "events": stages}

    def micro(self):
        import micro
        before = host_slowdown()
        rows = micro.run_rows()
        slowdown = (before + host_slowdown()) / 2
        for values in rows.values():
            values["ns_per_op"] /= slowdown
        return rows

    def summary(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems[:20], "stats": self.stats,
                "count": self.count,
                "import_samples": self.import_samples,
                "reference": vars(self.workload.reference),
                "model_err_pct": (
                    self._workloads.model_err_pct(self.workload, self.stats)
                    if self.stats else None)}


def _diff(expected, got):
    keys = [k for k in sorted(set(expected) | set(got))
            if expected.get(k) != got.get(k)]
    return ", ".join(f"{k} {expected.get(k)!r} -> {got.get(k)!r}"
                     for k in keys[:4])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Metrics from the raw measurements (shared by both ways in)
# ---------------------------------------------------------------------------


def end_to_end(summary, timed, rss_mb, profiled):
    good = [r for r in timed if r["run_s"] and r["returned"]]
    if not good or not profiled["pkts"] or summary["model_err_pct"] is None:
        raise RuntimeError("no repeat completed: " +
                           "; ".join(summary["problems"][:3]))
    setup = (statistics.median(summary["import_samples"])
             + statistics.median(r["build_s"] for r in good))
    return {
        "sim_pkts_per_s": sampled(
            [r["returned"] / r["run_s"] for r in good], "pkt/s"),
        "calls_per_pkt": exact(
            profiled["calls_total"] / profiled["pkts"], "calls/pkt"),
        "peak_rss_mb": exact(rss_mb, "MB"),
        "setup_s": exact(setup, "s"),
        "model_err_pct": exact(summary["model_err_pct"], "%"),
    }


def per_layer(summary, timed, profiled, events, micro_rows):
    pkts = profiled["pkts"]
    out = {}
    for layer, calls in profiled["calls"].items():
        out[f"calls_per_pkt.{layer}"] = exact(calls / pkts, "calls/pkt")
    for layer, seconds in profiled["self_s"].items():
        out[f"self_us_per_pkt.{layer}"] = exact(seconds / pkts * 1e6,
                                                "us/pkt")
    out["events_per_pkt"] = exact(events["events_total"] / events["pkts"],
                                  "events/pkt")
    for stage, count in events["events"].items():
        out[f"events_per_pkt.{stage}"] = exact(count / events["pkts"],
                                               "events/pkt")
    stats = summary["stats"]
    for name, (key, per_packet) in COUNTERS.items():
        out[name] = exact(stats[key] / stats["received"] if per_packet
                          else stats[key],
                          "count/pkt" if per_packet else "count")
    untraced = statistics.median(r["run_s"] for r in timed if r["run_s"])
    out["trace.overhead_x"] = exact(profiled["run_s"] / untraced, "x")
    for row, values in (micro_rows or {}).items():
        out[f"micro.{row}.ns_per_op"] = exact(values["ns_per_op"], "ns/op")
        out[f"micro.{row}.calls_per_op"] = exact(values["calls_per_op"],
                                                 "calls/op")
    return out


# ---------------------------------------------------------------------------
# One workload in this process (the BENCHMARK.json contract)
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    session = Session(args.workload, args.seed, 1.0, IMPORT_REPEATS)
    session.warmup()
    if args.trace:
        # The untraced repeats only anchor trace.overhead_x.
        timed = session.timed(args.seconds, at_least=1, at_most=3)
        profiled = session.profiled()
        events = session.engine_events()
        micro_rows = session.micro()
        summary = session.summary()
        metrics = per_layer(summary, timed, profiled, events, micro_rows)
    else:
        timed = session.timed(args.seconds)
        rss = peak_rss_mb()
        profiled = session.profiled()
        summary = session.summary()
        metrics = end_to_end(summary, timed, rss, profiled)
    for problem in summary["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{args.workload}: {len(timed)} untraced repeats of "
          f"{summary['count']}, pkt/s each: "
          + " ".join(f"{r['returned'] / r['run_s']:.0f}"
                     for r in timed if r["run_s"]), file=sys.stderr)
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if summary["failed"] == 0 else 1


# ---------------------------------------------------------------------------
# The whole plan: persistent workers, round-robin rounds
# ---------------------------------------------------------------------------


def worker_loop(args) -> int:
    """Serve one workload: a JSON command per stdin line, a JSON reply per
    stdout line.  Idle (blocked on stdin) whenever another worker runs."""
    session = Session(args.worker, args.seed, args.scale, args.import_repeats)
    session.warmup()
    commands = {
        "repeat": session.repeat,
        "rss": peak_rss_mb,
        "profiled": session.profiled,
        "engine_events": session.engine_events,
        "micro": session.micro,
        "summary": session.summary,
    }
    print(json.dumps("ready"), flush=True)
    for line in sys.stdin:
        print(json.dumps(commands[json.loads(line)]()), flush=True)
    return 0


class Worker:
    def __init__(self, name, seed, scale, import_repeats):
        self.name = name
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", name,
             "--seed", str(seed), "--scale", repr(scale),
             "--import-repeats", str(import_repeats)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._reply()   # "ready": imports timed, warm-up done

    def _reply(self):
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"worker {self.name} died")
        return json.loads(line)

    def ask(self, command):
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()
        return self._reply()

    def close(self):
        self.process.stdin.close()
        self.process.stdout.close()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def environment():
    from repro import batching
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(),
            "batch_enabled": batching.batch_enabled()}


def run_plan(args) -> int:
    from workloads import WORKLOADS
    scale = QUICK_SCALE if args.quick else 1.0
    rounds = 1 if args.quick else ROUNDS
    import_repeats = 1 if args.quick else IMPORT_REPEATS
    workers = []
    report = {"schema": 1, "comparable": not args.quick, "seed": args.seed,
              "rounds": rounds, "scale": scale,
              "environment": environment(), "workloads": {}}
    try:
        # Started one after another: a starting worker imports and warms
        # up, which is load, and only one process may be loading the host.
        for name in WORKLOADS:
            print(f"starting {name}", file=sys.stderr)
            workers.append(Worker(name, args.seed, scale, import_repeats))
        timed = {w.name: [] for w in workers}
        for index in range(rounds):
            print(f"round {index + 1}/{rounds}", file=sys.stderr)
            for worker in workers:
                timed[worker.name].append(worker.ask("repeat"))
        for position, worker in enumerate(workers):
            print(f"traced pass: {worker.name}", file=sys.stderr)
            rss = worker.ask("rss")
            profiled = worker.ask("profiled")
            events = worker.ask("engine_events")
            # The micro rows do not depend on the workload: one worker.
            micro_rows = worker.ask("micro") if position == 0 else None
            summary = worker.ask("summary")
            report["workloads"][worker.name] = {
                "why": WORKLOADS[worker.name].why,
                "count": summary["count"],
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "problems": summary["problems"],
                "reference": summary["reference"],
                "import_cold_s": summary["import_samples"][0],
                # What the host did, before normalising to nominal speed.
                "raw_pkts_per_s": sampled(
                    [r["returned"] / r["raw_run_s"]
                     for r in timed[worker.name] if r["run_s"]], "pkt/s"),
                "host_slowdown": sampled(
                    [r["slowdown"] for r in timed[worker.name]], "x"),
                "stats": summary["stats"],
                "end_to_end": end_to_end(summary, timed[worker.name], rss,
                                         profiled),
                "per_layer": per_layer(summary, timed[worker.name],
                                       profiled, events, micro_rows),
            }
    finally:
        for worker in workers:
            worker.close()
    print_report(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
        print(f"-> {args.output}")
    failed = sum(w["failed"] for w in report["workloads"].values())
    if failed:
        print(f"FAILED: {failed} units of work failed", file=sys.stderr)
    return 1 if failed else 0


def print_report(report):
    env = report["environment"]
    print(f"benchmark at {env['git_sha'][:12]}  python {env['python']}  "
          f"numpy {env['numpy']}  nproc {env['nproc']}  "
          f"batch_enabled {env['batch_enabled']}  seed {report['seed']}  "
          f"rounds {report['rounds']}  comparable {report['comparable']}")
    for name, entry in report["workloads"].items():
        print(f"\n== {name}: {entry['attempted']} attempted, "
              f"{entry['failed']} failed")
        for problem in entry["problems"]:
            print(f"   problem: {problem}")
        for metric, m in entry["end_to_end"].items():
            spread = (f"  [median {m['median']:.6g}, q1 {m['q1']:.6g}, "
                      f"n {m['n']}]" if "n" in m else "")
            note = ""
            if metric == "model_err_pct":
                ref = entry["reference"]
                note = f"  vs {ref['source']}" + (
                    "" if ref["validated"] else " (unvalidated)")
            print(f"   {metric:<40} {m['value']:>14.6g} {m['unit']}"
                  f"{spread}{note}")
        for metric, m in entry["per_layer"].items():
            if m["value"]:
                print(f"   {metric:<40} {m['value']:>14.6g} {m['unit']}")


def regen_golden(args) -> int:
    """Rewrite golden.json: each workload's simulated statistics at the
    default seed, at full and at --quick size."""
    import workloads
    print("=" * 72)
    print(f"REGENERATING {GOLDEN}")
    print("The committed simulated statistics are being replaced; do this "
          "only when\nthe modelled design changed on purpose.")
    print("=" * 72)
    golden = {}
    for name, workload in workloads.WORKLOADS.items():
        golden[name] = {}
        for scale in (1.0, QUICK_SCALE):
            count = max(1, round(workload.count * scale))
            result = workloads.run_repeat(workload, DEFAULT_SEED, count)
            if result["failed"] or result["problems"]:
                print(f"{name} x{count}: {result['problems']}",
                      file=sys.stderr)
                return 1
            golden[name][str(count)] = result["stats"]
            print(f"{name} x{count}: {result['stats']}")
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"REWROTE {GOLDEN}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Without --workload, runs the whole interleaved plan.")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("-o", "--output", help="write the full report here")
    parser.add_argument("--quick", action="store_true",
                        help="1 round at tenth-size counts; the report is "
                             "stamped comparable: false")
    parser.add_argument("--regen-golden", action="store_true")
    parser.add_argument("--workload", help="measure one workload here")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--import-repeats", type=int, default=IMPORT_REPEATS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no simulator to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "benchmarks"),
                    os.path.join(ROOT, "src")]
    if args.worker:
        return worker_loop(args)
    if args.workload:
        return run_one(args)
    if args.regen_golden:
        return regen_golden(args)
    return run_plan(args)


if __name__ == "__main__":
    sys.exit(main())
