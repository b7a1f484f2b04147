#!/usr/bin/env python3
"""Compare two ``run.py -o`` reports: ``compare.py A.json B.json``.

One row per workload x end-to-end metric with both values, the change,
the metric's bound from ``BENCHMARK.json`` and a verdict:

* ``same``        B is not worse than A by more than the bound (and, for
                  an exact count, not better either);
* ``better``      B is better than A, by more than the bound for host-time
                  metrics, by anything for exact counts;
* ``worse``       B is worse than A by more than the bound;
* ``unresolved``  a host-time metric whose two quartile ranges overlap
                  although the medians differ by more than the bound, or
                  whose run-to-run spread is wider than the bound: the
                  runs cannot tell "unchanged" from "changed".

Below the rows come the per-layer numbers that account for each verdict
that is not ``same``, and every exact per-layer count that differs.
Exits 1 if any verdict is ``worse`` or B has failures, 2 if the two
reports cannot be compared (different seed, size or rounds).
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Repeat to the digit on one commit, so any difference is a real change.
EXACT = {"calls_per_pkt", "model_err_pct"}
#: Per-layer families that are exact counts (the rest are host time).
EXACT_LAYER_PREFIXES = ("calls_per_pkt.", "events_per_pkt", "pcie.", "nic.",
                        "core.")
#: Which per-layer family explains a moved end-to-end metric.
EXPLAINED_BY = {"sim_pkts_per_s": ("self_us_per_pkt.",),
                "calls_per_pkt": ("calls_per_pkt.", "events_per_pkt")}
TOP_LAYERS = 5


def worsening(a: float, b: float, better: str) -> float:
    """B's change from A as a share of A; positive means worse."""
    change = (b - a) / abs(a) if a else (0.0 if b == a else float("inf"))
    return change if better == "lower" else -change


def verdict(name: str, a: dict, b: dict, better: str, bound: float) -> str:
    worse_by = worsening(a["value"], b["value"], better)
    if a.get("n", 1) > 1 and b.get("n", 1) > 1:
        overlap = a["q1"] <= b["q3"] and b["q1"] <= a["q3"]
        if abs(worse_by) > bound:
            if overlap:
                return "unresolved"
            return "worse" if worse_by > 0 else "better"
        spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / abs(a["value"])
        return "unresolved" if spread > bound else "same"
    if worse_by > bound:
        return "worse"
    if worse_by < (0.0 if name in EXACT else -bound):
        return "better"
    return "same"


def is_exact_layer_metric(name: str) -> bool:
    return name.startswith(EXACT_LAYER_PREFIXES) or \
        name.endswith(".calls_per_op")


def compare(report_a: dict, report_b: dict, benchmark: dict):
    """Rows, explanations and differing exact counts, as printable lines,
    plus whether anything is worse."""
    rows, notes, any_worse = [], [], False
    for workload in (w["name"] for w in benchmark["workloads"]):
        a = report_a["workloads"][workload]
        b = report_b["workloads"][workload]
        if b["failed"]:
            any_worse = True
        rows.append((workload, "failed/attempted",
                     f"{a['failed']}/{a['attempted']}",
                     f"{b['failed']}/{b['attempted']}", "", "",
                     "worse" if b["failed"] else "same"))
        layers_a, layers_b = a["per_layer"], b["per_layer"]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            ma, mb = a["end_to_end"][name], b["end_to_end"][name]
            result = verdict(name, ma, mb, metric["better"], metric["bound"])
            any_worse |= result == "worse"
            change = worsening(ma["value"], mb["value"], "lower")
            rows.append((workload, f"{name} [{ma['unit']}]",
                         f"{ma['value']:.6g}", f"{mb['value']:.6g}",
                         f"{change:+.2%}", f"{metric['bound']:.0%}", result))
            if result == "same":
                continue
            movers = sorted(
                (n for n in layers_a if n in layers_b
                 and n.startswith(EXPLAINED_BY.get(name, ()))
                 and layers_a[n]["value"] != layers_b[n]["value"]),
                key=lambda n: -abs(layers_b[n]["value"]
                                   - layers_a[n]["value"]))
            for layer in movers[:TOP_LAYERS]:
                va, vb = layers_a[layer]["value"], layers_b[layer]["value"]
                notes.append(f"{workload}: {name} {result}: {layer} "
                             f"{va:.6g} -> {vb:.6g} "
                             f"({vb - va:+.6g} {layers_a[layer]['unit']})")
        differing = [n for n in layers_a if n in layers_b
                     and is_exact_layer_metric(n)
                     and layers_a[n]["value"] != layers_b[n]["value"]]
        for layer in differing:
            notes.append(f"{workload}: exact count differs: {layer} "
                         f"{layers_a[layer]['value']!r} -> "
                         f"{layers_b[layer]['value']!r}")
        if not differing:
            exact_count = sum(map(is_exact_layer_metric, layers_a))
            notes.append(f"{workload}: all {exact_count} exact per-layer "
                         f"counts identical")
    return rows, notes, any_worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        report_a = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        report_b = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        benchmark = json.load(handle)
    for key in ("seed", "scale", "rounds"):
        if report_a[key] != report_b[key]:
            print(f"cannot compare: {key} is {report_a[key]!r} in A and "
                  f"{report_b[key]!r} in B", file=sys.stderr)
            return 2
    if not (report_a["comparable"] and report_b["comparable"]):
        print("note: --quick reports; only the exact counts mean anything, "
              "host-time verdicts do not")
    print(f"A: {argv[0]} at {report_a['environment']['git_sha'][:12]}")
    print(f"B: {argv[1]} at {report_b['environment']['git_sha'][:12]}")
    rows, notes, any_worse = compare(report_a, report_b, benchmark)
    header = ("workload", "metric", "A", "B", "B vs A", "bound", "verdict")
    widths = [max(len(row[i]) for row in [header] + rows)
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    print()
    for note in notes:
        print(note)
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
