#!/usr/bin/env python3
"""Quick self-check of the benchmark (run explicitly; not in tier-1).

``python benchmarks/perf/test_perf_bench.py`` — or, with ``PYTHONPATH=src``,
``python -m pytest benchmarks/perf/test_perf_bench.py``.  Takes under a
minute: two ``run.py --quick`` runs under different ``PYTHONHASHSEED``
and one single-workload run in the form the benchmark driver uses.
"""

from __future__ import annotations

import functools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

sys.path.insert(0, HERE)
import compare  # noqa: E402
import layers  # noqa: E402


@functools.lru_cache(maxsize=None)
def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@functools.lru_cache(maxsize=None)
def quick_report(hash_seed: str):
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "quick.json")
        subprocess.run(
            [sys.executable, RUN, "--quick", "-o", out], check=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def values(entry, prefix):
    return {name: m["value"] for name, m in entry["per_layer"].items()
            if name.startswith(prefix)}


def test_schema_and_no_failures():
    report = quick_report("1")
    assert report["comparable"] is False and report["rounds"] == 1
    assert set(report["environment"]) == {
        "git_sha", "python", "numpy", "nproc", "batch_enabled"}
    assert [w["name"] for w in benchmark()["workloads"]] \
        == list(report["workloads"])
    for name, entry in report["workloads"].items():
        assert entry["attempted"] > 0 and entry["failed"] == 0, \
            (name, entry["problems"])
        for m in list(entry["end_to_end"].values()) \
                + list(entry["per_layer"].values()):
            assert isinstance(m["value"], (int, float)) and m["unit"]


def test_every_benchmark_json_name_is_emitted():
    spec = benchmark()
    report = quick_report("1")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] \
        + [w["name"] for w in spec["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names), names
    for workload, entry in report["workloads"].items():
        for metric in spec["end_to_end"]:
            emitted = entry["end_to_end"][metric["name"]]
            assert emitted["unit"] == metric["unit"], (workload, metric)
            assert emitted["value"] != 0, (workload, metric)
        for metric in spec["per_layer"]:
            if metric["name"].startswith("micro.") \
                    and workload != "echo_small":
                continue    # the plan runs the micro rows in one worker
            assert entry["per_layer"][metric["name"]]["unit"] \
                == metric["unit"], (workload, metric)
    first = report["workloads"]["echo_small"]["per_layer"]
    assert set(first) == {m["name"] for m in spec["per_layer"]}


def test_sum_identities_are_exact():
    # Fractions of one denominator: compare numerators, not rounded floats.
    for workload, entry in quick_report("1")["workloads"].items():
        pkts = entry["stats"]["received"]
        total = entry["end_to_end"]["calls_per_pkt"]["value"]
        parts = values(entry, "calls_per_pkt.")
        assert set(parts) == {f"calls_per_pkt.{x}" for x in layers.LAYERS}
        assert sum(round(v * pkts) for v in parts.values()) \
            == round(total * pkts), workload
        stages = values(entry, "events_per_pkt.")
        assert set(stages) == {f"events_per_pkt.{x}" for x in layers.STAGES}
        assert sum(round(v * pkts) for v in stages.values()) \
            == round(entry["per_layer"]["events_per_pkt"]["value"] * pkts), \
            workload


def test_predicted_separation():
    report = quick_report("1")["workloads"]
    cpu = values(report["cpu_echo_small"], "calls_per_pkt.core.")
    assert cpu and not any(cpu.values()), cpu

    def calls(workload, layer):
        return report[workload]["per_layer"][f"calls_per_pkt.{layer}"]["value"]

    # Untraced runs still call the null sinks (about 22 no-op calls a
    # packet at the commit that added the benchmark), so "telemetry is
    # zero off the spans workload" is not true; "spans multiply it" is.
    for workload in report:
        if workload != "echo_small_spans":
            assert calls("echo_small_spans", "telemetry") \
                > 5 * calls(workload, "telemetry"), workload
            assert calls(workload, "prog") == 0
    assert calls("echo_rtt", "sim.engine") \
        >= 1.5 * calls("echo_small", "sim.engine")
    assert calls("zuc_rdma", "accelerators") \
        > 10 * calls("echo_small", "accelerators")
    for workload in ("echo_small", "cpu_echo_small", "echo_rtt",
                     "forward_imc", "echo_small_spans"):
        assert calls(workload, "nic.rdma") < calls("zuc_rdma", "nic.rdma")


def test_counts_repeat_under_another_hash_seed():
    rows, notes, any_worse = compare.compare(
        quick_report("1"), quick_report("2"), benchmark())
    differing = [note for note in notes if "exact count differs" in note]
    assert not differing, differing
    for workload, metric, a, b, *_rest in rows:
        if metric.split()[0] in compare.EXACT:
            assert a == b, (workload, metric, a, b)
    one, two = quick_report("1")["workloads"], quick_report("2")["workloads"]
    for workload in one:
        assert one[workload]["stats"] == two[workload]["stats"], workload


def test_single_workload_form():
    """The form the benchmark driver runs: one JSON object, last line."""
    spec = benchmark()
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "cpu_echo_small", "--seed", "11",
         "--seconds", "1", "--trace", "0"], check=True, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        emitted = result["metrics"][metric["name"]]
        assert set(emitted) == {"value", "unit"}
        assert emitted["unit"] == metric["unit"] and emitted["value"] > 0


def test_refuses_to_run_without_the_simulator():
    """In a tree holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result."""
    with tempfile.TemporaryDirectory() as scratch:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(HERE, os.path.join(scratch, "benchmarks", "perf"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, os.path.join("benchmarks", "perf", "run.py"),
             "--workload", "echo_small", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=scratch, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert done.returncode != 0
        assert done.stdout.strip() == ""


def main() -> int:
    tests = [fn for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for test in tests:
        test()
        print(f"ok   {test.__name__}")
    print(f"{len(tests)} passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
