"""Smoke tests for the experiment harnesses (fast, reduced scale).

The benchmarks run these at full scale; here we pin the harness APIs and
the qualitative outcomes so refactors can't silently break them.
"""

import pytest

from repro.experiments.echo import (
    echo_latency,
    echo_throughput,
    fig7c_points,
    fldr_throughput,
    trace_forwarding,
)
from repro.experiments.scaling import throughput as scaling_throughput
from repro.experiments.zuc import cpu_throughput, fld_throughput
from repro.sweep import run_sweep


class TestEchoHarness:
    def test_throughput_modes(self):
        for mode in ("flde-remote", "cpu-remote", "flde-local"):
            result = echo_throughput(mode, 512, count=150)
            assert result["received"] > 0
            assert result["gbps"] > 1.0
            assert result["mode"] == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            echo_throughput("bogus", 64)

    def test_latency_summary_fields(self):
        result = echo_latency("flde", count=120)
        assert result["count"] == 120
        assert 0 < result["median_us"] < result["p999_us"] + 1e-9

    def test_trace_forwarding_shapes(self):
        flde = trace_forwarding("flde", count=800)
        cpu = trace_forwarding("cpu", count=800)
        assert flde["mpps"] > 0 and cpu["mpps"] > 0

    def test_latency_vs_load_monotone_queueing(self):
        rows = run_sweep(fig7c_points(loads=[2e5, 1.5e6],
                                      per_point=150)).rows
        assert rows[0]["median_latency_us"] is not None
        assert (rows[1]["median_latency_us"]
                >= rows[0]["median_latency_us"] * 0.9)

    @pytest.mark.parametrize("count", [0, 1])
    def test_fldr_goodput_is_zero_without_two_responses(self, count):
        # Goodput spans the first to the last response: with fewer than
        # two there is no interval, and nothing was measured.
        result = fldr_throughput(1024, count=count)
        assert result["received"] == count
        assert result["gbps"] == 0.0


class TestScalingHarness:
    def test_two_cores_beat_one(self):
        one = scaling_throughput(1, count=500)
        two = scaling_throughput(2, count=500)
        assert two["gbps"] > one["gbps"] * 1.4
        assert two["active_cores"] == 2

    def test_per_core_distribution_reported(self):
        result = scaling_throughput(4, count=400)
        assert len(result["per_core_packets"]) == 4
        assert sum(result["per_core_packets"]) == result["received"]


class TestZucHarness:
    def test_fld_beats_cpu_at_512(self):
        fld = fld_throughput(512, count=120)
        cpu = cpu_throughput(512, count=120)
        assert fld["gbps"] > cpu["gbps"] * 2
        assert fld["model_gbps"] == cpu["model_gbps"]

    def test_latency_reported(self):
        result = fld_throughput(256, count=80, window=4)
        assert result["median_latency_us"] > 1.0
