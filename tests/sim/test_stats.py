"""Unit tests for statistics helpers."""

import pytest

from repro.sim import LatencyCollector, ThroughputMeter, percentile


class TestPercentile:
    def test_median_of_odd_list(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 50) == pytest.approx(5.0)
        assert percentile([0, 10], 25) == pytest.approx(2.5)

    def test_extremes(self):
        data = [5, 1, 9, 3]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 9

    def test_single_sample(self):
        assert percentile([7.0], 99.9) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_pct_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_matches_numpy(self):
        numpy = pytest.importorskip("numpy")
        data = [1.0, 5.0, 2.5, 9.9, 4.4, 0.1, 7.7]
        for pct in (1, 25, 50, 75, 99, 99.9):
            assert percentile(data, pct) == pytest.approx(
                float(numpy.percentile(data, pct))
            )


class TestLatencyCollector:
    def test_summary_fields(self):
        collector = LatencyCollector()
        for value in range(1, 101):
            collector.add(float(value))
        summary = collector.summary()
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["median"] == pytest.approx(50.5)
        assert summary["p99"] == pytest.approx(99.01)
        assert len(collector) == 100

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError):
            _ = LatencyCollector().mean


class TestThroughputMeter:
    def test_gbps_calculation(self):
        meter = ThroughputMeter()
        meter.start(0.0)
        meter.record(1.0, 125_000_000)  # 1 Gbit in 1 s
        assert meter.gbps() == pytest.approx(1.0)

    def test_mpps_calculation(self):
        meter = ThroughputMeter()
        meter.start(0.0)
        for i in range(1000):
            meter.record((i + 1) * 1e-6, 64)
        assert meter.mpps() == pytest.approx(1.0)

    def test_zero_duration_returns_zero(self):
        meter = ThroughputMeter()
        meter.start(5.0)
        assert meter.gbps() == 0.0
        assert meter.mpps() == 0.0

    def test_wire_overhead_counted(self):
        meter = ThroughputMeter()
        meter.start(0.0)
        meter.record(1.0, 1000)
        assert meter.gbps(wire_overhead_per_packet=24) == pytest.approx(
            (1000 + 24) * 8 / 1e9
        )
