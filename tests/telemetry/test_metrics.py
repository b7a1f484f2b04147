"""Unit tests for the metrics registry: counters, gauges, histograms,
snapshots and probes."""

import json

import pytest

from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    NULL_TELEMETRY,
    Telemetry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("x")
        assert counter.value == 0
        counter.inc()
        counter.inc(41)
        assert counter.value == 42


class TestGauge:
    def test_tracks_peak(self):
        gauge = Gauge("depth")
        gauge.set(3)
        gauge.set(10)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.peak == 10


def test_each_instrument_repr_names_it_and_its_reading():
    counter, gauge, histogram = Counter("rx"), Gauge("depth"), \
        Histogram("lat")
    counter.inc(3)
    gauge.set(5)
    gauge.set(2)
    for value in (1.0, 2.0):
        histogram.observe(value)
    assert len(histogram) == histogram.count == 2
    assert [repr(i) for i in (counter, gauge, histogram)] == [
        "Counter('rx', 3)", "Gauge('depth', 2, peak=5)",
        "Histogram('lat', n=2)"]


class TestHistogram:
    def test_log2_bucketing(self):
        histogram = Histogram("lat")
        for v in (1.0, 1.5, 2.0, 3.0, 100.0):
            histogram.observe(v)
        assert histogram.count == 5
        # 1.0 -> exponent 1 via frexp(0.5, 1); 1.5, 2.0 -> exponent 1;
        # 3.0 -> exponent 2; 100.0 -> exponent 7.
        assert sum(histogram.buckets.values()) == 5
        assert histogram.min == 1.0
        assert histogram.max == 100.0
        assert histogram.mean == pytest.approx(107.5 / 5)

    def test_underflow_bucket(self):
        histogram = Histogram()
        histogram.observe(0.0)
        histogram.observe(-5.0)
        histogram.observe(2.0)
        assert histogram.underflow == 2
        assert sum(histogram.buckets.values()) == 1

    def test_percentile_within_factor_of_two(self):
        histogram = Histogram()
        for _ in range(100):
            histogram.observe(10.0)
        p50 = histogram.percentile(50)
        assert 8.0 <= p50 <= 16.0  # the bucket holding 10.0

    def test_percentile_empty_raises(self):
        with pytest.raises(MetricsError):
            Histogram().percentile(50)

    def test_merge_adds_buckets_without_copying_samples(self):
        a, b = Histogram("a"), Histogram("b")
        for v in (1.0, 4.0, 9.0):
            a.observe(v)
        for v in (9.0, 70.0):
            b.observe(v)
        merged = a.merge(b)
        assert merged is a
        assert a.count == 5
        assert a.total == pytest.approx(93.0)
        assert a.min == 1.0
        assert a.max == 70.0

    def test_merge_rejects_non_histogram(self):
        with pytest.raises(MetricsError):
            Histogram().merge(Counter("nope"))

    def test_merge_with_empty_is_identity_either_way(self):
        populated = Histogram("p")
        for v in (1.0, 4.0, -2.0):
            populated.observe(v)
        before = populated.to_dict()
        populated.merge(Histogram("empty"))
        assert populated.to_dict() == before
        # Empty absorbing populated reproduces it exactly.
        empty = Histogram("e")
        empty.merge(populated)
        assert empty.count == populated.count
        assert empty.total == pytest.approx(populated.total)
        assert empty.buckets == populated.buckets
        assert empty.min == populated.min
        assert empty.max == populated.max
        assert empty.underflow == populated.underflow

    def test_dict_round_trip(self):
        histogram = Histogram("rtt")
        for v in (0.5, 3.0, 3.5, 200.0, -1.0):
            histogram.observe(v)
        data = json.loads(json.dumps(histogram.to_dict()))
        back = Histogram.from_dict(data)
        assert back.count == histogram.count
        assert back.total == pytest.approx(histogram.total)
        assert back.buckets == histogram.buckets
        assert back.underflow == histogram.underflow


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")

    def test_type_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricsError):
            registry.gauge("x")

    def test_probes_sampled_lazily(self):
        registry = MetricsRegistry()
        state = {"calls": 0}

        def probe():
            state["calls"] += 1
            return {"depth": 7}

        registry.register_probe("queue", probe)
        assert state["calls"] == 0
        assert registry.sample_probes() == {"queue.depth": 7}
        assert state["calls"] == 1

    def test_pulled_counts_export_as_counters(self):
        registry = MetricsRegistry()
        owner = {"tx": 0}
        registry.register_counters("nic.a", lambda: {"tx.wqes": owner["tx"]})
        registry.counter("spans.sampler.sampled").inc()
        before = registry.snapshot(include_probes=False)
        owner["tx"] += 3
        assert before["nic.a.tx.wqes"] == 0
        assert registry.snapshot()["nic.a.tx.wqes"] == 3
        assert registry.to_dict()["counters"] == {
            "nic.a.tx.wqes": 3, "spans.sampler.sampled": 1}
        # ... so shards sum them like any pushed counter.
        merged = MetricsRegistry()
        merged.merge_from(registry.to_dict()).merge_from(registry.to_dict())
        assert merged.counter("nic.a.tx.wqes").value == 6

    def test_sources_sharing_a_name_add_up(self):
        # A rebuilt component (or two with one name) reads as one
        # monotone count, as a shared pushed counter did.
        registry = MetricsRegistry()
        registry.register_counters("link.wire", lambda: {"bits": 512})
        registry.register_counters("link.wire", lambda: {"bits": 64})
        assert registry.to_dict()["counters"] == {"link.wire.bits": 576}

    def test_pulled_levels_export_as_gauges(self):
        registry = MetricsRegistry()
        level = {"depth": (0, 0)}
        registry.register_gauges("store.q", lambda: level)
        level["depth"] = (2, 5)
        assert registry.to_dict()["gauges"] == {
            "store.q.depth": {"value": 2, "peak": 5}}
        snap = registry.snapshot()
        assert (snap["store.q.depth"], snap["store.q.depth.peak"]) == (2, 5)
        assert "store.q.depth" in registry
        assert registry.names() == ["store.q.depth"]
        # A shard carries it as a gauge.
        merged = MetricsRegistry().merge_from(registry.to_dict())
        assert merged.to_dict()["gauges"] == registry.to_dict()["gauges"]

    def test_gauge_sources_sharing_a_name_sum_values_and_keep_the_peak(self):
        registry = MetricsRegistry()
        registry.register_gauges("sq1", lambda: {"outstanding": (3, 4)})
        registry.register_gauges("sq1", lambda: {"outstanding": (1, 9)})
        assert registry.to_dict()["gauges"] == {
            "sq1.outstanding": {"value": 4, "peak": 9}}

    def test_a_pulled_gauge_collides_with_any_other_kind(self):
        registry = MetricsRegistry()
        registry.register_gauges("store.q", lambda: {"depth": (0, 0)})
        for create in (registry.counter, registry.gauge, registry.histogram):
            with pytest.raises(MetricsError):
                create("store.q.depth")
        with pytest.raises(MetricsError):
            registry.register_counters("store.q", lambda: {"depth": 1})
        registry = MetricsRegistry()
        registry.register_counters("store.q", lambda: {"depth": 1})
        with pytest.raises(MetricsError):
            registry.register_gauges("store.q", lambda: {"depth": (0, 0)})
        registry = MetricsRegistry()
        registry.gauge("store.q.depth")
        with pytest.raises(MetricsError):
            registry.register_gauges("store.q", lambda: {"depth": (0, 0)})

    def test_snapshot_without_probes(self):
        registry = MetricsRegistry()
        registry.register_probe("p", lambda: {"x": 1})
        snap = registry.snapshot(include_probes=False)
        assert "p.x" not in snap

    def test_to_dict_groups_by_kind(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(3)
        registry.histogram("h").observe(1.0)
        registry.register_probe("p", lambda: {"k": 9})
        data = registry.to_dict()
        assert data["counters"] == {"c": 2}
        assert data["gauges"]["g"] == {"value": 3, "peak": 3}
        assert data["histograms"]["h"]["count"] == 1
        assert data["probes"] == {"p.k": 9}
        json.loads(registry.to_json())  # serializable


class TestMergeFrom:
    """Registry aggregation: the sweep/benchmark sharding contract."""

    def test_merge_empty_export_is_a_no_op(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.histogram("h").observe(2.0)
        before = registry.to_dict()
        registry.merge_from({})
        registry.merge_from({"counters": {}, "gauges": {},
                             "histograms": {}})
        assert registry.to_dict() == before

    def test_merge_into_empty_reproduces_the_export(self):
        source = MetricsRegistry()
        source.counter("tlps").inc(7)
        source.gauge("depth").set(4)
        source.histogram("lat").observe(1.5)
        export = json.loads(json.dumps(source.to_dict()))
        target = MetricsRegistry()
        target.merge_from(export)
        assert target.to_dict() == source.to_dict()

    def test_merge_disjoint_instruments_unions(self):
        a = MetricsRegistry()
        a.counter("only.a").inc(1)
        a.histogram("hist.a").observe(2.0)
        b = MetricsRegistry()
        b.counter("only.b").inc(2)
        b.gauge("gauge.b").set(5)
        merged = MetricsRegistry()
        merged.merge_from(a.to_dict())
        merged.merge_from(b.to_dict())
        assert merged.counter("only.a").value == 1
        assert merged.counter("only.b").value == 2
        assert merged.gauge("gauge.b").value == 5
        assert merged.histogram("hist.a").count == 1

    def test_merge_overlapping_counters_add_and_gauges_keep_peak(self):
        shard = MetricsRegistry()
        shard.counter("c").inc(10)
        gauge = shard.gauge("g")
        gauge.set(9)
        gauge.set(2)
        merged = MetricsRegistry()
        merged.merge_from(shard.to_dict())
        merged.merge_from(shard.to_dict())
        assert merged.counter("c").value == 20
        assert merged.gauge("g").value == 2
        assert merged.gauge("g").peak == 9

    def test_merged_profiler_shards_sum_exactly(self):
        # Two profiled shards of a simulation must merge to the totals a
        # single combined run would report: profile.* instruments are
        # plain counters, so merge_from adds them loss-free.
        from repro.telemetry.profile import SimProfiler

        def shard(events):
            registry = MetricsRegistry()
            profiler = SimProfiler(registry=registry)
            for tag, count in events.items():
                profiler.event_counts[tag] = count
                profiler.total_events += count
            profiler.flush()
            return registry

        first = shard({"pcie": 5, "run": 2})
        second = shard({"pcie": 3, "client.nic.rq1": 4})
        merged = MetricsRegistry()
        merged.merge_from(first.to_dict())
        merged.merge_from(second.to_dict())
        combined = shard({"pcie": 8, "run": 2, "client.nic.rq1": 4})
        assert merged.to_dict() == combined.to_dict()


class TestNullSink:
    def test_null_telemetry_hands_out_no_instruments(self):
        # Components check ``enabled`` once at construction; there is
        # no null object to call on the datapath.
        assert NULL_TELEMETRY.enabled is False
        assert NULL_TELEMETRY.metrics.enabled is False
        for factory in ("counter", "gauge", "histogram"):
            assert not hasattr(NULL_TELEMETRY, factory)
            assert not hasattr(NULL_TELEMETRY.metrics, factory)
        # Each part is an ``enabled = False`` holder with nothing to call.
        for part in (NULL_TELEMETRY, NULL_TELEMETRY.metrics,
                     NULL_TELEMETRY.tracer, NULL_TELEMETRY.spans,
                     NULL_TELEMETRY.profiler):
            assert part.enabled is False
            assert not [name for name in dir(part)
                        if not name.startswith("_") and name != "enabled"
                        and callable(getattr(part, name))]

    def test_enabled_telemetry_records(self):
        telemetry = Telemetry(trace=False)
        assert telemetry.enabled is True
        telemetry.metrics.counter("c").inc()
        assert telemetry.metrics.counter("c").value == 1
        assert telemetry.tracer.enabled is False  # trace=False


class TestPercentileKnownDistributions:
    """Histogram.percentile against distributions with known answers.

    log2 buckets bound the error to a factor of two inside a bucket;
    interpolation plus min/max clamping makes the common cases exact.
    """

    def test_constant_distribution_is_exact(self):
        histogram = Histogram()
        for _ in range(1000):
            histogram.observe(3.7)
        for pct in (0, 1, 50, 99, 100):
            assert histogram.percentile(pct) == pytest.approx(3.7)

    def test_single_sample_is_exact(self):
        histogram = Histogram()
        histogram.observe(42.0)
        assert histogram.percentile(0) == 42.0
        assert histogram.percentile(50) == 42.0
        assert histogram.percentile(100) == 42.0

    def test_uniform_distribution_within_bucket_resolution(self):
        # U(0, 1000]: true p-th percentile is 10*p.
        histogram = Histogram()
        for i in range(1, 1001):
            histogram.observe(float(i))
        for pct, truth in ((10, 100.0), (50, 500.0), (90, 900.0),
                           (99, 990.0)):
            estimate = histogram.percentile(pct)
            assert truth / 2 <= estimate <= truth * 2, \
                f"p{pct}: {estimate} vs {truth}"

    def test_bimodal_distribution_separates_modes(self):
        # 90% fast (1 us), 10% slow (1 ms): p50 must sit near the fast
        # mode and p99 near the slow one — three orders apart.
        histogram = Histogram()
        for _ in range(900):
            histogram.observe(1e-6)
        for _ in range(100):
            histogram.observe(1e-3)
        assert histogram.percentile(50) <= 2e-6
        assert histogram.percentile(99) >= 0.5e-3

    def test_extremes_clamp_to_observed_range(self):
        histogram = Histogram()
        for v in (2.0, 3.0, 5.0, 9.0):
            histogram.observe(v)
        assert histogram.percentile(0) == 2.0
        assert histogram.percentile(100) == 9.0

    def test_monotone_in_pct(self):
        histogram = Histogram()
        for i in range(1, 513):
            histogram.observe(float(i))
        estimates = [histogram.percentile(p) for p in range(0, 101, 5)]
        assert estimates == sorted(estimates)

    def test_underflow_dominated_percentiles(self):
        histogram = Histogram()
        histogram.observe(-1.0)
        histogram.observe(-2.0)
        histogram.observe(8.0)
        # Two thirds of the mass is non-positive.
        assert histogram.percentile(50) <= 0.0
        assert histogram.percentile(100) == 8.0
