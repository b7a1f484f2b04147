"""Unit tests for the sweep runner: ordering, seeding, telemetry
merging and error behavior."""

import json

import pytest

import repro
from repro.experiments import cpu_mediated, echo, scale_tenants, scaling, zuc
from repro.experiments.echo import fig7b_points
from repro.sweep import (
    SweepError,
    SweepPoint,
    point_seed,
    resolve_target,
    run_sweep,
    seed_payload_key,
)

from . import targets

ADD = "tests.sweep.targets:add"


def _add_points(n=6):
    return [SweepPoint("unit", ADD, {"a": i, "b": i * 10})
            for i in range(n)]


class TestRunSweep:
    def test_results_come_back_in_point_order(self):
        result = run_sweep(_add_points(), jobs=1)
        assert [row["sum"] for row in result.rows] == [
            0, 11, 22, 33, 44, 55]
        assert result.points == len(result) == 6

    def test_parallel_matches_serial_bitwise(self):
        serial = run_sweep(_add_points(), jobs=1)
        parallel = run_sweep(_add_points(), jobs=4)
        assert (json.dumps(serial.rows, sort_keys=True)
                == json.dumps(parallel.rows, sort_keys=True))
        # The per-point "noise" value proves the RNG was seeded the
        # same way in the workers as in-process.
        assert all("noise" in row for row in serial.rows)

    def test_per_point_seeding_is_content_addressed(self):
        point = SweepPoint("unit", ADD, {"a": 1, "b": 2})
        first = run_sweep([point], jobs=1).rows[0]
        again = run_sweep([point], jobs=1).rows[0]
        assert first == again
        other = run_sweep(
            [SweepPoint("unit", ADD, {"a": 1, "b": 3})], jobs=1).rows[0]
        assert other["noise"] != first["noise"]

    def test_sweep_result_is_sequence_like(self):
        result = run_sweep(_add_points(3), jobs=1)
        assert list(result)[0] == result[0]
        assert len(result) == 3

    def test_failing_target_propagates(self):
        with pytest.raises(RuntimeError, match="exploded"):
            run_sweep([SweepPoint("unit", "tests.sweep.targets:boom")])

    def test_non_json_result_is_rejected(self):
        with pytest.raises(RuntimeError, match="round-trip"):
            run_sweep([SweepPoint("unit",
                                  "tests.sweep.targets:not_json")])

    def test_telemetry_exports_merge_across_points(self):
        points = [SweepPoint("unit", "tests.sweep.targets:with_telemetry",
                             {"n": n}, telemetry=True)
                  for n in (3, 5)]
        result = run_sweep(points, jobs=1)
        assert result.metrics is not None
        exported = result.metrics.to_dict()
        assert exported["counters"]["test.calls"] == 2
        assert exported["histograms"]["test.values"]["count"] == 8

    def test_failing_target_propagates_from_a_worker(self):
        points = [SweepPoint(name, "tests.sweep.targets:boom")
                  for name in ("a", "b")]
        with pytest.raises(RuntimeError, match="exploded"):
            run_sweep(points, jobs=2)

    def test_nan_result_is_rejected(self):
        with pytest.raises(RuntimeError, match="round-trip"):
            run_sweep([SweepPoint("unit", "tests.sweep.targets:nan")])

    def test_rows_are_plain_json_serial_and_parallel(self):
        # Tuples come back as lists from either path, so a row renders
        # the same from --jobs 1 and --jobs N.
        points = [SweepPoint("unit", "tests.sweep.targets:echo",
                             {"value": v}) for v in (1, "x")]
        for jobs in (1, 2):
            assert run_sweep(points, jobs=jobs).rows == [
                {"value": 1, "pair": [1, 1]},
                {"value": "x", "pair": ["x", "x"]}]

    def test_telemetry_merges_the_same_serial_and_parallel(self):
        points = [SweepPoint("unit", "tests.sweep.targets:with_telemetry",
                             {"n": n}, telemetry=True)
                  for n in (2, 4, 7)]
        serial = run_sweep(points, jobs=1).metrics.to_dict()
        parallel = run_sweep(points, jobs=3).metrics.to_dict()
        assert serial == parallel
        assert serial["histograms"]["test.values"]["count"] == 13

    def test_points_without_telemetry_merge_no_registry(self):
        assert run_sweep(_add_points(2)).metrics is None

    def test_empty_point_list(self):
        result = run_sweep([], jobs=4)
        assert result.rows == [] and result.metrics is None

    def test_jobs_below_one_runs_serially(self):
        serial = run_sweep(_add_points(3), jobs=1)
        assert run_sweep(_add_points(3), jobs=0).rows == serial.rows

    def test_run_writes_no_files(self, tmp_path, monkeypatch):
        # Every run simulates afresh and keeps nothing on disk.
        monkeypatch.chdir(tmp_path)
        run_sweep(_add_points(2), jobs=1)
        run_sweep(_add_points(2), jobs=2)
        assert list(tmp_path.iterdir()) == []


class TestPoints:
    def test_seed_ignores_param_order(self):
        assert (SweepPoint("e", "m:f", {"a": 1, "b": 2}).seed()
                == SweepPoint("e", "m:f", {"b": 2, "a": 1}).seed())

    def test_seed_changes_with_every_part_of_the_point(self):
        base = SweepPoint("e", "m:f", {"a": 1}).seed()
        assert SweepPoint("e", "m:f", {"a": 2}).seed() != base
        assert SweepPoint("other", "m:f", {"a": 1}).seed() != base
        assert SweepPoint("e", "m:g", {"a": 1}).seed() != base
        assert SweepPoint("e", "m:f", {"a": 1},
                          telemetry="spans").seed() != base

    def test_seed_changes_with_each_telemetry_mode(self):
        seeds = {SweepPoint("e", "m:f", {"x": 1}, telemetry=mode).seed()
                 for mode in (False, True, "spans", "profile")}
        assert len(seeds) == 4

    @pytest.mark.parametrize("points, seed", [
        (echo.fig7b_points, 9865445371016588238),
        (echo.table6_points, 18000948357077143768),
        (echo.fldr_points, 1191740317926261671),
        (zuc.fig8a_points, 4847117410215466132),
        (scale_tenants.sweep_points, 16986686372149595138),
        (cpu_mediated.sweep_points, 7254128043670516416),
        (scaling.core_sweep_points, 243762109451086504),
    ], ids=["fig7b", "table6", "fldr", "fig8a", "scale-tenants",
            "cpu-mediated", "scaling"])
    def test_first_point_seed_is_pinned(self, points, seed):
        # The seed defines the simulated bytes: these literals pin the
        # frozen payload, so a change to what it hashes shows here.
        assert points()[0].seed() == seed

    def test_seed_derives_from_frozen_payload(self):
        point = SweepPoint("e", ADD, {"a": 1})
        assert point.seed() == point_seed(
            seed_payload_key("e", ADD, {"a": 1}))
        assert 0 <= point.seed() < 2 ** 64

    def test_package_version_never_reseeds(self, monkeypatch):
        # The seed defines the simulated bytes: a release bump must not
        # move any of them, so the payload hashes a frozen literal.
        before = [point.seed() for point in fig7b_points()]
        monkeypatch.setattr(repro, "__version__", "99.0.0")
        assert [point.seed() for point in fig7b_points()] == before

    def test_non_json_params_are_rejected(self):
        with pytest.raises(SweepError, match="JSON"):
            SweepPoint("e", "m:f", {"bad": object()}).seed()

    def test_resolve_target_validates(self):
        assert resolve_target(ADD) is targets.add
        with pytest.raises(SweepError, match="look like"):
            resolve_target("no-colon")
        with pytest.raises(SweepError, match="cannot import"):
            resolve_target("no.such.module:f")
        with pytest.raises(SweepError, match="callable"):
            resolve_target("tests.sweep.targets:NOT_CALLABLE")

    def test_label_is_stable(self):
        point = SweepPoint("fig", ADD, {"b": 2, "a": 1})
        assert point.label() == "fig(a=1, b=2)"


class TestSpansTelemetryMode:
    def test_spans_mode_exports_stage_histograms(self):
        points = [SweepPoint("unit", "tests.sweep.targets:with_spans",
                             {"n": 3}, telemetry="spans")]
        outcome = run_sweep(points)
        hist = outcome.metrics.histogram("spans.stage.wire.service")
        assert hist.count == 3
        assert outcome.metrics.histogram("spans.e2e").count == 3

    def test_plain_telemetry_mode_records_no_spans(self):
        points = [SweepPoint("unit", "tests.sweep.targets:with_spans",
                             {"n": 3}, telemetry=True)]
        outcome = run_sweep(points)
        assert "spans.e2e" not in outcome.metrics

    def test_spans_mode_merges_the_same_serial_and_parallel(self):
        points = [SweepPoint("unit", "tests.sweep.targets:with_spans",
                             {"n": n}, telemetry="spans")
                  for n in (2, 4)]
        serial = run_sweep(points, jobs=1).metrics
        parallel = run_sweep(points, jobs=2).metrics
        assert serial.to_dict() == parallel.to_dict()
        assert serial.histogram("spans.stage.wire.service").count == 6


class TestProfileTelemetryMode:
    def test_profile_mode_exports_event_counters(self):
        points = [SweepPoint("unit", "tests.sweep.targets:with_profile",
                             {"n": 3}, telemetry="profile")]
        outcome = run_sweep(points)
        # Bootstrap + n timeouts, all owned by the worker process.
        assert outcome.metrics.counter("profile.events.total").value == 4
        assert outcome.metrics.counter(
            "profile.stage.other.events").value == 4

    def test_sweep_merged_profile_equals_single_run(self):
        # The sharding contract applied to the profiler: the sweep's
        # merged profile.* counters must equal what one direct run of
        # the same points records into a single registry.
        from repro.telemetry import Telemetry
        counts = [2, 5]
        points = [SweepPoint("unit", "tests.sweep.targets:with_profile",
                             {"n": n}, telemetry="profile")
                  for n in counts]
        merged = run_sweep(points).metrics

        direct = None
        total = 0
        for n in counts:
            telemetry = Telemetry(trace=False, profile=True)
            targets.with_profile(n, telemetry=telemetry)
            total += n + 1
            if direct is None:
                direct = telemetry.metrics
            else:
                direct.merge_from(telemetry.metrics.to_dict())
        assert merged.counter("profile.events.total").value == total
        for name in ("profile.events.total",
                     "profile.stage.other.events"):
            assert merged.counter(name).value == \
                direct.counter(name).value

    def test_plain_telemetry_mode_records_no_profile(self):
        points = [SweepPoint("unit", "tests.sweep.targets:with_profile",
                             {"n": 3}, telemetry=True)]
        outcome = run_sweep(points)
        assert "profile.events.total" not in outcome.metrics
