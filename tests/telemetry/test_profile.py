"""Simulator profiler: event attribution, determinism, NULL fast path."""

import json
import random
from functools import partial

import pytest

from repro.scenario import SCENARIOS, observe
from repro.sim import Simulator
from repro.telemetry import (
    NULL_PROFILER,
    SimProfiler,
    Telemetry,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profile import UNOWNED


def _profiled_sim(wallclock=False):
    telemetry = Telemetry(trace=False, profile=True,
                          profile_wallclock=wallclock)
    return Simulator(telemetry=telemetry), telemetry


class TestTagOwnership:
    def test_process_events_carry_the_process_name(self):
        sim, telemetry = _profiled_sim()

        def proc(sim):
            yield sim.timeout(1.0)
            yield sim.timeout(1.0)

        sim.spawn(proc(sim), name="worker")
        sim.run()
        prof = telemetry.profiler
        # One bootstrap event plus the two timeouts.
        assert prof.event_counts.get("worker") == 3
        assert prof.total_events == sum(prof.event_counts.values())

    def test_bound_method_events_use_the_owner_profile_tag(self):
        sim, telemetry = _profiled_sim()

        class Widget:
            profile_tag = "gadget"
            hits = 0

            def poke(self):
                self.hits += 1

        widget = Widget()
        sim.schedule(0.5, widget.poke)
        sim.run()
        assert widget.hits == 1
        assert telemetry.profiler.event_counts == {"gadget": 1}

    def test_untagged_callables_file_under_their_qualname(self):
        sim, telemetry = _profiled_sim()
        fired = []

        def proc(sim):
            # A bare closure scheduled from inside the process has no
            # owner: it files under its own name, not the process's.
            sim.schedule(0.1, lambda: fired.append(sim.now))
            yield sim.timeout(1.0)

        sim.spawn(proc(sim), name="origin")
        sim.run()
        assert fired == [0.1]
        # Bootstrap + timeout are the process's; the closure is unowned.
        assert telemetry.profiler.event_counts == {
            "origin": 2,
            UNOWNED + "TestTagOwnership.test_untagged_callables_file_under_"
                      "their_qualname.<locals>.proc.<locals>.<lambda>": 1,
        }

    def test_pre_run_scheduling_files_under_the_owner(self):
        sim, telemetry = _profiled_sim()

        class Widget:
            profile_tag = "gadget"

            def poke(self):
                pass

        fired = []
        sim.schedule(1.0, Widget().poke)
        sim.schedule(1.0, partial(fired.append, 1))
        sim.timeout(2.0)    # nobody waits on it
        sim.run()
        assert fired == [1]
        # Each files under its owner or, owner-less, under its own name.
        assert telemetry.profiler.event_counts == {
            "gadget": 1, UNOWNED + "partial": 1,
            UNOWNED + "Event.succeed": 1}


class TestClassification:
    def test_builtin_heuristics(self):
        prof = SimProfiler()
        assert prof.classify("pcie") == "pcie"
        assert prof.classify("client.nic.sq1.tx") == "nic.queues"
        assert prof.classify("client.nic.rdma") == "nic.rdma"
        assert prof.classify("client.nic.shaper") == "nic.shaper"
        assert prof.classify("client.nic.port.wire") == "wire"
        assert prof.classify("fld0.kdriver") == "host"
        assert prof.classify("ethqp1.rx") == "host"
        assert prof.classify("echo.unit0") == "accel"
        assert prof.classify("run") == "app"
        assert prof.classify("mystery-component") == "other"
        # The owner-less fallback never reads as a stage.
        assert prof.classify(UNOWNED + "_Unit.unit0") == "other"

    def test_declared_prefix_beats_builtin_heuristics(self):
        prof = SimProfiler()
        assert prof.classify("fld0.tx") == "other"
        prof.declare("fld0.tx", "fld.tx")
        assert prof.classify("fld0.tx") == "fld.tx"
        assert prof.classify("fld0.tx.ring") == "fld.tx"

    def test_longest_declared_prefix_wins_and_redeclare_overwrites(self):
        prof = SimProfiler()
        prof.declare("dev", "coarse")
        prof.declare("dev.sub", "fine")
        assert prof.classify("dev.sub.x") == "fine"
        assert prof.classify("dev.other") == "coarse"
        prof.declare("dev", "recoarsed")
        assert prof.classify("dev.other") == "recoarsed"

    def test_classification_is_total_so_stage_sums_match(self):
        prof = SimProfiler()
        prof.event_counts = {"pcie": 3, "???": 2, "run": 1}
        prof.total_events = 6
        assert sum(prof.stage_counts().values()) == prof.total_events


class TestDepthTimeline:
    def test_samples_are_taken_at_the_configured_interval(self):
        prof = SimProfiler(depth_sample_every=2, max_depth_samples=100)
        for i in range(1, 9):
            if i % prof.depth_every == 0:
                prof.record_depth(i, depth=i * 10)
        assert prof.depth_samples == [(2, 20), (4, 40), (6, 60), (8, 80)]

    def test_compaction_halves_samples_and_doubles_interval(self):
        prof = SimProfiler(depth_sample_every=1, max_depth_samples=4)
        for i in range(1, 5):
            prof.record_depth(i, depth=i)
        # The fourth append hits the cap: every other sample dropped,
        # interval doubled.
        assert prof.depth_samples == [(1, 1), (3, 3)]
        assert prof.depth_every == 2


class TestRegistryFlush:
    def test_flush_is_delta_based(self):
        registry = MetricsRegistry()
        prof = SimProfiler(registry=registry)
        prof.event_counts = {"pcie": 5, "run": 1}
        prof.total_events = 6
        prof.flush()
        prof.flush()  # no double counting
        assert registry.counter("profile.events.total").value == 6
        assert registry.counter("profile.stage.pcie.events").value == 5
        assert registry.counter("profile.stage.app.events").value == 1
        prof.event_counts["pcie"] += 2
        prof.total_events += 2
        prof.flush()
        assert registry.counter("profile.events.total").value == 8
        assert registry.counter("profile.stage.pcie.events").value == 7

    def test_wall_times_never_reach_the_registry(self):
        registry = MetricsRegistry()
        prof = SimProfiler(wallclock=True, registry=registry)
        prof.wall_times[("pcie", "f")] = [1.0, 3]
        prof.event_counts = {"pcie": 3}
        prof.total_events = 3
        prof.flush()
        assert all("wall" not in name for name in registry.names())


class TestCollapsedStacks:
    def test_event_count_stacks_without_wallclock(self):
        prof = SimProfiler()
        prof.event_counts = {"pcie": 4, "run": 2}
        # Sorted by tag for deterministic output.
        assert prof.collapsed_stacks() == ["pcie;pcie 4", "app;run 2"]

    def test_wallclock_stacks_carry_callsites_in_microseconds(self):
        prof = SimProfiler(wallclock=True)
        prof.wall_times[("pcie", "PcieFabric._deliver")] = [0.002, 7]
        assert prof.collapsed_stacks() == [
            "pcie;pcie;PcieFabric._deliver 2000"]


class TestNullProfiler:
    def test_null_profiler_keeps_the_engine_unprofiled(self):
        sim = Simulator()
        assert sim.profiler is NULL_PROFILER
        assert sim._prof is None
        # The profiled run loop is not reachable without a profiler.
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.stats_events == 1


class TestStageAttribution:
    def test_echo_burst_files_every_event_under_its_stage(self):
        """A continuation scheduled on behalf of a stage carries that
        stage's tag wherever it is pushed from.  The counts are the
        generator datapath's for this burst (units and ``fld.send`` as
        processes): per packet 2 ``accel`` (processing time, FLD
        pipeline occupancy), 1 ``fld.rx``, 1 ``fld.tx``, ~10 ``pcie``.
        An occupancy wait bound to the FlexDriver instead of the
        sending unit reads ``accel`` 258, ``fld.rx`` 512 here — and
        would skew ``events_per_pkt.*`` in ``benchmarks/perf``."""
        from repro.experiments.setups import flde_echo_remote
        random.seed(7)
        sim, telemetry = _profiled_sim()
        loadgen = flde_echo_remote(sim).loadgen

        def drive():
            yield from loadgen.run_open_loop([64] * 256, rate_pps=12.8e6)
            yield from loadgen.drain()

        sim.spawn(drive())
        sim.run()
        assert loadgen.stats_received == 256
        assert telemetry.profiler.stage_counts() == {
            "pcie": 2553, "nic.queues": 518, "accel": 514, "wire": 512,
            "app": 259, "host": 257, "fld.rx": 256, "fld.tx": 256}


class TestProfiledRuns:
    """Integration: full experiments under ``observe("profile", ...)``."""

    @pytest.fixture(scope="class")
    def echo_summary(self):
        from repro.scenario import observe
        random.seed(1234)
        return observe("profile", "echo", count=200)

    def test_stage_sums_equal_engine_event_total(self, echo_summary):
        profile = echo_summary["profile"]
        stage_sum = sum(s["events"] for s in profile["stages"].values())
        assert stage_sum == profile["total_events"]
        assert stage_sum == echo_summary["engine_events"]

    def test_events_per_packet_reported(self, echo_summary):
        profile = echo_summary["profile"]
        assert profile["delivered"] == echo_summary["delivered"] > 0
        assert profile["events_per_packet"] == pytest.approx(
            profile["total_events"] / profile["delivered"])
        # The paper-pipeline stages all appear on the echo path.
        for stage in ("pcie", "nic.queues", "wire", "fld.tx", "fld.rx",
                      "accel", "host", "app"):
            assert stage in profile["stages"], stage

    def test_nothing_lands_in_other(self, echo_summary):
        # Every component on the echo datapath is tagged/classified;
        # an "other" bucket means a new component escaped the rules.
        assert "other" not in echo_summary["profile"]["stages"]

    def test_rendered_report_contains_the_tables(self, echo_summary):
        rendered = echo_summary["rendered"]
        assert "per-stage event counts" in rendered
        assert "events/packet" in rendered

    def test_audit_is_clean(self, echo_summary):
        assert echo_summary["violations"] == []

    def test_profiled_runs_are_deterministic(self):
        from repro.scenario import observe
        random.seed(77)
        first = observe("profile", "echo", count=120)
        random.seed(77)
        second = observe("profile", "echo", count=120)
        assert first["profile"] == second["profile"]
        assert first["result"] == second["result"]

    def test_profiler_off_is_bit_identical_to_untraced(self):
        # The fingerprint pin for the NULL fast path: a profiled run,
        # a metrics-only run and a bare run must produce the exact same
        # experiment result (== on floats, not approx).
        from repro.experiments.echo import echo_throughput

        def fingerprint(telemetry):
            random.seed(4321)
            return echo_throughput("flde-remote", 256, count=150,
                                   telemetry=telemetry)

        bare = fingerprint(None)
        profiled = fingerprint(Telemetry(trace=False, profile=True))
        wallclock = fingerprint(Telemetry(trace=False, profile=True,
                                          profile_wallclock=True))
        assert bare == profiled == wallclock

    def test_wallclock_mode_attributes_callsites(self):
        from repro.scenario import observe
        random.seed(5)
        summary = observe("profile", "echo", count=100, wallclock=True)
        wall = summary["profile"]["wall"]
        assert wall["seconds"] > 0
        assert wall["top"], "no callsites attributed"
        top = wall["top"][0]
        assert set(top) == {"tag", "callsite", "seconds", "events",
                            "stage"}
        for line in summary["profile"]["collapsed"]:
            stack, weight = line.rsplit(" ", 1)
            assert stack.count(";") == 2
            assert int(weight) > 0

    def test_unknown_experiment_is_rejected(self):
        from repro.scenario import observe
        with pytest.raises(ValueError, match="unknown experiment"):
            observe("profile", "nope")

    def test_artifacts_are_written(self, tmp_path):
        from repro.scenario import observe
        random.seed(9)
        out_json = tmp_path / "profile.json"
        out_folded = tmp_path / "profile.folded"
        summary = observe("profile", "echo", count=100,
                          output=str(out_json),
                          collapsed_output=str(out_folded))
        document = json.loads(out_json.read_text())
        assert document["profile"]["total_events"] == \
            summary["profile"]["total_events"]
        folded = out_folded.read_text().strip().splitlines()
        assert folded  # event-count stacks, one line per tag
        assert len(folded) == len(summary["profile"]["tags"])
        for line in folded:
            stack, weight = line.rsplit(" ", 1)
            assert stack.count(";") == 1
            assert int(weight) > 0


@pytest.mark.parametrize("row", sorted(SCENARIOS))
def test_every_row_files_each_event_under_an_owner(row, tmp_path):
    """A continuation pushed on a stage's behalf must be a bound method
    of that stage (or resolve its tag through a callable it carries):
    an owner-less one files under ``unowned:`` and would quietly move
    ``events_per_pkt.*``."""
    count = None if SCENARIOS[row].count is None else 40
    stacks = tmp_path / "stacks.txt"
    summary = observe("profile", row, count=count,
                      collapsed_output=str(stacks))
    assert summary["violations"] == []
    tags = [line.split(";")[1].rsplit(" ", 1)[0]
            for line in stacks.read_text().splitlines()]
    assert tags and not [tag for tag in tags if tag.startswith(UNOWNED)]
