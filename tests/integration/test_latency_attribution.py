"""End-to-end latency attribution: spans through the full datapath.

The acceptance bar for the observability slice: run echo with every
packet traced, and (a) each traced packet's per-stage sums reconcile
with its end-to-end latency within 1%, (b) the invariant auditor finds
nothing — zero orphaned spans, no credit/buffer/descriptor leaks, no
queue residue — and (c) sampling and the disabled NULL path behave.
"""

import pytest

from repro.scenario import observe
from repro.telemetry import Telemetry
from repro.telemetry.audit import assert_clean
from repro.telemetry.latency import STAGE_ORDER
from repro.telemetry.spans import attribute_trace


class TestEchoAttribution:
    @pytest.fixture(scope="class")
    def summary(self):
        return observe("latency", "echo", count=60)

    def test_every_packet_reconciles_within_1pct(self, summary):
        reconciliation = summary["report"]["reconciliation"]
        assert reconciliation["within_1pct"], \
            f"max error {reconciliation['max_error']:.4%}"

    def test_all_traces_finish_with_zero_orphans(self, summary):
        report = summary["report"]
        assert report["traces"] == 60
        assert report["unfinished"] == 0
        assert report["orphaned_spans"] == 0

    def test_audit_is_clean(self, summary):
        assert_clean([])  # sanity: empty list passes
        assert summary["violations"] == []

    def test_stage_rows_cover_the_flde_path(self, summary):
        stages = {r["stage"] for r in summary["report"]["stages"]}
        # The FLD-E echo path crosses at least these stages.
        for expected in ("pcie.doorbell", "nic.tx", "wire", "nic.rx",
                         "pcie.dma_write", "fld.rx", "accel", "fld.tx",
                         "pcie.cqe_write", "host.rx"):
            assert expected in stages, f"missing stage {expected!r}"
        named = stages - {"(unattributed)"}
        assert named <= set(STAGE_ORDER)

    def test_e2e_matches_experiment_result(self, summary):
        # The span-derived end-to-end median must agree with the
        # experiment's own RTT measurement (same packets, same clock).
        assert summary["report"]["e2e"]["p50_us"] == pytest.approx(
            summary["result"]["median_us"], rel=0.05)


class TestSamplingAndScope:
    def test_sample_rate_traces_one_in_n(self):
        summary = observe("latency", "echo", count=60, sample_rate=10)
        assert summary["traces"] == 6
        assert summary["violations"] == []

    def test_cpu_echo_attributes_cleanly(self):
        summary = observe("latency", "cpu-echo", count=40)
        assert summary["report"]["reconciliation"]["within_1pct"]
        assert summary["violations"] == []
        stages = {r["stage"] for r in summary["report"]["stages"]}
        # The CPU baseline never touches the FLD engines.
        assert "fld.rx" not in stages
        assert "accel" not in stages

    def test_unknown_experiment_lists_choices(self):
        with pytest.raises(ValueError, match="choose from"):
            observe("latency", "nope")

    def test_json_export_round_trips(self, tmp_path):
        import json
        path = tmp_path / "latency.json"
        summary = observe("latency", "echo", count=10, output=str(path))
        document = json.loads(path.read_text())
        assert document["experiment"] == "echo"
        assert document["spans"]["schema"] == 1
        assert len(document["spans"]["traces"]) == 10
        assert summary["output"] == str(path)

    def test_exported_traces_reconcile_individually(self, tmp_path):
        """The 1% bar holds per packet, not just in aggregate."""
        summary = observe("latency", "echo", count=20)
        del summary
        from repro.experiments.setups import Calibration, flde_echo_remote
        from repro.sim import Simulator
        telemetry = Telemetry(trace=False, spans=True)
        sim = Simulator(telemetry=telemetry)
        setup = flde_echo_remote(sim, Calibration())

        def run(sim):
            yield from setup.loadgen.run_closed_loop(64, 20, window=1)
            yield from setup.loadgen.drain()

        sim.spawn(run(sim))
        sim.run(until=10.0)
        traces = telemetry.spans.finished_traces()
        assert len(traces) == 20
        for trace in traces:
            totals, residue = attribute_trace(trace)
            attributed = sum(totals.values()) + residue
            assert attributed == pytest.approx(trace.duration,
                                               rel=0.01)


class TestDisabledFastPath:
    def test_null_spans_keep_datapath_untraced(self):
        from repro.experiments.echo import echo_latency
        telemetry = Telemetry(trace=False)  # spans off
        result = echo_latency("flde", count=30, telemetry=telemetry)
        assert result["count"] == 30
        assert not telemetry.spans.enabled
        # No spans.* histograms may appear in the registry.
        assert not any(n.startswith("spans.")
                       for n in telemetry.metrics.names())

    def test_results_identical_with_and_without_spans(self):
        """Tracing must observe, never perturb: the simulated RTTs are
        bit-identical whether spans are recorded or not."""
        from repro.experiments.echo import echo_latency
        plain = echo_latency("flde", count=30,
                             telemetry=Telemetry(trace=False))
        traced = echo_latency("flde", count=30,
                              telemetry=Telemetry(trace=False,
                                                  spans=True))
        assert plain == traced
