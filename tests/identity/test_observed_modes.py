"""Observation must not change the simulation.

Every run — unobserved, metrics only, causal spans, the Chrome tracer,
both, the profiler with and without wall-clock timing — executes the
same workers, the same fabric transit, the same scheduler entry points
and the same ``(time, seq)`` schedule; the only thing observability
adds is the records themselves.  So the result rows must be equal with ``==``, not
approximately, and the invariant audit must stay clean, for every
observation mode on every datapath shape.

The span-content half pins what the records say: the closed-loop echo
keeps every stage row, with the per-stage figures the generator
datapath (deleted by this round's item 1) reported for the same run.
"""

import os
import random
import sys
from collections import Counter

import pytest

from repro.experiments import zuc
from repro.experiments.echo import drive_throughput, drive_trace, open_loop
from repro.experiments.setups import (
    cpu_echo_remote,
    flde_echo_remote,
    zuc_service,
)
from repro.scenario import observe
from repro.sim import Simulator
from repro.telemetry import Telemetry
from repro.telemetry.audit import audit_spans

MODES = {
    "none": lambda: None,
    "metrics": lambda: Telemetry(trace=False),
    "spans": lambda: Telemetry(trace=False, spans=True),
    "tracer": lambda: Telemetry(trace=True),
    "tracer+spans": lambda: Telemetry(trace=True, spans=True),
    "profile": lambda: Telemetry(trace=False, profile=True),
    "profile+wallclock": lambda: Telemetry(trace=False, profile=True,
                                           profile_wallclock=True),
}


def _flde_lossy(sim):
    # 64 B offered at line rate: the open-loop overload point, where
    # receive descriptors starve and same-instant tie order decides
    # which packets drop.
    setup = flde_echo_remote(sim)
    row = drive_throughput(sim, setup, 600, 64, mode="flde-remote")
    assert row["received"] < row["sent"]
    return row, setup.testbed, False


def _cpu(sim):
    setup = cpu_echo_remote(sim, jitter=False)
    row = drive_throughput(sim, setup, 400, 64, mode="cpu-remote")
    return row, setup.testbed, True


def _forward_imc(sim):
    # Mixed sizes back-to-back through four units: multi-TLP trains,
    # deep backlogs, a full SQ re-polled by the pacer.
    setup = flde_echo_remote(sim, units=4)
    row = drive_trace(sim, setup, 400, None, mode="flde")
    return row, setup.testbed, True


def _zuc_rdma(sim):
    # The RC transport: each WQE leaves the flat send pipeline through
    # the engine's one-segment-per-pass loop, acks retire it.
    setup = zuc_service(sim)
    row = zuc.drive(sim, setup, 80, 512, window=64)
    return row, setup.testbed, True


def _flde_metered(sim):
    # The echo units transmit through a shaper-paced FLD queue offered
    # 1.5x its rate: most WQEs pause mid-pipeline on the shaper.
    setup = flde_echo_remote(sim)
    setup.server.nic.shaper.add_limiter("slow", 2e9, burst_bits=8 * 1500)
    setup.accel.tx_queue = setup.runtime.create_eth_tx_queue(
        vport=2, meter="slow")
    row = open_loop(sim, setup.loadgen, 150, 512, pace_bps=3e9)
    assert row["received"] == row["sent"]
    return row, setup.testbed, True


EXPERIMENTS = {
    "flde-remote-64B-lossy": _flde_lossy,
    "cpu-remote-64B": _cpu,
    "forward-imc-4-units": _forward_imc,
    "fldr-zuc": _zuc_rdma,
    "flde-metered": _flde_metered,
}

#: The profiler stage each shape's distinguishing events must land in.
OWN_STAGE = {"fldr-zuc": "nic.rdma", "flde-metered": "nic.shaper"}


def _observe(experiment: str, mode: str):
    random.seed(1)
    telemetry = MODES[mode]()
    sim = Simulator(telemetry=telemetry)
    row, testbed, drained = EXPERIMENTS[experiment](sim)
    violations = testbed.quiesce()
    if telemetry is not None and telemetry.spans.enabled:
        violations += audit_spans(telemetry.spans, expect_complete=drained)
    return row, violations, telemetry


@pytest.fixture(scope="module")
def unobserved():
    cache = {}

    def row_of(experiment):
        if experiment not in cache:
            cache[experiment] = _observe(experiment, "none")
        return cache[experiment]

    return row_of


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_result_row_equals_the_unobserved_run(experiment, mode, unobserved):
    reference, reference_violations, _ = unobserved(experiment)
    assert reference_violations == []
    row, violations, telemetry = _observe(experiment, mode)
    assert row == reference
    assert violations == []
    if mode.startswith("tracer"):
        # The tracer did observe the run it left unchanged.
        names = {event["name"] for event in telemetry.tracer.events}
        assert {"Tlp", "Packet", "wqe", "rx_packet"} <= names
    if mode.endswith("spans") and experiment != "fldr-zuc":
        assert len(telemetry.spans.finished_traces()) == row["received"]
    if mode.startswith("profile"):
        # Attribution is total: every engine event has exactly one stage.
        stages = telemetry.profiler.stage_counts()
        assert (sum(stages.values()) == telemetry.profiler.total_events
                == telemetry.snapshot()["sim.events.processed"])
        if experiment in OWN_STAGE:
            assert stages[OWN_STAGE[experiment]] > 0


def _fabric_calls(experiment: str, mode: str) -> Counter:
    """Python-level calls into ``repro.pcie.*`` and
    ``repro.sim.resources`` while ``experiment`` builds and runs."""
    suffixes = (os.path.join("repro", "sim", "resources.py"),)
    pcie = os.path.join("repro", "pcie") + os.sep
    calls = Counter()
    # Not datapath calls: the count sources the registry samples (the
    # lambdas a constructor registers), with everything they call.
    source = "__init__.<locals>.<lambda>"
    sampling = 0

    def tally(frame, event, _arg):
        nonlocal sampling
        code = frame.f_code
        filename = code.co_filename
        if pcie in filename or filename.endswith(suffixes):
            if code.co_qualname.endswith(source):
                sampling += (event == "call") - (event == "return")
            elif event == "call" and not sampling:
                calls[os.path.basename(filename), code.co_qualname] += 1

    random.seed(1)
    sim = Simulator(telemetry=MODES[mode]())
    sys.setprofile(tally)
    try:
        EXPERIMENTS[experiment](sim)
    finally:
        sys.setprofile(None)
    # Nor is the profiler's own owner lookup.
    del calls["resources.py", "Link.profile_tag"]
    return calls


@pytest.mark.parametrize("experiment", ["forward-imc-4-units", "fldr-zuc"])
def test_the_fabric_executes_the_same_calls_under_observation(experiment):
    """Metrics and the profiler read what the fabric already keeps: a
    TLP takes the same route through the same functions, the same
    number of times, whether or not anyone is watching."""
    reference = _fabric_calls(experiment, "none")
    assert reference["fabric.py", "PcieFabric._read_arrived"] > 0
    assert reference["resources.py", "Link.reserve_train"] > 0
    for mode in ("metrics", "profile"):
        assert _fabric_calls(experiment, mode) == reference, mode


# Per-stage service figures of observe("latency", "echo", count=60) —
# 64 B closed loop, window 1 — as the parent commit's generator datapath
# reported them: (p50_us, p99_us).  The flat workers record the same
# spans from their virtual instants, so nothing may move by 1%.
ECHO_STAGES = {
    "pcie.doorbell": (0.7352796052631765, 0.7352796052631765),
    "nic.tx": (0.05000000000000122, 0.05000000000002832),
    "pcie.dma_read": (1.24329769736844, 1.24329769736844),
    "wire": (0.6563199999999971, 0.6563200000000513),
    "nic.rx": (0.05000000000000122, 0.9610668174342133),
    "pcie.dma_write": (0.6352796052631741, 0.6352796052631741),
    "fld.rx": (0.3000000000000073, 0.3000000000000073),
    "accel": (0.0160000000000012, 0.01600000000000798),
    "fld.tx": (0.30400000000001604, 0.30400000000001604),
    "pcie.cqe_write": (0.6352796052631741, 0.6352796052631741),
    "host.rx": (0.04347826086957335, 0.04347826086957335),
}
ECHO_E2E = (4.668934774027501, 5.580001591461705)


def test_echo_span_content_is_what_the_generator_path_recorded():
    random.seed(1)
    summary = observe("latency", "echo", count=60)
    assert summary["violations"] == []
    report = summary["report"]
    assert report["traces"] == 60
    assert report["unfinished"] == report["orphaned_spans"] == 0
    rows = {row["stage"]: row for row in report["stages"]}
    assert set(rows) == set(ECHO_STAGES)
    for stage, (p50, p99) in ECHO_STAGES.items():
        row = rows[stage]
        assert (row["kind"], row["count"]) == ("service", 60), stage
        assert row["p50_us"] == pytest.approx(p50, rel=0.01), stage
        assert row["p99_us"] == pytest.approx(p99, rel=0.01), stage
    assert report["e2e"]["p50_us"] == pytest.approx(ECHO_E2E[0], rel=0.01)
    assert report["e2e"]["p99_us"] == pytest.approx(ECHO_E2E[1], rel=0.01)


def test_ring_mode_wqe_contexts_are_claimed_at_the_flat_fetch():
    """A WQE fetched from a host-memory ring loses its context at pack
    time; the producer stashes it and the flat fetch stage claims it."""
    telemetry = Telemetry(trace=False, spans=True)
    sim = Simulator(telemetry=telemetry)
    setup = cpu_echo_remote(sim, jitter=False)
    for qp in (setup.loadgen.qp, setup.echo.qp):
        qp.use_mmio_wqe = False
    row = open_loop(sim, setup.loadgen, 40, 64, pace_bps=2e9)
    assert row["received"] == 40
    spans = telemetry.spans
    assert audit_spans(spans) == []          # no unclaimed stash
    for trace in spans.finished_traces():
        fetches = [s for s in trace.spans if s.stage == "pcie.wqe_fetch"]
        assert len(fetches) == 2             # client send + server echo
        assert all(s.end > s.start for s in fetches)
