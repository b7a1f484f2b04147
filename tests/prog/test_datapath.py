"""End-to-end datapath runs of the four example programs.

Each scenario drives real traffic through the full stack — load
generator, NIC, FLD rx engine, program interpreter, accelerator, and
back — and checks the verdict arithmetic, the delivery counts and a
clean invariant audit (drops end their packet's trace; nothing leaks).
"""

import pytest

from repro.experiments.prog import (
    BLOCKED_PORTS,
    DDOS_BURST,
    SCENARIOS,
    prog_latency_us,
    prog_spec,
)
from repro.experiments.setups import CLIENT_MAC
from repro.host import LoadGenerator
from repro.net import Flow
from repro.prog.programs import firewall
from repro.reporting import main
from repro.scenario import audit, run
from repro.sim import Simulator
from repro.telemetry import Telemetry
from repro.telemetry.audit import audit_all
from repro.topology import build as build_topology

COUNT = 120     # multiple of 4 flows: exact per-flow arithmetic below


class TestScenarios:
    def test_firewall_drops_exactly_the_blocklist(self):
        row = run("prog-firewall", COUNT, 256)[0]
        verdicts = row["verdicts"]
        per_flow = COUNT // 4
        assert row["sent"] == COUNT
        assert verdicts["runs"] == COUNT
        assert verdicts["drop"] == per_flow * len(BLOCKED_PORTS)
        assert verdicts["pass"] == COUNT - verdicts["drop"]
        assert row["received"] == verdicts["pass"]
        assert row["violations"] == 0

    def test_nat_modifies_every_packet(self):
        row = run("prog-nat", COUNT, 256)[0]
        verdicts = row["verdicts"]
        assert verdicts["modify"] == COUNT
        assert verdicts["pass"] == verdicts["drop"] == 0
        assert row["received"] == COUNT      # translation still echoes
        assert row["violations"] == 0

    def test_lb_redirects_and_splits_backends(self):
        row = run("prog-lb", COUNT, 256)[0]
        verdicts = row["verdicts"]
        assert verdicts["redirect"] == COUNT
        assert verdicts["redirect_drops"] == 0
        assert row["received"] == COUNT
        by_fn = {fn["fn"]: fn["accel_packets"] for fn in row["per_fn"]}
        assert by_fn["lb"] == 0              # the LB accel never runs
        assert by_fn["b0"] == by_fn["b1"] == COUNT // 2
        assert row["violations"] == 0

    def test_ddos_passes_one_burst_per_flow(self):
        row = run("prog-ddos", COUNT, 256)[0]
        verdicts = row["verdicts"]
        flows = 2
        assert verdicts["pass"] == flows * DDOS_BURST
        assert verdicts["drop"] == COUNT - flows * DDOS_BURST
        assert row["received"] == verdicts["pass"]
        assert row["violations"] == 0

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_scenario_audits_clean(self, scenario):
        telemetry = Telemetry(trace=False, spans=True)
        row, testbed = run(f"prog-{scenario}", 40, telemetry=telemetry)
        assert row["violations"] == 0
        assert audit(f"prog-{scenario}", testbed, telemetry) == []
        latency = prog_latency_us(telemetry.spans, row["program"])
        assert latency["spans"] == row["verdicts"]["runs"]
        assert latency["mean_us"] > 0


class TestTxDirection:
    def test_tx_attached_firewall_drops_echo_replies(self):
        """An egress program on the echo function's tx queue: replies
        (dst port 7000 after the echo swap) are dropped at submit time,
        before any FLD buffer is taken, and the audit stays clean."""
        telemetry = Telemetry(trace=False, spans=True, span_sample_rate=1)
        sim = Simulator(telemetry=telemetry)
        testbed = build_topology(sim, prog_spec("firewall"))
        runtime = testbed.fld("server.fld")
        ctrl = runtime.ctrl
        fn = testbed.accel("tenant0")
        blocklist = ctrl.create_prog_map()
        ctrl.map_set(blocklist, 7000, 1)
        prog = ctrl.create_prog(firewall(), [blocklist])
        ctrl.attach_prog(runtime.fld, prog, "tx", fn.txq)

        flows = [Flow(CLIENT_MAC, "02:00:00:00:00:99",
                      "10.0.0.1", "10.0.0.2", 7000, 7001)]
        loadgen = LoadGenerator(sim, testbed.host_qp("client"), flows[0])

        def run(sim):
            yield from loadgen.run_open_loop([256] * 50,
                                             rate_pps=1_000_000)
            yield from loadgen.drain()

        sim.spawn(run(sim))
        sim.run(until=2.0)

        assert loadgen.stats_sent == 50
        assert loadgen.stats_received == 0
        assert prog.counters()["drop"] == 50
        assert fn.accel.stats_processed == 50   # accel ran; tx dropped

        ctrl.detach_prog(runtime.fld, "tx", fn.txq)
        ctrl.destroy(prog)
        ctrl.destroy(blocklist)
        violations = testbed.quiesce() + audit_all(spans=telemetry.spans)
        assert violations == []
        testbed.teardown()


class TestNullFastPath:
    def test_touched_and_untouched_runs_are_bit_identical(self):
        """Create/attach/detach/destroy a passthrough program before
        traffic: every count and float in the fingerprint must equal
        the run that never touched the prog subsystem."""
        untouched = run("prog-null", 100, 256)[0]
        touched = run("prog-null", 100, 256, shape={"touch_prog": True})[0]
        assert touched == untouched
        assert untouched["received"] == 100
        assert untouched["violations"] == 0


@pytest.mark.parametrize("argv,message", [
    ("prog --scenario firewall --size 10 --count 5",
     "prog-firewall carries sizes of 64 to 2048 B; got 10"),
    ("prog --count -3", "prog-firewall needs a count of at least 1; got -3"),
], ids=["size", "count"])
def test_cli_refuses_a_size_or_count_before_running(argv, message, capsys):
    assert main(argv.split()) == 2
    assert capsys.readouterr().out == message + "\n"
