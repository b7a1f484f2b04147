"""RC and metered send queues on the flat pipeline.

Every send queue is a :class:`_SqFlatPipeline`; an RC or shaper-paced
WQE leaves it through continuations (a shaper wait scheduled through
the :class:`Shaper`, the RDMA engine's one-segment-per-pass loop)
instead of a generator.  These tests pin what those continuations must
keep: spans and profiler attribution for a paused WQE, verbs flush
semantics for a QP in ERR, and teardown in the middle of either wait.
"""

import ast
from pathlib import Path

from repro.core import AxisMetadata
from repro.experiments.setups import flde_echo_remote
from repro.nic import NicConfig, RcQp, RdmaEngine
from repro.nic.device import _POISON
from repro.sim import Simulator, Store
from repro.telemetry import Telemetry
from repro.telemetry.audit import audit_spans
from repro.testbed import make_local_node
from repro.topology import LinkSpec, NodeSpec, TopologySpec, build

from ..integration.test_credits_ets import (
    build as build_metered,
    frame,
    send_in_turn,
)

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

CLIENT_MAC = "02:00:00:00:00:01"
SERVER_MAC = "02:00:00:00:00:02"


def rc_pair(sim, rx_buffers=64, server_nic=None):
    """Two hosts, one connected RC endpoint each, and their testbed."""
    testbed = build(sim, TopologySpec(
        name="remote-pair",
        nodes=[NodeSpec(name="client"), NodeSpec(name="server")],
        links=[LinkSpec(a="client", b="server")]),
        nic_configs={"server": server_nic})
    client, server = testbed.node("client"), testbed.node("server")
    client.add_vport_for_mac(1, CLIENT_MAC)
    server.add_vport_for_mac(1, SERVER_MAC)
    cep = client.driver.create_rc_endpoint(1, CLIENT_MAC, "10.0.0.1",
                                           buffer_size=16384)
    sep = server.driver.create_rc_endpoint(1, SERVER_MAC, "10.0.0.2",
                                           buffer_size=16384)
    cep.post_rx_buffers(rx_buffers)
    sep.post_rx_buffers(rx_buffers)
    cep.connect(SERVER_MAC, "10.0.0.2", sep.qpn)
    sep.connect(CLIENT_MAC, "10.0.0.1", cep.qpn)
    return testbed, client, server, cep, sep


class TestMeteredQueueUnderObservation:
    def test_paused_wqes_keep_their_spans_and_their_profiler_stage(self):
        telemetry = Telemetry(trace=False, spans=True, profile=True)
        sim = Simulator(telemetry=telemetry)
        spans = telemetry.spans
        _server, runtime, slow_q, _fast_q, counts = build_metered(sim)

        send_in_turn(runtime.fld, frame(1000), (
            AxisMetadata(queue_id=slow_q,
                         trace_ctx=spans.start_trace(f"slow.{i}", sim.now))
            for i in range(20)))
        sim.run(until=1.0)
        assert counts["slow"] == 20

        paused = 0
        for trace in spans.traces:
            by_stage = {}
            for span in trace.spans:
                by_stage.setdefault((span.stage, span.kind), []).append(span)
            (service,) = by_stage[("nic.tx", "service")]
            assert service.end is not None and service.end > service.start
            for pause in by_stage.get(("nic.shaper", "queue"), ()):
                paused += 1
                # The WQE's service interval covers its shaper wait and
                # closes when the pause ends (emission is synchronous).
                assert service.start <= pause.start < pause.end
                assert service.end == pause.end
        assert paused >= 10  # 1200 B at 1 Gb/s behind a one-frame burst
        stages = telemetry.profiler.stage_counts()
        assert stages["nic.shaper"] == paused
        assert sum(stages.values()) == telemetry.profiler.total_events
        assert audit_spans(spans, expect_complete=False) == []


class TestErrQpFlush:
    def test_wqes_on_an_err_qp_are_flushed_not_sent(self):
        sim = Simulator()
        testbed, client, _server, cep, sep = rc_pair(sim)
        sim.run(until=1e-5)
        client.nic.rdma.fail_qp(cep.qp, RdmaEngine.SYNDROME_RETRY_EXCEEDED)
        assert cep.qp.state == RcQp.ERR
        wire_before = client.nic.port.stats_tx_packets
        for _ in range(3):
            cep.post_send(b"never leaves")
        sim.run(until=1e-3)
        sq = cep.qp.sq
        assert sq.stats_flushed == 3
        assert sq.stats_wqes == 3          # all three went through
        assert sq.ci == sq.pi == 3         # the pipeline did not stall
        assert cep.qp.stats_sent_segments == 0
        assert client.nic.port.stats_tx_packets == wire_before
        assert sep.stats_messages_received == 0
        assert testbed.quiesce() == []


class TestTeardownMidWqe:
    def test_destroying_an_rc_qp_mid_message(self):
        telemetry = Telemetry(trace=False, spans=True)
        sim = Simulator(telemetry=telemetry)
        testbed, client, _server, cep, _sep = rc_pair(sim)
        seen = []

        def close_on_third_segment(qp, frame):
            seen.append(frame)
            if len(seen) == 3:
                cep.close()
            return False

        client.nic.rdma.drop_filter = close_on_third_segment
        ctx = telemetry.spans.start_trace("torn", sim.now)
        cep.post_send(bytes(12 * 1024), trace_ctx=ctx)  # 12 segments
        sim.run(until=0.05)
        # The rest of the message never left, the send pipeline unwound
        # and no retransmit timer outlived the QP.
        assert len(seen) == 3
        assert cep.qp.sq.destroyed and not cep.qp.outstanding
        assert testbed.quiesce() == []
        assert audit_spans(telemetry.spans, expect_complete=False) == []

    def test_destroying_an_untraced_rc_qp_mid_message(self):
        """The same teardown with telemetry off: the message has no
        span to close, and the null recorder has nothing to call."""
        sim = Simulator()
        testbed, client, _server, cep, _sep = rc_pair(sim)
        seen = []

        def close_on_third_segment(qp, frame):
            seen.append(frame)
            if len(seen) == 3:
                cep.close()
            return False

        client.nic.rdma.drop_filter = close_on_third_segment
        cep.post_send(bytes(12 * 1024))
        sim.run(until=0.05)
        assert len(seen) == 3
        assert cep.qp.sq.destroyed and not cep.qp.outstanding
        assert testbed.quiesce() == []

    def test_destroying_a_metered_sq_mid_pause(self):
        telemetry = Telemetry(trace=False, profile=True)
        sim = Simulator(telemetry=telemetry)
        setup = flde_echo_remote(sim)
        nic = setup.server.nic
        # One frame of burst: the first conforms, the second waits
        # ~100 us for tokens.
        nic.shaper.add_limiter("slow", 1e8, burst_bits=8 * 1300)
        slow_q = setup.runtime.create_eth_tx_queue(vport=2, meter="slow")
        sq = nic.sqs[max(nic.sqs)]
        assert sq.meter == "slow"
        fld = setup.runtime.fld

        def pauses():
            return telemetry.profiler.event_counts.get(
                f"{nic.name}.shaper", 0)

        send_in_turn(fld, frame(1000), [AxisMetadata(queue_id=slow_q)] * 2)
        while sq.stats_wqes < 2:
            sim.run(until=sim.now + 1e-6)
        sim.run(until=sim.now + 5e-6)
        assert pauses() == 0 and setup.loadgen.stats_received == 1
        nic.destroy_sq(sq)
        sim.run(until=0.05)
        # The pause ran out into a destroyed queue: its frame still
        # left, its CQE returned the FLD's credit, the pipeline unwound.
        assert pauses() == 1 and setup.loadgen.stats_received == 2
        assert sq.qpn not in nic._tx_flat
        assert setup.testbed.quiesce() == []


class TestPoisonSpill:
    """A destroyed queue unwinds its worker with a poison item; the
    poison never drops, even into a full store."""

    def store(self, sim, items):
        store = Store(sim, capacity=1, name="inbox")
        for item in items:
            assert store.try_put(item)
        return store

    def test_a_store_with_room_takes_the_poison_at_once(self):
        sim = Simulator()
        store = self.store(sim, [])
        make_local_node(sim).nic._poison(store)
        assert store.try_get() is _POISON

    def test_a_full_store_takes_the_poison_once_a_slot_frees(self):
        sim = Simulator()
        store = self.store(sim, ["frame"])
        make_local_node(sim).nic._poison(store)
        sim.run()
        assert store.try_get() == "frame"
        sim.run()
        assert store.try_get() is _POISON


class TestRdmaInboxOverflow:
    def test_dropped_segments_reach_the_metrics_registry(self):
        telemetry = Telemetry(trace=False)
        sim = Simulator(telemetry=telemetry)
        # A one-deep inbox: the segments that arrive back-to-back while
        # the rq worker waits out its first descriptor fetch overflow.
        _testbed, _client, server, cep, _sep = rc_pair(
            sim, server_nic=NicConfig(rx_inbox_depth=1))
        cep.post_send(bytes(8 * 1024))
        sim.run(until=1e-4)
        nic = server.nic
        assert nic.stats_rx_dropped_inbox >= 1
        assert (telemetry.snapshot()[f"nic.{nic.name}.rx.dropped_inbox"]
                == nic.stats_rx_dropped_inbox)


def spawn_sites(path: Path):
    """``(enclosing function, line)`` of every ``*.spawn(...)`` call."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    sites = []

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing or node.name
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "spawn"):
            sites.append((enclosing, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, None)
    return sites


class TestNoQueueWorkerIsAProcess:
    def test_device_spawns_only_the_poison_spill(self):
        sites = spawn_sites(SRC / "nic" / "device.py")
        assert sites and {name for name, _ in sites} == {"_poison"}, sites

    def test_rdma_engine_and_host_driver_spawn_nothing(self):
        for rel in ("nic/rdma.py", "host/driver.py"):
            assert spawn_sites(SRC / rel) == [], rel

    def test_guard_sees_a_spawn(self, tmp_path):
        sample = tmp_path / "sample.py"
        sample.write_text(
            "class Nic:\n"
            "    def create_sq(self):\n"
            "        def inner():\n"
            "            self.sim.spawn(worker())\n"
            "        inner()\n")
        assert spawn_sites(sample) == [("create_sq", 4)]
