"""Integration: FLD end-to-end data paths (FLD-E and FLD-R).

These exercise the reproduction's core claim: an accelerator driving a
commodity NIC through FLD's compressed on-die state, with the NIC's PCIe
reads answered by on-the-fly descriptor generation.
"""

import pytest

from repro.accelerators import EchoAccelerator, RdmaEchoAccelerator
from repro.host import CpuCore, LoadGenerator
from repro.net import Flow
from repro.nic import ForwardToUplink, MatchSpec
from repro.sim import Simulator
from repro.sw import FldRuntime
from repro.sw.flde import FldEControlPlane
from repro.testbed import make_local_node, make_remote_pair

CLIENT_MAC = "02:00:00:00:00:01"
FLD_MAC = "02:00:00:00:00:99"


def build_flde_echo(sim, use_mmio=True, units=1):
    client, server = make_remote_pair(
        sim, client_core=CpuCore(sim, os_jitter_probability=0.0))
    client.add_vport_for_mac(1, CLIENT_MAC)
    server.add_vport_for_mac(2, FLD_MAC)
    runtime = FldRuntime(server)
    rq = runtime.create_rx_queue(vport=2)
    txq = runtime.create_eth_tx_queue(vport=2, use_mmio=use_mmio)
    accel = EchoAccelerator(sim, runtime.fld, units=units, tx_queue=txq)
    client_qp = client.driver.create_eth_qp(vport=1)
    client_qp.post_rx_buffers(512)
    flow = Flow(CLIENT_MAC, FLD_MAC, "10.0.0.1", "10.0.0.2", 7000, 7001)
    loadgen = LoadGenerator(sim, client_qp, flow)
    return client, server, runtime, accel, loadgen


class TestFldEEcho:
    def test_packets_flow_through_accelerator(self):
        sim = Simulator()
        _c, _s, runtime, accel, loadgen = build_flde_echo(sim)

        def run(sim):
            yield from loadgen.run_closed_loop(frame_size=256, count=40)
            yield from loadgen.drain()

        sim.spawn(run(sim))
        sim.run(until=1.0)
        assert loadgen.stats_received == 40
        assert accel.stats_processed == 40
        assert runtime.fld.errors.stats_reported == 0

    def test_wqe_by_mmio_avoids_ring_reads(self):
        sim = Simulator()
        _c, _s, runtime, _accel, loadgen = build_flde_echo(sim, use_mmio=True)

        def run(sim):
            yield from loadgen.run_closed_loop(frame_size=128, count=10)
            yield from loadgen.drain()

        sim.spawn(run(sim))
        sim.run(until=1.0)
        assert runtime.fld.tx.stats_wqe_reads == 0

    def test_doorbell_mode_generates_wqes_on_the_fly(self):
        sim = Simulator()
        _c, _s, runtime, _accel, loadgen = build_flde_echo(sim,
                                                           use_mmio=False)

        def run(sim):
            yield from loadgen.run_closed_loop(frame_size=128, count=10)
            yield from loadgen.drain()

        sim.spawn(run(sim))
        sim.run(until=1.0)
        # The NIC read WQEs from the FLD BAR; FLD generated them from
        # 8-byte compressed descriptors.
        assert runtime.fld.tx.stats_wqe_reads == 10
        assert loadgen.stats_received == 10

    def test_tx_resources_recycled(self):
        """Descriptors, buffers and credits all return after completions."""
        sim = Simulator()
        _c, _s, runtime, _accel, loadgen = build_flde_echo(sim)

        def run(sim):
            yield from loadgen.run_closed_loop(frame_size=512, count=100)
            yield from loadgen.drain()

        sim.spawn(run(sim))
        sim.run(until=1.0)
        tx = runtime.fld.tx
        assert tx.descriptors.free_slots == tx.descriptors.capacity
        assert tx.buffers.free_chunks == tx.buffers.num_chunks
        assert tx.credits.available(0) == tx.credits.capacity(0)

    def test_rx_buffers_recycled_in_order(self):
        """Sustained traffic must keep recycling MPRQ buffers (§5.2)."""
        sim = Simulator()
        _c, _s, runtime, _accel, loadgen = build_flde_echo(sim)

        def run(sim):
            yield from loadgen.run_closed_loop(frame_size=1500, count=400)
            yield from loadgen.drain()

        sim.spawn(run(sim))
        sim.run(until=1.0)
        binding = runtime.fld.rx.binding(0)
        # 400 x 1500 B packets over 128 KiB buffers require many recycles.
        assert binding.stats_recycled > 2
        assert loadgen.stats_received == 400

    def test_latency_reasonable(self):
        sim = Simulator()
        _c, _s, _runtime, _accel, loadgen = build_flde_echo(sim)

        def run(sim):
            yield from loadgen.run_closed_loop(frame_size=64, count=50)
            yield from loadgen.drain()

        sim.spawn(run(sim))
        sim.run(until=1.0)
        assert 1e-6 < loadgen.latency.median < 20e-6

    def test_throughput_large_frames_near_line_rate(self):
        sim = Simulator()
        _c, _s, _runtime, _accel, loadgen = build_flde_echo(sim)

        def run(sim):
            yield from loadgen.run_open_loop([1500] * 500)
            yield from loadgen.drain()

        sim.spawn(run(sim))
        sim.run(until=1.0)
        assert loadgen.rx_meter.gbps(24) > 15.0


class TestFldEResume:
    """The echo leaves through a resume table (§5.3): the NIC puts the
    table's resume ID in bits 16+ of the context, the accelerator echoes
    the context, and FLD's compressed descriptor has 24 bits for it."""

    def _echo_one(self, first_resume_id):
        sim = Simulator()
        client, server = make_remote_pair(
            sim, client_core=CpuCore(sim, os_jitter_probability=0.0))
        client.add_vport_for_mac(1, CLIENT_MAC)
        server.add_vport_for_mac(2, FLD_MAC)
        runtime = FldRuntime(server)
        rq = runtime.create_rx_queue(vport=2, set_default=False)
        txq = runtime.create_eth_tx_queue(vport=2)
        EchoAccelerator(sim, runtime.fld, units=1, tx_queue=txq)
        server.nic._next_resume_id = first_resume_id
        FldEControlPlane(runtime, vport=2).add_tenant(
            1, MatchSpec(), rq, [ForwardToUplink()])
        client_qp = client.driver.create_eth_qp(vport=1)
        client_qp.post_rx_buffers(8)
        loadgen = LoadGenerator(sim, client_qp, Flow(
            CLIENT_MAC, FLD_MAC, "10.0.0.1", "10.0.0.2", 7000, 7001))
        sim.spawn(loadgen.run_closed_loop(frame_size=64, count=1))
        sim.run(until=1e-3)
        return loadgen

    def test_echo_resumes_at_its_table(self):
        assert self._echo_one(first_resume_id=1).stats_received == 1

    def test_a_resume_id_past_24_bits_is_refused_not_misrouted(self):
        """Resume IDs are never recycled: ID 257 masked to 24 bits of
        context would come back as resume ID 1, another table's."""
        with pytest.raises(ValueError, match="compressed descriptor"):
            self._echo_one(first_resume_id=257)


class TestFldRPath:
    def _build(self, sim):
        client, server = make_remote_pair(sim)
        client.add_vport_for_mac(1, CLIENT_MAC)
        server.add_vport_for_mac(2, FLD_MAC)
        runtime = FldRuntime(server)
        qp, txq = runtime.create_fldr_qp(vport=2, local_mac=FLD_MAC,
                                         local_ip="10.0.0.2")
        accel = RdmaEchoAccelerator(sim, runtime.fld, units=1, tx_queue=txq)
        cep = client.driver.create_rc_endpoint(1, CLIENT_MAC, "10.0.0.1",
                                               buffer_size=4096)
        cep.post_rx_buffers(256)
        cep.connect(FLD_MAC, "10.0.0.2", qp.qpn)
        runtime.ctrl.connect_qp(qp, CLIENT_MAC, "10.0.0.1", cep.qpn)
        return runtime, accel, cep, qp

    def test_single_segment_message_roundtrip(self):
        sim = Simulator()
        _runtime, _accel, cep, _qp = self._build(sim)
        result = {}

        def proc(sim):
            yield cep.post_send(b"fld-r ping")
            reply, _ = yield cep.messages.get()
            result["reply"] = reply

        sim.spawn(proc(sim))
        sim.run(until=0.1)
        assert result["reply"] == b"fld-r ping"

    def test_multi_segment_message_roundtrip(self):
        """Messages above the RoCE MTU segment in the NIC's transport —
        the hardware segmentation FLD gets for free (§8.1.2)."""
        sim = Simulator()
        _runtime, _accel, cep, qp = self._build(sim)
        payload = bytes(range(256)) * 16  # 4096 B -> 4 segments at 1024 MTU
        result = {}

        def proc(sim):
            yield cep.post_send(payload)
            reply, _ = yield cep.messages.get()
            result["reply"] = reply

        sim.spawn(proc(sim))
        sim.run(until=0.1)
        assert result["reply"] == payload
        assert qp.stats_received_segments == 4

    def test_pipelined_messages(self):
        sim = Simulator()
        _runtime, accel, cep, _qp = self._build(sim)
        replies = []

        def proc(sim):
            events = [cep.post_send(bytes([i]) * 512) for i in range(20)]
            for _ in range(20):
                reply, _ = yield cep.messages.get()
                replies.append(reply)

        sim.spawn(proc(sim))
        sim.run(until=0.1)
        assert len(replies) == 20
        assert sorted(r[0] for r in replies) == list(range(20))

    def test_fld_memory_footprint_small(self):
        """The whole point: FLD state fits in ~1 MiB of on-die SRAM."""
        sim = Simulator()
        runtime, _accel, _cep, _qp = self._build(sim)
        memory = runtime.fld.on_die_memory()
        assert memory["total"] < 1.5 * 1024 * 1024
        assert memory["rx_ring"] == 0  # receive ring lives in host memory
