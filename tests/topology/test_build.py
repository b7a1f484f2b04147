"""Elaborator tests: spec -> Testbed, lifecycle, demux wiring."""

from types import SimpleNamespace

import pytest

from repro.core import AxisMetadata
from repro.experiments.scale_tenants import scale_tenants_spec
from repro.experiments.setups import flde_echo_remote_spec
from repro.sim import Simulator, Store
from repro.topology import (
    HostQpSpec,
    NodeSpec,
    SpecError,
    TopologySpec,
    accel_kinds,
    build,
)
from repro.topology.build import RxFunctionDemux


class TestBuildQueries:
    def setup_method(self):
        self.sim = Simulator()
        self.testbed = build(self.sim, flde_echo_remote_spec())

    def test_components_addressable_by_spec_name(self):
        assert self.testbed.node("server").name == "server"
        assert self.testbed.fld("server.fld").fld.name == "server.fld"
        fn = self.testbed.accel("echo")
        assert fn.spec.kind == "echo"
        assert fn.runtime is self.testbed.fld("server.fld")
        assert self.testbed.host_qp("client") is not None

    def test_link_and_vports_elaborated(self):
        client, server = (self.testbed.node("client"),
                          self.testbed.node("server"))
        assert client.nic.port.peer is server.nic.port
        assert 1 in client.nic.eswitch.vports
        assert 2 in server.nic.eswitch.vports

    def test_single_function_taps_fld_rx_stream_directly(self):
        fn = self.testbed.accel("echo")
        assert fn.accel._upstream is fn.runtime.fld.rx_stream

    def test_quiesce_clean_on_idle_testbed(self):
        assert self.testbed.quiesce() == []
        self.testbed.assert_quiesced()


class TestMultiFunctionDemux:
    def test_each_function_gets_private_bounded_store(self):
        sim = Simulator()
        testbed = build(sim, scale_tenants_spec(3))
        runtime = testbed.fld("server.fld")
        upstreams = [testbed.accel(f"tenant{i}").accel._upstream
                     for i in range(3)]
        for upstream in upstreams:
            assert upstream is not runtime.fld.rx_stream
            assert isinstance(upstream, Store)
        assert len({id(u) for u in upstreams}) == 3

    def test_rx_sram_carved_across_tenants(self):
        sim = Simulator()
        testbed = build(sim, scale_tenants_spec(4))
        for i in range(4):
            assert testbed.accel(f"tenant{i}").spec.rx_strides == 16


    def demux(self, depth=2):
        """A demux over a bare rx stream, two functions on bindings 0
        and 1, each with a ``depth``-slot store."""
        sim = Simulator()
        fld = SimpleNamespace(rx_stream=Store(sim, name="fld.rx_stream"),
                              config=SimpleNamespace(rx_stream_depth=depth))
        demux = RxFunctionDemux(sim, fld, "fld")
        return sim, fld.rx_stream, demux, [demux.add_route(binding, name)
                                           for binding, name in
                                           ((0, "slow"), (1, "fast"))]

    @staticmethod
    def packet(binding, n):
        return (n, AxisMetadata(queue_id=binding))

    def test_a_full_function_store_pauses_the_demux_until_it_drains(self):
        """Backpressure: the slow function's full store holds back the
        packets behind its own, and a free slot resumes the demux."""
        sim, stream, _demux, (slow, fast) = self.demux()
        for n in range(3):
            stream.put(self.packet(0, n))
        stream.put(self.packet(1, 3))
        sim.run()
        assert [item[0] for item in slow._items] == [0, 1]
        assert len(fast) == 0 and len(stream) == 1
        assert slow.try_get()[0] == 0
        sim.run()
        assert [item[0] for item in slow._items] == [1, 2]
        assert [item[0] for item in fast._items] == [3]
        assert len(stream) == 0

    def test_an_unrouted_packet_is_counted_and_skipped(self):
        sim, stream, demux, (slow, fast) = self.demux()
        stream.put(self.packet(7, 0))
        stream.put(self.packet(1, 1))
        sim.run()
        assert demux.stats_unrouted == 1
        assert len(slow) == 0 and [item[0] for item in fast._items] == [1]


class TestBuildErrors:
    def test_host_qp_without_vport_spec(self):
        spec = TopologySpec(
            name="t", nodes=[NodeSpec(name="n")],
            host_qps=[HostQpSpec(name="q", node="n", vport=5)])
        with pytest.raises(SpecError, match="vport"):
            build(Simulator(), spec)

    def test_invalid_spec_rejected_before_elaboration(self):
        spec = TopologySpec(name="t", nodes=[NodeSpec(name="n"),
                                             NodeSpec(name="n")])
        with pytest.raises(SpecError):
            build(Simulator(), spec)


class TestNodeOverrides:
    def test_port_rate_override(self):
        spec = TopologySpec(
            name="t", nodes=[NodeSpec(name="n", port_rate_bps=100e9)])
        testbed = build(Simulator(), spec)
        assert testbed.node("n").nic.config.port_rate_bps == 100e9


def test_registered_accelerator_kinds():
    assert set(accel_kinds()) >= {"echo", "zuc-echo", "iot-echo",
                                  "iot-auth", "rdma-echo"}
