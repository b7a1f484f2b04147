"""Unit tests for the eSwitch, vPorts and Ethernet ports."""

import pytest

from repro.net import Flow, Packet
from repro.net.parse import BTH, parse_frame
from repro.net.roce import OP_SEND_ONLY, Bth
from repro.net.udp import ROCE_V2_PORT
from repro.nic import (
    Disposition,
    ESwitch,
    EthernetPort,
    ForwardToQueue,
    ForwardToVport,
    MatchSpec,
    SteeringError,
    SteeringPipeline,
)
from repro.sim import Simulator


def frame(dst_mac="02:00:00:00:00:02"):
    flow = Flow("02:00:00:00:00:01", dst_mac, "10.0.0.1", "10.0.0.2",
                1, 2)
    return flow.make_packet(b"x" * 64, fill_checksums=False)


class TestEthernetPort:
    def test_back_to_back_delivery(self):
        sim = Simulator()
        a = EthernetPort(sim, "a", rate_bps=25e9, latency=1e-6)
        b = EthernetPort(sim, "b", rate_bps=25e9, latency=1e-6)
        a.connect(b)
        received = []
        b.on_receive = received.append
        packet = frame()
        a.send(packet)
        sim.run()
        assert received == [packet]
        assert a.stats_tx_packets == 1
        assert b.stats_rx_packets == 1

    def test_wire_serialization_paces_delivery(self):
        sim = Simulator()
        a = EthernetPort(sim, "a", rate_bps=1e9, latency=0.0)
        b = EthernetPort(sim, "b", rate_bps=1e9, latency=0.0)
        a.connect(b)
        times = []
        b.on_receive = lambda p: times.append(sim.now)
        for _ in range(3):
            a.send(frame())
        sim.run()
        wire_time = frame().wire_size() * 8 / 1e9
        assert times[1] - times[0] == pytest.approx(wire_time)


def roce_frame(dst_mac="02:00:00:00:00:02"):
    """A RoCE v2 SEND: a BTH behind UDP port 4791."""
    flow = Flow("02:00:00:00:00:01", dst_mac, "10.0.0.1", "10.0.0.2",
                49152, ROCE_V2_PORT)
    packet = flow.make_packet(Bth(OP_SEND_ONLY, dest_qp=5, psn=0).pack()
                              + bytes(64), fill_checksums=False)
    return parse_frame(packet.to_bytes())


def build_eswitch(sim):
    port = EthernetPort(sim, "uplink")
    delivered = []
    eswitch = ESwitch(sim, port,
                      lambda vport, d: delivered.append((vport, d)))
    return eswitch, port, delivered


class TestESwitch:
    def test_add_vport_twice_rejected(self):
        sim = Simulator()
        eswitch, _port, _d = build_eswitch(sim)
        eswitch.add_vport(1)
        with pytest.raises(ValueError):
            eswitch.add_vport(1)

    def test_ingress_routes_to_vport_queue(self):
        sim = Simulator()
        eswitch, _port, delivered = build_eswitch(sim)
        vport = eswitch.add_vport(1)
        marker = object()
        eswitch.pipeline.table(ESwitch.FDB_ROOT).add_rule(
            MatchSpec(dst_mac="02:00:00:00:00:02"), [ForwardToVport(1)],
            priority=1)
        eswitch.pipeline.table(vport.rx_root).default_actions = [
            ForwardToQueue(marker)]
        eswitch.ingress_from_wire(frame())
        assert len(delivered) == 1
        assert delivered[0][1].target is marker
        assert vport.stats_rx == 1

    def test_wire_miss_is_dropped_not_hairpinned(self):
        sim = Simulator()
        eswitch, port, _d = build_eswitch(sim)
        peer = EthernetPort(sim, "peer")
        port.connect(peer)
        eswitch.ingress_from_wire(frame("02:00:00:00:99:99"))
        sim.run()
        assert port.stats_tx_packets == 0
        assert eswitch.stats_fdb_drops == 1

    def test_forward_to_a_missing_vport_is_dropped(self):
        sim = Simulator()
        eswitch, port, delivered = build_eswitch(sim)
        vport = eswitch.add_vport(1)
        eswitch.pipeline.table(ESwitch.FDB_ROOT).add_rule(
            MatchSpec(dst_mac="02:00:00:00:00:02"), [ForwardToVport(9)],
            priority=1)
        eswitch.ingress_from_wire(frame())
        assert delivered == []
        assert eswitch.stats_fdb_drops == 1
        assert vport.stats_rx == 0
        assert port.stats_tx_packets == 0

    def test_vport_to_vport_loopback(self):
        sim = Simulator()
        eswitch, _port, delivered = build_eswitch(sim)
        eswitch.add_vport(1)
        vport2 = eswitch.add_vport(2)
        marker = object()
        eswitch.pipeline.table(ESwitch.FDB_ROOT).add_rule(
            MatchSpec(dst_mac="02:00:00:00:00:02"), [ForwardToVport(2)],
            priority=1)
        eswitch.pipeline.table(vport2.rx_root).default_actions = [
            ForwardToQueue(marker)]
        eswitch.egress_from_vport(1, frame())
        assert eswitch.stats_loopback == 1
        assert delivered and delivered[0][1].target is marker

    def test_egress_default_goes_to_uplink(self):
        sim = Simulator()
        eswitch, port, _d = build_eswitch(sim)
        eswitch.add_vport(1)
        peer = EthernetPort(sim, "peer")
        port.connect(peer)
        received = []
        peer.on_receive = received.append
        eswitch.egress_from_vport(1, frame("02:00:00:00:99:99"))
        sim.run()
        assert len(received) == 1
        assert eswitch.stats_to_uplink == 1

    def _delivering_vport(self, sim):
        """An eSwitch whose vPort 1 takes every frame off the wire and
        delivers it to a queue."""
        eswitch, _port, delivered = build_eswitch(sim)
        vport = eswitch.add_vport(1)
        eswitch.pipeline.table(ESwitch.FDB_ROOT).add_rule(
            MatchSpec(), [ForwardToVport(1)], priority=1)
        eswitch.pipeline.table(vport.rx_root).default_actions = [
            ForwardToQueue(object())]
        return eswitch, delivered

    def test_pre_rx_hook_consumes(self):
        sim = Simulator()
        eswitch, delivered = self._delivering_vport(sim)
        offered = []
        eswitch.pre_rx_hook = lambda packet: offered.append(packet) or True
        assert roce_frame().layout[BTH] is not None
        eswitch.ingress_from_wire(roce_frame())
        assert len(offered) == 1
        assert delivered == []  # the hook ate it
        # Declined, the same frame goes on to the vPort's queue.
        eswitch.pre_rx_hook = lambda packet: False
        eswitch.ingress_from_wire(roce_frame())
        assert len(delivered) == 1

    def test_pre_rx_hook_never_sees_a_plain_frame(self):
        sim = Simulator()
        eswitch, delivered = self._delivering_vport(sim)
        offered = []
        eswitch.pre_rx_hook = lambda packet: offered.append(packet) or True
        eswitch.ingress_from_wire(frame())
        assert offered == []
        assert len(delivered) == 1

    def test_guest_tx_table(self):
        """A vPort's egress pipeline can override the FDB."""
        sim = Simulator()
        eswitch, _port, delivered = build_eswitch(sim)
        vport = eswitch.add_vport(1)
        vport2 = eswitch.add_vport(2)
        marker = object()
        vport.tx_root = "vport1.tx"
        eswitch.pipeline.table("vport1.tx").default_actions = [
            ForwardToVport(2)]
        eswitch.pipeline.table(vport2.rx_root).default_actions = [
            ForwardToQueue(marker)]
        eswitch.egress_from_vport(1, frame("02:00:00:00:99:99"))
        assert delivered and delivered[0][1].target is marker

    def test_vport_forwarding_loop_is_bounded(self):
        """Receive tables that forward to each other: at most MAX_HOPS
        vPorts are entered per crossing, then a SteeringError (not a
        Python stack overflow); a chain that ends delivers."""
        sim = Simulator()
        eswitch, _port, delivered = build_eswitch(sim)
        vports = [eswitch.add_vport(n) for n in (1, 2, 3)]
        eswitch.pipeline.table(ESwitch.FDB_ROOT).add_rule(
            MatchSpec(dst_mac="02:00:00:00:00:02"), [ForwardToVport(1)],
            priority=1)
        rx = [eswitch.pipeline.table(v.rx_root) for v in vports]
        rx[0].default_actions = [ForwardToVport(2)]
        rx[1].default_actions = [ForwardToVport(1)]
        with pytest.raises(SteeringError):
            eswitch.ingress_from_wire(frame())
        assert delivered == []
        assert (vports[0].stats_rx + vports[1].stats_rx
                == SteeringPipeline.MAX_HOPS)

        marker = object()
        rx[1].default_actions = [ForwardToVport(3)]
        rx[2].default_actions = [ForwardToQueue(marker)]
        eswitch.ingress_from_wire(frame())
        assert [(v, d.target) for v, d in delivered] == [(vports[2], marker)]
        assert eswitch.stats_loopback == 0
