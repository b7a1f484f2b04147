"""Unit tests for testpmd helpers."""

import random
import struct
from types import SimpleNamespace

import pytest

from repro.host import LoadGenerator, swap_directions, swap_frame
from repro.net import Ethernet, Flow, Ipv4, PROTO_TCP, PROTO_UDP, Packet, \
    Tcp, Udp, make_flows
from repro.net.parse import parse_frame
from repro.sim import Simulator


class TestSwapDirections:
    def test_swaps_all_layers(self):
        flow = Flow("02:00:00:00:00:01", "02:00:00:00:00:02",
                    "10.0.0.1", "10.0.0.2", 1111, 2222)
        packet = swap_directions(flow.make_packet(b"x"))
        eth = packet.find(Ethernet)
        ip = packet.find(Ipv4)
        udp = packet.find(Udp)
        assert str(eth.src) == "02:00:00:00:00:02"
        assert str(eth.dst) == "02:00:00:00:00:01"
        assert str(ip.src) == "10.0.0.2" and str(ip.dst) == "10.0.0.1"
        assert (udp.src_port, udp.dst_port) == (2222, 1111)

    def test_tcp_ports_swapped(self):
        flow = Flow("02:00:00:00:00:01", "02:00:00:00:00:02",
                    "1.1.1.1", "2.2.2.2", 80, 443, proto=PROTO_TCP)
        packet = swap_directions(flow.make_packet(b"x"))
        tcp = packet.find(Tcp)
        assert (tcp.src_port, tcp.dst_port) == (443, 80)

    def test_payload_untouched(self):
        flow = Flow("02:00:00:00:00:01", "02:00:00:00:00:02",
                    "1.1.1.1", "2.2.2.2", 1, 2)
        packet = swap_directions(flow.make_packet(b"payload!"))
        assert packet.payload == b"payload!"


    @pytest.mark.parametrize("proto", [None, PROTO_TCP])
    def test_swap_frame_is_the_same_swap_on_bytes(self, proto):
        kwargs = {} if proto is None else {"proto": proto}
        flow = Flow("02:00:00:00:00:01", "02:00:00:00:00:02",
                    "10.0.0.1", "10.0.0.2", 1111, 2222, **kwargs)
        data = flow.make_packet(b"payload!").to_bytes()
        echoed = swap_frame(data)
        assert echoed == swap_directions(parse_frame(data)).to_bytes()
        assert echoed != data and swap_frame(echoed) == data

    def test_a_non_ip_frame_swaps_its_macs_only(self):
        data = bytes(range(1, 13)) + b"\x88\xb5" + b"opaque"
        assert swap_frame(data) == data[6:12] + data[0:6] + data[12:]

    def test_a_header_less_packet_comes_back_as_it_is(self):
        packet = Packet(payload=b"opaque")
        assert swap_directions(packet) is packet
        assert packet.to_bytes() == b"opaque"


class TestFlowHelpers:
    def test_make_flows_distinct_tuples(self):
        flows = make_flows(50, seed=3)
        tuples = {f.tuple5() for f in flows}
        assert len(tuples) >= 45  # random ports may rarely collide

    def test_sized_packet_exact_size(self):
        flow = make_flows(1, seed=2)[0]
        for size in (64, 128, 1500):
            assert flow.make_sized_packet(size).size() == size


def _packet_path_frames(flow, sizes):
    """The oracle: each frame built through the packet path, sequence
    number stamped at the head of the payload."""
    frames = []
    for seq, size in enumerate(sizes):
        packet = flow.make_sized_packet(size)
        payload = bytearray(packet.payload)
        payload.extend(bytes(max(0, 8 - len(payload))))
        struct.pack_into("!Q", payload, 0, seq)
        packet.payload = bytes(payload)
        frames.append(packet.to_bytes())
    return frames


def _flow(seed, proto=PROTO_UDP):
    random.seed(seed)  # pins the flow's initial IP ident
    return Flow("02:00:00:00:00:01", "02:00:00:00:ff:01",
                "10.0.0.1", "10.0.1.1", 40000, 5201, proto=proto)


def _loadgen(flow):
    """A generator over a queue pair that keeps what it is sent."""
    sim = Simulator()
    sent = []
    qp = SimpleNamespace(sim=sim, on_receive=None, sent=sent,
                         send=lambda frame, trace_ctx=None: sent.append(frame))
    return LoadGenerator(sim, qp, flow)


def _send(gen, sizes):
    """The frames ``gen`` hands its queue pair for ``sizes``."""
    before = len(gen.qp.sent)
    for size in sizes:
        gen._send_frame(size)
    return gen.qp.sent[before:]


class TestLoadGenFrames:
    """A UDP frame is stamped from the flow's template, a TCP frame is
    built through the packet path; both are the packet path's bytes."""

    @pytest.mark.parametrize("sizes", [
        [64, 64, 64, 64],           # steady-state template reuse
        [64, 128, 64, 1500, 42],    # size changes + minimum-frame edge
        [40, 41, 50, 40],           # payload shorter than the seq stamp
    ])
    def test_template_frames_are_the_packet_path_frames(self, sizes):
        gen = _loadgen(_flow(77))
        oracle = _flow(77)
        assert _send(gen, sizes) == _packet_path_frames(oracle, sizes)
        assert gen._seq == len(sizes)
        assert gen.flow._ident == oracle._ident

    def test_tcp_frames_take_the_packet_path(self):
        gen = _loadgen(_flow(5, PROTO_TCP))
        frames = _send(gen, [256] * 3)
        assert frames == _packet_path_frames(_flow(5, PROTO_TCP), [256] * 3)
        assert not hasattr(gen.flow, "_frame_templates")

    def test_flow_mutation_invalidates_the_template(self):
        gen = _loadgen(_flow(9))
        [first] = _send(gen, [128])
        gen.flow.dst_port = 9999
        [mutated] = _send(gen, [128])
        oracle = _flow(9)
        oracle.dst_port = 9999
        assert mutated == _packet_path_frames(oracle, [128, 128])[1]
        assert first != mutated
