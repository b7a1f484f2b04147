"""Quirks the layout reproduces on purpose (DESIGN.md, "Packet library").

Each is what the header-object datapath did, so fixing one moves
simulated behaviour; they wait for the wire-reference work (ROADMAP 5c).
The RoCE ones (AckReq's bit, the zero ICRC) wait for ROADMAP 7(b).
These tests pin them so a change is a decision and not an accident.
"""

import pytest

from repro.host.testpmd import swap_directions
from repro.net import (
    Bth,
    Ethernet,
    Flow,
    IpAddress,
    Ipv4,
    PROTO_TCP,
    PROTO_UDP,
    ROCE_V2_PORT,
    Tcp,
    Udp,
    vxlan_encapsulate,
)
from repro.net.parse import BTH, L4, L4_PROTO, parse_frame
from repro.net.roce import ICRC_SIZE, OP_SEND_ONLY
from repro.nic import CQE_FLAG_L3_OK, CQE_FLAG_L4_OK, ChecksumOffload
from repro.nic.steering import MatchSpec
from repro.nic.wqe import OP_RDMA_SEND, TxWqe
from repro.sim import Simulator

from ..nic.test_offloads_shaper_rdma import _Loopback, landed

OUTER_UDP, INNER_L4 = 34, 50 + 34


def tunnelled(inner_proto, src_port=1111):
    """A VXLAN frame around a ``inner_proto`` flow 7000 -> 7001."""
    flow = Flow("02:00:00:00:00:01", "02:00:00:00:00:02",
                "10.0.0.1", "10.0.0.2", 7000, 7001, proto=inner_proto)
    outer = vxlan_encapsulate(
        flow.make_packet(b"tenant data"), 42, "02:00:00:00:01:01",
        "02:00:00:00:01:02", "192.168.0.1", "192.168.0.2", src_port=src_port)
    return parse_frame(outer.to_bytes())


@pytest.mark.parametrize("inner_proto,l4_at,ports", [
    # find(Tcp) or find(Udp): an inner TCP header beats the outer UDP...
    (PROTO_TCP, INNER_L4, (7000, 7001)),
    # ...but an inner UDP header does not.
    (PROTO_UDP, OUTER_UDP, (1111, 4789)),
])
class TestL4OfATunnelledFrame:
    def test_layout_and_port_match(self, inner_proto, l4_at, ports):
        packet = tunnelled(inner_proto)
        assert packet.layout[L4] == l4_at
        assert packet.layout[L4_PROTO] == inner_proto
        assert MatchSpec(src_port=ports[0], dst_port=ports[1]).matches(packet)
        # The thawed stack agrees: that is where the rule comes from.
        l4 = packet.find(Tcp) or packet.find(Udp)
        assert (l4.src_port, l4.dst_port) == ports

    def test_swap_directions_swaps_that_header(self, inner_proto, l4_at,
                                               ports):
        packet = tunnelled(inner_proto)
        before = packet.to_bytes()
        after = swap_directions(packet).to_bytes()
        assert after[l4_at:l4_at + 4] == (before[l4_at + 2:l4_at + 4]
                                          + before[l4_at:l4_at + 2])
        other = OUTER_UDP if l4_at == INNER_L4 else INNER_L4
        assert after[other:other + 4] == before[other:other + 4]
        # Outer MACs and IPs swap; the inner frame's never do.
        assert after[0:6] == before[6:12] and after[26:30] == before[30:34]
        assert after[50:50 + 34] == before[50:50 + 34]

    def test_l4_verify_uses_outer_addresses(self, inner_proto, l4_at, ports):
        # The inner checksum is right for the inner addresses; the
        # offload sums it against the *outer* IPv4 header's.
        flags = ChecksumOffload().validate(tunnelled(inner_proto))
        assert flags & CQE_FLAG_L3_OK
        if inner_proto == PROTO_TCP:
            assert not flags & CQE_FLAG_L4_OK
        else:
            assert flags & CQE_FLAG_L4_OK   # outer UDP checksum is 0


def roce_frame(checksum):
    body = Bth(OP_SEND_ONLY, 7, 0).pack() + b"message" + bytes(ICRC_SIZE)
    src, dst = IpAddress("10.0.0.1"), IpAddress("10.0.0.2")
    udp = Udp(49153, ROCE_V2_PORT, Udp.HEADER_LEN + len(body))
    if checksum:
        udp.fill_checksum(src, dst, body)
    ip = Ipv4(src, dst, proto=PROTO_UDP).finalize(udp.length)
    return parse_frame(Ethernet("02:00:00:00:00:01", "02:00:00:00:00:02")
                       .pack() + ip.pack() + udp.pack() + body)


@pytest.mark.parametrize("checksum,l4_ok", [(False, True), (True, False)])
def test_l4_verify_starts_past_the_transport_headers(checksum, l4_ok):
    """The sum runs over ``packet.payload``, which on a RoCE frame
    starts past the BTH — so a *correct* nonzero UDP checksum fails.
    Harmless only because RoCE frames carry checksum 0."""
    flags = ChecksumOffload().validate(roce_frame(checksum))
    assert bool(flags & CQE_FLAG_L4_OK) is l4_ok


def _with(frame, at, value):
    return frame[:at] + bytes([value]) + frame[at + 1:]


@pytest.mark.parametrize("proto,at,value,what", [
    (PROTO_UDP, 15, 0x03, "Ipv4.pack drops the ECN bits"),
    (PROTO_UDP, 14, 0x46, "Ipv4.pack writes IHL 5"),
    (PROTO_TCP, 34 + 19, 0x09, "Tcp.pack zeroes the urgent pointer"),
])
def test_thawing_a_non_canonical_frame_is_lossy(proto, at, value, what):
    flow = Flow("02:00:00:00:00:01", "02:00:00:00:00:02",
                "10.0.0.1", "10.0.0.2", 7000, 7001, proto=proto)
    canonical = flow.make_packet(b"payload").to_bytes()
    frame = _with(canonical, at, value)
    packet = parse_frame(frame)
    assert packet.to_bytes() == frame, "frozen, it is its bytes"
    packet.headers
    assert packet.to_bytes() == canonical, what


def engine_frames():
    """A last SEND segment and an ACK, as the RC engine puts them on
    the wire, with the offset of their BTH."""
    loop = _Loopback(Simulator())
    wqe = landed(TxWqe(OP_RDMA_SEND, 1, 0, 0, 100))
    sent = []
    loop.b.egress = lambda qp, frame: sent.append(frame)
    loop.b._send_ack(loop.qp_b)
    return [loop.a._build_frame(loop.qp_a, b"m" * 100, True, True, wqe),
            sent[0]]


def test_ack_request_sits_at_bth_byte_4_bit_6():
    """IBTA puts AckReq at BTH byte 8 bit 7 (the top bit of the PSN
    word); the model sets bit 6 of byte 4, the dest-QP word's top byte."""
    bth = Bth(OP_SEND_ONLY, 7, 0x123456, ack_request=True).pack()
    assert bth[4] == 0x40 and bth[8:12] == bytes.fromhex("00123456")
    plain = Bth(OP_SEND_ONLY, 7, 0x123456).pack()
    assert plain[4] == 0 and bth[:4] + bth[5:] == plain[:4] + plain[5:]
    last, ack = engine_frames()
    at = parse_frame(last.raw).layout[BTH]
    assert last.raw[at + 4] == 0x40 and last.raw[at + 8] & 0x80 == 0
    assert ack.raw[at + 4] == 0


def test_icrc_is_four_zero_bytes():
    """A real NIC computes the invariant CRC; the model sends zeros."""
    for frame in engine_frames():
        assert frame.raw[-ICRC_SIZE:] == bytes(4)
    assert ICRC_SIZE == 4
