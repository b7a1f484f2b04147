"""Unit tests for the frame parser and trace generators."""

import pytest

from repro.net import (
    Bth,
    Flow,
    ImcDatacenterSizes,
    Ipv4,
    PROTO_TCP,
    PROTO_UDP,
    PacketSizeDistribution,
    Tcp,
    Udp,
    UniformSizes,
    Vxlan,
    fragment_packet,
    parse_frame,
    vxlan_encapsulate,
)
from repro.net.parse import ParseError
from repro.net.roce import Aeth, OP_ACK, OP_SEND_ONLY


def frame(proto=PROTO_UDP, payload=b"data"):
    flow = Flow("02:00:00:00:00:01", "02:00:00:00:00:02",
                "10.0.0.1", "10.0.0.2", 1111, 2222, proto)
    return flow.make_packet(payload)


class TestParseFrame:
    def test_udp_frame(self):
        packet = parse_frame(frame(PROTO_UDP).to_bytes())
        assert isinstance(packet.find(Udp), Udp)
        assert packet.payload == b"data"

    def test_tcp_frame(self):
        packet = parse_frame(frame(PROTO_TCP).to_bytes())
        assert isinstance(packet.find(Tcp), Tcp)

    def test_vxlan_recursion(self):
        inner = frame()
        outer = vxlan_encapsulate(inner, 33, "02:aa:00:00:00:01",
                                  "02:aa:00:00:00:02", "1.1.1.1",
                                  "2.2.2.2")
        packet = parse_frame(outer.to_bytes())
        assert packet.find(Vxlan).vni == 33
        # The inner UDP header is parsed too (two UDP layers).
        assert sum(isinstance(h, Udp) for h in packet.headers) == 2
        assert sum(isinstance(h, Ipv4) for h in packet.headers) == 2

    def test_fragment_stops_at_ip(self):
        whole = frame(PROTO_TCP, payload=bytes(3000))
        tail = fragment_packet(whole, 1500)[1]
        packet = parse_frame(tail.to_bytes())
        assert packet.find(Tcp) is None
        assert packet.find(Ipv4).is_fragment

    def test_roce_send_frame(self):
        from repro.net import Packet, Udp as UdpH
        from repro.net.roce import ICRC_SIZE
        from repro.net import Ethernet
        bth = Bth(OP_SEND_ONLY, dest_qp=5, psn=9)
        packet = Packet(payload=b"rdma" + bytes(ICRC_SIZE))
        packet.append(bth)
        udp = UdpH(50000, 4791).finalize(12 + 4 + ICRC_SIZE)
        packet.push(udp)
        ip = Ipv4("1.1.1.1", "2.2.2.2").finalize(udp.length)
        packet.push(ip)
        packet.push(Ethernet("02:00:00:00:00:01", "02:00:00:00:00:02"))
        parsed = parse_frame(packet.to_bytes())
        found = parsed.find(Bth)
        assert found is not None and found.dest_qp == 5

    def test_roce_ack_carries_aeth(self):
        from repro.net import Packet, Ethernet
        from repro.net.roce import ICRC_SIZE
        bth = Bth(OP_ACK, dest_qp=5, psn=9)
        packet = Packet(payload=bytes(ICRC_SIZE))
        packet.append(bth)
        packet.append(Aeth(msn=3))
        udp = Udp(50000, 4791).finalize(12 + 4 + ICRC_SIZE)
        packet.push(udp)
        ip = Ipv4("1.1.1.1", "2.2.2.2").finalize(udp.length)
        packet.push(ip)
        packet.push(Ethernet("02:00:00:00:00:01", "02:00:00:00:00:02"))
        parsed = parse_frame(packet.to_bytes())
        assert parsed.find(Aeth).msn == 3

    def test_truncated_frame_rejected(self):
        with pytest.raises(ParseError):
            parse_frame(b"\x00" * 8)

    def test_non_ip_ethertype_leaves_payload_raw(self):
        from repro.net import Ethernet, Packet
        packet = Packet(payload=b"arp-ish")
        packet.push(Ethernet("02:00:00:00:00:01", "02:00:00:00:00:02",
                             0x0806))
        parsed = parse_frame(packet.to_bytes())
        assert parsed.payload == b"arp-ish"
        assert parsed.find(Ipv4) is None


class TestTraceDistributions:
    def test_mixture_normalizes_weights(self):
        dist = PacketSizeDistribution([(64, 64, 2.0), (1500, 1500, 2.0)])
        sizes = dist.sizes(1000)
        assert set(sizes) == {64, 1500}

    def test_samples_within_buckets(self):
        dist = ImcDatacenterSizes(seed=1)
        for size in dist.sizes(2000):
            assert 64 <= size <= 1500

    def test_deterministic_with_seed(self):
        assert (ImcDatacenterSizes(seed=5).sizes(100)
                == ImcDatacenterSizes(seed=5).sizes(100))

    def test_mean_matches_calibration(self):
        dist = ImcDatacenterSizes(seed=0)
        empirical = sum(dist.sizes(20000)) / 20000
        exact = sum(w * (lo + hi) / 2.0 for lo, hi, w in dist.buckets)
        assert empirical == pytest.approx(exact, rel=0.05)

    def test_uniform_sizes(self):
        assert set(UniformSizes(700).sizes(50)) == {700}

    def test_invalid_buckets_rejected(self):
        with pytest.raises(ValueError):
            PacketSizeDistribution([])
        with pytest.raises(ValueError):
            PacketSizeDistribution([(100, 50, 1.0)])
        with pytest.raises(ValueError):
            PacketSizeDistribution([(10, 20, 1.0)])  # below min frame
        with pytest.raises(ValueError):
            PacketSizeDistribution([(64, 128, 0.0)])
