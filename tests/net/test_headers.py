"""Unit tests for protocol headers and addresses."""

import pytest

from repro.net import (
    Ethernet,
    IpAddress,
    Ipv4,
    MacAddress,
    PROTO_TCP,
    PROTO_UDP,
    Packet,
    Tcp,
    Udp,
    internet_checksum,
    verify_checksum,
)


class TestMacAddress:
    def test_string_roundtrip(self):
        mac = MacAddress("02:aa:bb:cc:dd:ee")
        assert str(mac) == "02:aa:bb:cc:dd:ee"

    def test_bytes_roundtrip(self):
        mac = MacAddress("02:aa:bb:cc:dd:ee")
        assert MacAddress(mac.pack()) == mac

    def test_int_construction(self):
        assert str(MacAddress(1)) == "00:00:00:00:00:01"

    def test_invalid_string_rejected(self):
        with pytest.raises(ValueError):
            MacAddress("not-a-mac")

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            MacAddress(1 << 48)

    def test_hashable(self):
        assert len({MacAddress(1), MacAddress(1), MacAddress(2)}) == 2


class TestIpAddress:
    def test_string_roundtrip(self):
        ip = IpAddress("192.168.1.10")
        assert str(ip) == "192.168.1.10"

    def test_bytes_roundtrip(self):
        ip = IpAddress("10.0.0.1")
        assert IpAddress(ip.pack()) == ip

    def test_int_value(self):
        assert IpAddress("0.0.0.255").value == 255

    def test_bad_octet_rejected(self):
        with pytest.raises(ValueError):
            IpAddress("1.2.3.999")


class TestChecksum:
    def test_rfc1071_example(self):
        # Canonical example from RFC 1071 materials.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_verify_of_packed_header(self):
        ip = Ipv4("1.2.3.4", "5.6.7.8").finalize(100)
        assert verify_checksum(ip.pack())

    def test_odd_length_padded(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")


class TestEthernet:
    def test_pack_unpack_roundtrip(self):
        eth = Ethernet("02:00:00:00:00:01", "02:00:00:00:00:02", 0x0800)
        again = Ethernet.unpack(eth.pack())
        assert again.src == eth.src
        assert again.dst == eth.dst
        assert again.ethertype == 0x0800

    def test_size_is_14(self):
        assert Ethernet("02:00:00:00:00:01", "02:00:00:00:00:02").size() == 14

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            Ethernet.unpack(b"\x00" * 10)


class TestIpv4:
    def test_pack_unpack_roundtrip(self):
        ip = Ipv4("10.0.0.1", "10.0.0.2", proto=PROTO_TCP, ttl=17,
                  ident=0x1234, flags=1, frag_offset=10).finalize(64)
        again = Ipv4.unpack(ip.pack())
        assert again.src == ip.src and again.dst == ip.dst
        assert again.proto == PROTO_TCP
        assert again.ttl == 17
        assert again.ident == 0x1234
        assert again.more_fragments
        assert again.frag_offset == 10
        assert again.total_length == 84

    def test_fragment_flags(self):
        whole = Ipv4("1.1.1.1", "2.2.2.2")
        assert not whole.is_fragment
        mf = Ipv4("1.1.1.1", "2.2.2.2", flags=1)
        assert mf.is_fragment and mf.more_fragments
        tail = Ipv4("1.1.1.1", "2.2.2.2", frag_offset=100)
        assert tail.is_fragment and not tail.more_fragments

    def test_flow_key_identifies_datagram(self):
        a = Ipv4("1.1.1.1", "2.2.2.2", ident=7)
        b = Ipv4("1.1.1.1", "2.2.2.2", ident=7, frag_offset=10)
        c = Ipv4("1.1.1.1", "2.2.2.2", ident=8)
        assert a.flow_key() == b.flow_key() != c.flow_key()

    def test_non_v4_rejected(self):
        with pytest.raises(ValueError):
            Ipv4.unpack(b"\x60" + b"\x00" * 19)


class TestUdp:
    def test_checksum_roundtrip(self):
        src, dst = IpAddress("10.0.0.1"), IpAddress("10.0.0.2")
        udp = Udp(1111, 2222).fill_checksum(src, dst, b"hello world")
        assert udp.verify(src, dst, b"hello world")
        assert not udp.verify(src, dst, b"hello worlD")

    def test_zero_checksum_means_disabled(self):
        src, dst = IpAddress("1.1.1.1"), IpAddress("2.2.2.2")
        udp = Udp(1, 2).finalize(4)
        assert udp.verify(src, dst, b"data")

    def test_finalize_sets_length(self):
        assert Udp(1, 2).finalize(100).length == 108


class TestTcp:
    def test_checksum_roundtrip(self):
        src, dst = IpAddress("10.0.0.1"), IpAddress("10.0.0.2")
        tcp = Tcp(80, 443, seq=1000).fill_checksum(src, dst, b"payload")
        assert tcp.verify(src, dst, b"payload")
        assert not tcp.verify(src, dst, b"Payload")

    def test_pack_unpack_roundtrip(self):
        tcp = Tcp(80, 443, seq=12345, ack=999, window=1024)
        again = Tcp.unpack(tcp.pack())
        assert (again.src_port, again.dst_port) == (80, 443)
        assert again.seq == 12345 and again.ack == 999
        assert again.window == 1024


class TestPacket:
    def _frame(self):
        packet = Packet()
        packet.append(Ethernet("02:00:00:00:00:01", "02:00:00:00:00:02"))
        packet.append(Ipv4("10.0.0.1", "10.0.0.2").finalize(8 + 4))
        packet.append(Udp(1, 2).finalize(4))
        packet.payload = b"abcd"
        return packet

    def test_size_accounting(self):
        packet = self._frame()
        assert packet.size() == 14 + 20 + 8 + 4
        assert packet.wire_size() == packet.size() + 24
        assert len(packet.to_bytes()) == packet.size()

    def test_push_pop_encapsulation(self):
        packet = self._frame()
        eth = packet.pop()
        assert isinstance(eth, Ethernet)
        assert isinstance(packet.headers[0], Ipv4)
        packet.push(eth)
        assert isinstance(packet.headers[0], Ethernet)

    def test_find_by_type(self):
        packet = self._frame()
        assert isinstance(packet.find(Udp), Udp)
        assert packet.find(Tcp) is None

    def test_copy_is_independent(self):
        packet = self._frame()
        clone = packet.copy()
        clone.find(Ipv4).ttl = 1
        clone.meta["x"] = 1
        assert packet.find(Ipv4).ttl != 1
        assert "x" not in packet.meta

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            Packet().pop()

    def test_repr_names_a_frozen_packet_without_thawing_it(self):
        packet = self._frame()
        thawed_repr = repr(packet)
        assert thawed_repr == "Packet(Ethernet/Ipv4/Udp, payload=4B)"
        layout = packet.fields()
        raw = packet.raw
        assert repr(packet) == thawed_repr
        assert packet.raw is raw and packet.layout is layout

    def test_each_accessor_moves_the_packet_one_way(self):
        packet = self._frame()
        frame = packet.to_bytes()
        assert packet.raw is None           # to_bytes does not freeze
        packet.fields()
        for read in (packet.to_bytes, packet.size, packet.wire_size,
                     packet.header_size, packet.copy, packet.fields,
                     lambda: packet.payload):
            read()
            assert packet.raw == frame      # readers leave it frozen
        assert packet.find(Udp).dst_port == 2   # builders thaw it
        assert packet.raw is None and packet.layout is None
        assert packet.to_bytes() == frame

    def test_a_headerless_packet_has_no_layers_whatever_its_bytes(self):
        frame = self._frame().to_bytes()
        packet = Packet(payload=frame)
        assert set(packet.fields()[3:]) == {None}
        assert packet.to_bytes() == frame
        assert packet.headers == [] and packet.payload == frame

    def test_a_stack_that_is_no_frame_raises_at_fields_and_stays_a_stack(
            self):
        eth = Ethernet("02:00:00:00:00:01", "02:00:00:00:00:02")
        packet = Packet([eth], b"\x45\x00")     # IPv4 ethertype, 2 bytes
        with pytest.raises(ValueError, match="truncated IPv4"):
            packet.fields()
        assert packet.raw is None and packet.headers == [eth]
        assert packet.to_bytes() == eth.pack() + b"\x45\x00"
