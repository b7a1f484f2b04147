"""Property-based tests for the packet library."""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.accelerators.iot import CoapMessage, sign_token, verify_token
from repro.accelerators.zuc import Zuc, eea3_decrypt, eea3_encrypt, eia3_mac
from repro.net import (
    Aeth,
    Bth,
    Ethernet,
    Flow,
    Ipv4,
    PROTO_TCP,
    PROTO_UDP,
    Packet,
    ROCE_V2_PORT,
    Reassembler,
    Reth,
    Tcp,
    Udp,
    VXLAN_PORT,
    Vxlan,
    fragment_packet,
    internet_checksum,
    parse_frame,
    verify_checksum,
)
from repro.net import parse as P
from repro.net.ip import FLAG_MF
from repro.net.roce import (
    ICRC_SIZE,
    OP_ACK,
    OP_RDMA_WRITE_FIRST,
    OP_RDMA_WRITE_ONLY,
    OP_SEND_FIRST,
    OP_SEND_ONLY,
)

from ..accelerators.zuc_oracle import OracleZuc

ips = st.integers(1, (1 << 32) - 2)
ports = st.integers(1, 65535)


def make_flow(src_ip, dst_ip, sport, dport, proto):
    return Flow("02:00:00:00:00:01", "02:00:00:00:00:02",
                src_ip, dst_ip, sport, dport, proto)


class TestChecksumProperties:
    @given(st.binary(max_size=512))
    @settings(max_examples=100, deadline=None)
    def test_checksum_self_verifies(self, data):
        """Appending the checksum makes the total sum verify."""
        checksum = internet_checksum(data)
        padded = data + b"\x00" if len(data) % 2 else data
        assert internet_checksum(padded + checksum.to_bytes(2, "big")) == 0

    @given(st.binary(min_size=2, max_size=256), st.integers(0, 7))
    @settings(max_examples=100, deadline=None)
    def test_corruption_detected(self, data, bit):
        assume(len(data) % 2 == 0)
        checksum = internet_checksum(data)
        corrupted = bytearray(data)
        corrupted[0] ^= 1 << bit
        assert internet_checksum(bytes(corrupted)) != checksum

    @given(st.one_of(
        st.binary(max_size=512),
        st.tuples(st.binary(max_size=512), st.booleans()).map(
            lambda drawn: _checksummed(*drawn))))
    @example(b"")
    @example(b"\x00")
    @example(b"\xff")
    @example(b"\xff\xff")
    @example(b"\xff\xff\x00")
    @settings(max_examples=200, deadline=None)
    def test_verify_is_a_zero_checksum(self, data):
        """``verify_checksum`` folds the sum itself; it must agree with
        ``internet_checksum`` on every length, odd and even."""
        assert verify_checksum(data) == (internet_checksum(data) == 0)


def _checksummed(data, odd):
    """``data`` made to verify: padded, its checksum appended, and (for
    an odd length) a trailing zero byte, which pads to a zero word."""
    padded = data + b"\x00" if len(data) % 2 else data
    whole = padded + internet_checksum(data).to_bytes(2, "big")
    return whole + b"\x00" if odd else whole


class TestFrameProperties:
    @given(src=ips, dst=ips, sport=ports, dport=ports,
           proto=st.sampled_from([PROTO_TCP, PROTO_UDP]),
           payload=st.binary(max_size=1400))
    @settings(max_examples=100, deadline=None)
    def test_serialize_parse_roundtrip(self, src, dst, sport, dport,
                                       proto, payload):
        flow = make_flow(src, dst, sport, dport, proto)
        packet = flow.make_packet(payload)
        again = parse_frame(packet.to_bytes())
        assert again.to_bytes() == packet.to_bytes()
        assert again.payload == payload

    @given(payload_size=st.integers(100, 8000),
           mtu=st.integers(576, 1500), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_fragment_reassemble_identity(self, payload_size, mtu, seed):
        import random
        rng = random.Random(seed)
        payload = bytes(rng.randrange(256) for _ in range(payload_size))
        flow = make_flow("10.0.0.1", "10.0.0.2", 1000, 2000, PROTO_UDP)
        packet = flow.make_packet(payload)
        original_inner = packet.headers[-1].pack() + payload
        fragments = fragment_packet(packet, mtu)
        assume(len(fragments) > 1)  # actually fragmented
        rng.shuffle(fragments)
        reassembler = Reassembler()
        whole = None
        for fragment in fragments:
            result = reassembler.add(fragment)
            whole = result or whole
        assert whole is not None
        assert whole.payload == original_inner

    @given(payload_size=st.integers(100, 4000), mtu=st.integers(576, 1500))
    @settings(max_examples=60, deadline=None)
    def test_fragments_respect_mtu_and_cover_payload(self, payload_size,
                                                     mtu):
        flow = make_flow("10.0.0.1", "10.0.0.2", 1, 2, PROTO_UDP)
        packet = flow.make_packet(bytes(payload_size))
        fragments = fragment_packet(packet, mtu)
        assume(len(fragments) > 1)  # actually fragmented
        total = sum(len(f.payload) for f in fragments)
        assert total == payload_size + 8  # + UDP header in fragment data
        for fragment in fragments:
            ip = fragment.find(Ipv4)
            assert ip.HEADER_LEN + len(fragment.payload) <= mtu


# -- frames for the layout-vs-object-parser property -------------------------

macs = st.integers(0, (1 << 48) - 1)
bodies = st.binary(max_size=64)


def _ethernet(draw, ethertype, body):
    return Ethernet(draw(macs), draw(macs), ethertype).pack() + body


def _ipv4(draw, proto, body, flags=0, frag_offset=0):
    ip = Ipv4(draw(ips), draw(ips), proto=proto, flags=flags,
              frag_offset=frag_offset, ident=draw(st.integers(0, 0xFFFF)),
              total_length=Ipv4.HEADER_LEN + len(body))
    return _ethernet(draw, 0x0800, ip.pack() + body)


def _udp(draw, dport, body):
    return Udp(draw(ports), dport, Udp.HEADER_LEN + len(body)).pack() + body


def _tcp(draw, body):
    return Tcp(draw(ports), draw(ports),
               seq=draw(st.integers(0, 0xFFFFFFFF))).pack() + body


def _l4(draw, proto, body):
    if proto == PROTO_TCP:
        return _tcp(draw, body)
    # Any port but the two the parser looks behind.
    return _udp(draw, draw(ports.filter(
        lambda p: p not in (VXLAN_PORT, ROCE_V2_PORT))), body)


def _roce(draw, opcode, extension=b""):
    bth = Bth(opcode, draw(st.integers(0, 0xFFFFFF)),
              draw(st.integers(0, 0xFFFFFF)),
              ack_request=draw(st.booleans()))
    return _ipv4(draw, PROTO_UDP, _udp(
        draw, ROCE_V2_PORT,
        bth.pack() + extension + draw(bodies) + bytes(ICRC_SIZE)))


def _reth(draw):
    return Reth(draw(st.integers(0, (1 << 64) - 1)),
                draw(st.integers(0, 0xFFFFFFFF)),
                draw(st.integers(0, 0xFFFFFFFF))).pack()


SHAPES = ["eth", "other-ethertype", "other-proto", "udp", "tcp",
          "mf-fragment", "offset-fragment", "vxlan-udp", "vxlan-tcp",
          "vxlan-roce", "roce-send", "roce-send-first", "roce-write-first",
          "roce-write-only", "roce-ack"]


@st.composite
def canonical_frames(draw, shape=None):
    """A frame of ``shape`` (default: any) as the header classes pack it."""
    if shape is None:
        shape = draw(st.sampled_from(SHAPES))
    body = draw(bodies)
    l4_proto = draw(st.sampled_from([PROTO_UDP, PROTO_TCP]))
    if shape == "eth":
        frame = _ethernet(draw, 0x0800, b"")[:14]
    elif shape == "other-ethertype":
        frame = _ethernet(draw, draw(st.sampled_from([0x0806, 0x86DD])), body)
    elif shape == "other-proto":
        frame = _ipv4(draw, draw(st.sampled_from([1, 47, 50])), body)
    elif shape == "udp":
        frame = _ipv4(draw, PROTO_UDP, _l4(draw, PROTO_UDP, body))
    elif shape == "tcp":
        frame = _ipv4(draw, PROTO_TCP, _tcp(draw, body))
    elif shape == "mf-fragment":
        frame = _ipv4(draw, l4_proto, _l4(draw, l4_proto, body),
                      flags=FLAG_MF)
    elif shape == "offset-fragment":
        frame = _ipv4(draw, l4_proto, body,
                      flags=draw(st.sampled_from([0, FLAG_MF])),
                      frag_offset=draw(st.integers(1, 0x1FFF)))
    elif shape.startswith("vxlan-"):
        if shape == "vxlan-roce":
            inner = _roce(draw, OP_SEND_ONLY)
        else:
            inner_proto = PROTO_UDP if shape == "vxlan-udp" else PROTO_TCP
            inner = _ipv4(draw, inner_proto, _l4(draw, inner_proto, body))
        vni = draw(st.integers(0, (1 << 24) - 1))
        frame = _ipv4(draw, PROTO_UDP,
                      _udp(draw, VXLAN_PORT, Vxlan(vni).pack() + inner))
    elif shape == "roce-send":
        frame = _roce(draw, OP_SEND_ONLY)
    elif shape == "roce-send-first":
        frame = _roce(draw, OP_SEND_FIRST)
    elif shape == "roce-write-first":
        frame = _roce(draw, OP_RDMA_WRITE_FIRST, _reth(draw))
    elif shape == "roce-write-only":
        frame = _roce(draw, OP_RDMA_WRITE_ONLY, _reth(draw))
    else:
        frame = _roce(draw, OP_ACK,
                      Aeth(draw(st.integers(0, 0xFFFFFF))).pack())
    return frame


@st.composite
def frames(draw, shape=None):
    """Canonical frames, half of them with one byte overwritten."""
    frame = draw(canonical_frames(shape))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(frame) - 1))
        frame = (frame[:at] + bytes([draw(st.integers(0, 255))])
                 + frame[at + 1:])
    return frame


def _outcome(parser, frame):
    try:
        return parser(frame)
    except ValueError as error:
        return type(error)


def _cuts(frame):
    """Every truncation of ``frame``, 0 … len bytes."""
    return [frame[:cut] for cut in range(len(frame) + 1)]


class TestLayoutMatchesObjectParser:
    """``parse_layout`` against the object parser, which is the oracle."""

    # Hypothesis samples shapes unevenly, so each takes its own tenth of
    # the profile's example budget (10 in tier-1, 100 at CI depth) —
    # every decision of the parser is then met at every cut, every run.
    @pytest.mark.parametrize("shape", SHAPES)
    @given(st.data())
    @settings(max_examples=settings().max_examples // 10, deadline=None)
    def test_same_errors_and_same_fields(self, shape, data):
        for frame in _cuts(data.draw(frames(shape))):
            layout = _outcome(P.parse_layout, frame)
            parsed = _outcome(P.parse_headers, frame)
            if isinstance(parsed, type):
                assert layout is parsed     # the same exception type
                continue
            headers, payload = parsed
            stack = Packet(headers, payload)
            offset_of, offset = {}, 0
            for header in headers:
                offset_of.setdefault(type(header), offset)
                offset += header.size()
            eth, ip = stack.find(Ethernet), stack.find(Ipv4)
            l4 = stack.find(Tcp) or stack.find(Udp)
            vxlan = stack.find(Vxlan)
            assert layout == (
                offset_of.get(Ipv4),
                offset_of[type(l4)] if l4 else None,
                len(frame) - len(payload),
                eth.dst.value, eth.ethertype,
                ip.src.value if ip else None,
                ip.dst.value if ip else None,
                ip.proto if ip else None,
                ip.is_fragment if ip else None,
                {Tcp: PROTO_TCP, Udp: PROTO_UDP}[type(l4)] if l4 else None,
                l4.src_port if l4 else None,
                l4.dst_port if l4 else None,
                vxlan.vni if vxlan else None,
                offset_of.get(Bth),
            )
            assert P.layer_names(frame, layout) == [
                type(h).__name__ for h in headers]

    @given(frames())
    @settings(deadline=None)
    def test_a_parsed_frame_is_its_bytes(self, frame):
        assume(not isinstance(_outcome(P.parse_layout, frame), type))
        packet = parse_frame(frame)
        assert packet.to_bytes() is frame
        assert packet.size() == len(frame)
        assert packet.payload == frame[packet.layout[P.PAYLOAD]:]
        twin = packet.copy()
        assert twin.raw is frame and twin.layout is packet.layout
        twin.meta["mark"] = 1
        assert "mark" not in packet.meta

    @given(canonical_frames())
    @settings(deadline=None)
    def test_thaw_and_refreeze_is_the_identity_on_canonical_frames(
            self, whole):
        for frame in _cuts(whole):
            if isinstance(_outcome(P.parse_layout, frame), type):
                continue
            packet = parse_frame(frame)
            layout = packet.layout
            assert packet.headers is packet.headers     # thawed once
            assert packet.raw is None and packet.layout is None
            assert packet.fields() == layout
            assert packet.raw == frame


class TestZucProperties:
    keys = st.binary(min_size=16, max_size=16)

    @given(key=keys, count=st.integers(0, 0xFFFFFFFF),
           bearer=st.integers(0, 31), direction=st.integers(0, 1),
           message=st.binary(min_size=1, max_size=2048))
    @settings(max_examples=60, deadline=None)
    def test_encrypt_decrypt_identity(self, key, count, bearer, direction,
                                      message):
        ciphertext = eea3_encrypt(key, count, bearer, direction, message)
        assert eea3_decrypt(key, count, bearer, direction,
                            ciphertext) == message

    @given(key=keys, iv=st.binary(min_size=16, max_size=16),
           words=st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_keystream_deterministic_and_32bit(self, key, iv, words):
        a = Zuc(key, iv).keystream(words)
        b = OracleZuc(key, iv).keystream(words)
        assert a == b
        assert all(0 <= w < (1 << 32) for w in a)

    @given(key=keys, message=st.binary(min_size=1, max_size=512))
    @settings(max_examples=60, deadline=None)
    def test_mac_detects_single_byte_change(self, key, message):
        mac = eia3_mac(key, 0, 0, 0, message)
        tampered = bytearray(message)
        tampered[0] ^= 0x01
        assert eia3_mac(key, 0, 0, 0, bytes(tampered)) != mac


class TestCoapJwtProperties:
    @given(code=st.integers(0, 255), mid=st.integers(0, 0xFFFF),
           token=st.binary(max_size=8), payload=st.binary(max_size=512),
           options=st.lists(
               st.tuples(st.integers(0, 2000), st.binary(max_size=64)),
               max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_coap_roundtrip(self, code, mid, token, payload, options):
        message = CoapMessage(code=code, message_id=mid, token=token,
                              options=options, payload=payload)
        again = CoapMessage.unpack(message.pack())
        assert again.code == code
        assert again.message_id == mid
        assert again.token == token
        assert again.payload == payload
        assert sorted(again.options) == sorted(options)

    @given(claims=st.dictionaries(
        st.text(min_size=1, max_size=10),
        st.one_of(st.integers(), st.text(max_size=20)), max_size=5),
        key=st.binary(min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_jwt_sign_verify_roundtrip(self, claims, key):
        token = sign_token(claims, key)
        assert verify_token(token, key) == claims
        assert verify_token(token, key + b"x") is None
