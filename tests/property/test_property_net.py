"""Property-based tests for the packet library."""

from hypothesis import assume, given, settings, strategies as st

from repro.accelerators.iot import CoapMessage, sign_token, verify_token
from repro.accelerators.zuc import Zuc, eea3_decrypt, eea3_encrypt, eia3_mac
from repro.net import (
    Flow,
    Ipv4,
    PROTO_TCP,
    PROTO_UDP,
    Reassembler,
    fragment_packet,
    internet_checksum,
    parse_frame,
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
