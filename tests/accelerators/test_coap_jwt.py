"""Unit tests for the CoAP parser and JWT validation."""

import pytest

from repro.accelerators.iot import (
    CoapError,
    CoapMessage,
    JwtError,
    parse_token,
    sign_token,
    verify_token,
)
from repro.accelerators.iot.coap import (
    POST,
    TYPE_ACK,
    TYPE_NON_CONFIRMABLE,
)


class TestCoap:
    def test_minimal_roundtrip(self):
        message = CoapMessage(code=POST, message_id=0x1234)
        again = CoapMessage.unpack(message.pack())
        assert again.code == POST
        assert again.message_id == 0x1234
        assert again.payload == b""

    def test_token_roundtrip(self):
        message = CoapMessage(token=b"\xde\xad\xbe\xef")
        assert CoapMessage.unpack(message.pack()).token == b"\xde\xad\xbe\xef"

    def test_payload_roundtrip(self):
        message = CoapMessage(payload=b"hello iot world")
        again = CoapMessage.unpack(message.pack())
        assert again.payload == b"hello iot world"

    def test_everything_together(self):
        message = CoapMessage(code=POST, mtype=TYPE_ACK, message_id=7,
                              token=b"tok", payload=b"data!")
        again = CoapMessage.unpack(message.pack())
        assert (again.mtype, again.token, again.payload) == (
            TYPE_ACK, b"tok", b"data!")

    def test_truncated_header_rejected(self):
        with pytest.raises(CoapError):
            CoapMessage.unpack(b"\x40\x01")

    def test_bad_version_rejected(self):
        data = bytearray(CoapMessage().pack())
        data[0] = (2 << 6) | (data[0] & 0x3F)
        with pytest.raises(CoapError):
            CoapMessage.unpack(bytes(data))

    def test_payload_marker_without_payload_rejected(self):
        data = CoapMessage().pack() + b"\xff"
        with pytest.raises(CoapError):
            CoapMessage.unpack(data)

    def test_a_message_with_options_is_refused(self):
        # A Uri-Path option ("auth") between the token and the payload.
        data = CoapMessage(token=b"tok").pack() + b"\xb4auth\xffdata"
        with pytest.raises(CoapError):
            CoapMessage.unpack(data)

    @pytest.mark.parametrize("options", [
        b"\xb4auth",                       # an option and no payload
        b"\xd1\x00x\xffdata",               # delta nibble 13: one more byte
        b"\x1e\x00\x00" + b"v" * 269,       # length nibble 14: two more
    ], ids=["no-payload", "extended-delta", "extended-length"])
    def test_each_option_encoding_is_refused(self, options):
        with pytest.raises(CoapError):
            CoapMessage.unpack(CoapMessage(token=b"t").pack() + options)

    def test_long_token_rejected(self):
        with pytest.raises(CoapError):
            CoapMessage(token=b"123456789")


class TestJwt:
    KEY = b"tenant-secret-key"

    def test_sign_and_verify(self):
        token = sign_token({"sub": "device-1", "iat": 1000}, self.KEY)
        claims = verify_token(token, self.KEY)
        assert claims == {"sub": "device-1", "iat": 1000}

    def test_wrong_key_rejected(self):
        token = sign_token({"sub": "device-1"}, self.KEY)
        assert verify_token(token, b"other-key") is None

    def test_tampered_payload_rejected(self):
        token = sign_token({"sub": "device-1"}, self.KEY)
        header, payload, signature = token.split(b".")
        evil = sign_token({"sub": "attacker"}, b"attacker-key").split(b".")[1]
        assert verify_token(header + b"." + evil + b"." + signature,
                            self.KEY) is None

    def test_tampered_signature_rejected(self):
        token = bytearray(sign_token({"a": 1}, self.KEY))
        token[-1] ^= 0x41
        assert verify_token(bytes(token), self.KEY) is None

    def test_structure_parse(self):
        token = sign_token({"x": [1, 2, 3]}, self.KEY)
        header, claims, signature = parse_token(token)
        assert header["alg"] == "HS256"
        assert claims["x"] == [1, 2, 3]
        assert len(signature) == 32

    def test_malformed_token_raises(self):
        with pytest.raises(JwtError):
            parse_token(b"not-a-jwt")
        with pytest.raises(JwtError):
            parse_token(b"a.b")

    def test_garbage_segments_return_none(self):
        assert verify_token(b"!!!.???.###", self.KEY) is None

    def test_non_hs256_rejected(self):
        import base64, json
        header = base64.urlsafe_b64encode(
            json.dumps({"alg": "none"}).encode()).rstrip(b"=")
        body = base64.urlsafe_b64encode(b"{}").rstrip(b"=")
        token = header + b"." + body + b"."
        assert verify_token(token, self.KEY) is None
