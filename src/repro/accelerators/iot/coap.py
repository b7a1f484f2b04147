"""CoAP message encoding/decoding (RFC 7252), the IoT carrier protocol.

The IoT authentication offload (§7) extracts JSON Web Tokens from
CoAP-encoded UDP messages; this module implements the subset of CoAP the
offload parses: the 4-byte fixed header, token, and the 0xFF payload
marker.  A message carrying options is refused (:class:`CoapError`), so
the offload counts it invalid; the tenants' devices send none.
"""

from __future__ import annotations

VERSION = 1

TYPE_CONFIRMABLE = 0
TYPE_NON_CONFIRMABLE = 1
TYPE_ACK = 2
TYPE_RESET = 3

# Method codes (class 0).
GET, POST, PUT, DELETE = 1, 2, 3, 4

PAYLOAD_MARKER = 0xFF


class CoapError(ValueError):
    """Raised on malformed CoAP messages."""


class CoapMessage:
    """A CoAP message: header, token, payload."""

    def __init__(self, code: int = POST, mtype: int = TYPE_NON_CONFIRMABLE,
                 message_id: int = 0, token: bytes = b"",
                 payload: bytes = b""):
        if len(token) > 8:
            raise CoapError("token longer than 8 bytes")
        self.code = code
        self.mtype = mtype
        self.message_id = message_id & 0xFFFF
        self.token = token
        self.payload = payload

    def pack(self) -> bytes:
        out = bytearray()
        out.append((VERSION << 6) | (self.mtype << 4) | len(self.token))
        out.append(self.code)
        out.extend(self.message_id.to_bytes(2, "big"))
        out.extend(self.token)
        if self.payload:
            out.append(PAYLOAD_MARKER)
            out.extend(self.payload)
        return bytes(out)

    @classmethod
    def unpack(cls, data: bytes) -> "CoapMessage":
        if len(data) < 4:
            raise CoapError("message shorter than the CoAP header")
        version = data[0] >> 6
        if version != VERSION:
            raise CoapError(f"unsupported CoAP version {version}")
        mtype = (data[0] >> 4) & 0x3
        token_length = data[0] & 0xF
        if token_length > 8:
            raise CoapError("token length nibble > 8")
        code = data[1]
        message_id = int.from_bytes(data[2:4], "big")
        offset = 4
        if len(data) < offset + token_length:
            raise CoapError("truncated token")
        token = data[offset:offset + token_length]
        offset += token_length
        if offset == len(data):
            return cls(code, mtype, message_id, token)
        if data[offset] != PAYLOAD_MARKER:
            raise CoapError("options are not parsed")
        if offset + 1 == len(data):
            raise CoapError("payload marker with empty payload")
        return cls(code, mtype, message_id, token, data[offset + 1:])
