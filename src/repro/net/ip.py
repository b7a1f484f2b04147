"""IPv4 header with fragmentation fields and real checksum."""

from __future__ import annotations

import struct

from .packet import Header

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

FLAG_DF = 0x2  # don't fragment
FLAG_MF = 0x1  # more fragments

_HEADER_STRUCT = struct.Struct("!BBHHHBBHII")


class IpAddress:
    """A 32-bit IPv4 address."""

    __slots__ = ("value",)

    def __init__(self, value):
        if isinstance(value, IpAddress):
            self.value = value.value
        elif isinstance(value, int):
            if not 0 <= value < (1 << 32):
                raise ValueError(f"IPv4 out of range: {value:#x}")
            self.value = value
        elif isinstance(value, str):
            parts = value.split(".")
            if len(parts) != 4:
                raise ValueError(f"bad IPv4 string {value!r}")
            self.value = 0
            for part in parts:
                octet = int(part)
                if not 0 <= octet <= 255:
                    raise ValueError(f"bad IPv4 octet {part!r}")
                self.value = (self.value << 8) | octet
        elif isinstance(value, (bytes, bytearray)):
            if len(value) != 4:
                raise ValueError("IPv4 bytes must be length 4")
            self.value = int.from_bytes(value, "big")
        else:
            raise TypeError(f"cannot build IPv4 address from {type(value)}")

    def pack(self) -> bytes:
        return self.value.to_bytes(4, "big")

    def __eq__(self, other) -> bool:
        return isinstance(other, IpAddress) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __str__(self) -> str:
        return ".".join(str((self.value >> s) & 0xFF) for s in (24, 16, 8, 0))

    def __repr__(self) -> str:
        return f"IpAddress('{self}')"


class Ipv4(Header):
    """IPv4 header (20 bytes, no options).

    ``total_length`` covers the IP header plus everything it encapsulates;
    callers normally leave it 0 and let :meth:`finalize` fill it in from the
    packet contents before serialization.
    """

    name = "ipv4"

    def __init__(self, src, dst, proto: int = PROTO_UDP, ttl: int = 64,
                 ident: int = 0, flags: int = 0, frag_offset: int = 0,
                 total_length: int = 0, dscp: int = 0):
        self.src = IpAddress(src)
        self.dst = IpAddress(dst)
        self.proto = proto
        self.ttl = ttl
        self.ident = ident & 0xFFFF
        self.flags = flags
        self.frag_offset = frag_offset  # in 8-byte units
        self.total_length = total_length
        self.dscp = dscp

    HEADER_LEN = 20

    def size(self) -> int:
        return self.HEADER_LEN

    @property
    def more_fragments(self) -> bool:
        return bool(self.flags & FLAG_MF)

    @property
    def dont_fragment(self) -> bool:
        return bool(self.flags & FLAG_DF)

    @property
    def is_fragment(self) -> bool:
        """True for any frame that is part of a fragmented datagram."""
        return self.more_fragments or self.frag_offset > 0

    def finalize(self, payload_length: int) -> "Ipv4":
        """Set total_length for ``payload_length`` bytes above this header."""
        self.total_length = self.HEADER_LEN + payload_length
        return self

    def pack(self) -> bytes:
        version_ihl = (4 << 4) | (self.HEADER_LEN // 4)
        tos = self.dscp << 2
        flags_frag = (self.flags << 13) | (self.frag_offset & 0x1FFF)
        src = self.src.value
        dst = self.dst.value
        # The header checksum folds the same 16-bit words struct would
        # produce, computed straight from the fields — one pack instead
        # of pack + re-scan + splice.
        total = (((version_ihl << 8) | tos) + self.total_length + self.ident
                 + flags_frag + ((self.ttl << 8) | self.proto)
                 + (src >> 16) + (src & 0xFFFF)
                 + (dst >> 16) + (dst & 0xFFFF))
        while total >> 16:
            total = (total & 0xFFFF) + (total >> 16)
        checksum = (~total) & 0xFFFF
        return _HEADER_STRUCT.pack(
            version_ihl, tos, self.total_length, self.ident,
            flags_frag, self.ttl, self.proto, checksum, src, dst,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "Ipv4":
        if len(data) < cls.HEADER_LEN:
            raise ValueError("truncated IPv4 header")
        (version_ihl, tos, total_length, ident, flags_frag, ttl, proto,
         _checksum, src, dst) = _HEADER_STRUCT.unpack_from(data)
        if version_ihl >> 4 != 4:
            raise ValueError("not an IPv4 packet")
        # Datapath fast construction: skip the polymorphic address
        # coercion — the wire values are already canonical ints.
        ip = cls.__new__(cls)
        src_addr = IpAddress.__new__(IpAddress)
        src_addr.value = src
        dst_addr = IpAddress.__new__(IpAddress)
        dst_addr.value = dst
        ip.src = src_addr
        ip.dst = dst_addr
        ip.proto = proto
        ip.ttl = ttl
        ip.ident = ident
        ip.flags = flags_frag >> 13
        ip.frag_offset = flags_frag & 0x1FFF
        ip.total_length = total_length
        ip.dscp = tos >> 2
        return ip

    def flow_key(self):
        """(src, dst, proto, ident) — the datagram identity for reassembly."""
        return (self.src.value, self.dst.value, self.proto, self.ident)
