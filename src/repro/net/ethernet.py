"""Ethernet II header."""

from __future__ import annotations

from .packet import Header

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
ETHERTYPE_VLAN = 0x8100
ETHERTYPE_ROCE = 0x8915  # RoCE v1; RoCE v2 rides UDP/4791.

MIN_FRAME_SIZE = 60  # without FCS
DEFAULT_MTU = 1500


class MacAddress:
    """A 48-bit MAC address with canonical colon formatting."""

    __slots__ = ("value",)

    def __init__(self, value):
        if isinstance(value, MacAddress):
            self.value = value.value
        elif isinstance(value, int):
            if not 0 <= value < (1 << 48):
                raise ValueError(f"MAC out of range: {value:#x}")
            self.value = value
        elif isinstance(value, str):
            parts = value.split(":")
            if len(parts) != 6:
                raise ValueError(f"bad MAC string {value!r}")
            self.value = int("".join(parts), 16)
        elif isinstance(value, (bytes, bytearray)):
            if len(value) != 6:
                raise ValueError("MAC bytes must be length 6")
            self.value = int.from_bytes(value, "big")
        else:
            raise TypeError(f"cannot build MAC from {type(value)}")

    def pack(self) -> bytes:
        return self.value.to_bytes(6, "big")

    def __eq__(self, other) -> bool:
        return isinstance(other, MacAddress) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __str__(self) -> str:
        raw = f"{self.value:012x}"
        return ":".join(raw[i:i + 2] for i in range(0, 12, 2))

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"


BROADCAST_MAC = MacAddress((1 << 48) - 1)


class Ethernet(Header):
    """Ethernet II frame header (14 bytes, no VLAN tag)."""

    name = "ethernet"

    def __init__(self, src, dst, ethertype: int = ETHERTYPE_IPV4):
        self.src = MacAddress(src)
        self.dst = MacAddress(dst)
        self.ethertype = ethertype

    def pack(self) -> bytes:
        # dst(6) | src(6) | ethertype(2) as one 14-byte big-endian int.
        return ((self.dst.value << 64) | (self.src.value << 16)
                | self.ethertype).to_bytes(14, "big")

    @classmethod
    def unpack(cls, data: bytes) -> "Ethernet":
        if len(data) < 14:
            raise ValueError("truncated Ethernet header")
        # Bypass the polymorphic constructors: frame parsing runs per
        # hop on the datapath, and the wire format is already canonical.
        # One 14-byte int split beats three field-wise conversions.
        value = int.from_bytes(data[:14], "big")
        dst = MacAddress.__new__(MacAddress)
        dst.value = value >> 64
        src = MacAddress.__new__(MacAddress)
        src.value = (value >> 16) & 0xFFFFFFFFFFFF
        eth = cls.__new__(cls)
        eth.src = src
        eth.dst = dst
        eth.ethertype = value & 0xFFFF
        return eth
