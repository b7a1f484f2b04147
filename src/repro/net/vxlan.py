"""VXLAN header (RFC 7348) and en/decapsulation helpers.

The defrag experiment (§8.2.2) relies on the NIC's VXLAN decapsulation
offload running *before* the accelerator; these helpers implement the
encapsulation format the offload engine parses.
"""

from __future__ import annotations

import struct
from typing import Optional

from .ethernet import Ethernet, ETHERTYPE_IPV4
from .ip import Ipv4, PROTO_UDP
from .packet import Header, Packet, VNI
from .udp import Udp, VXLAN_PORT

FLAG_VNI_VALID = 0x08


class Vxlan(Header):
    """VXLAN header (8 bytes): flags + 24-bit VNI."""

    name = "vxlan"
    HEADER_LEN = 8

    def __init__(self, vni: int, flags: int = FLAG_VNI_VALID):
        if not 0 <= vni < (1 << 24):
            raise ValueError(f"VNI out of range: {vni}")
        self.vni = vni
        self.flags = flags

    def size(self) -> int:
        return self.HEADER_LEN

    def pack(self) -> bytes:
        return struct.pack("!BBHI", self.flags, 0, 0, self.vni << 8)

    @classmethod
    def unpack(cls, data: bytes) -> "Vxlan":
        if len(data) < cls.HEADER_LEN:
            raise ValueError("truncated VXLAN header")
        flags, _r1, _r2, vni_field = struct.unpack("!BBHI", data[:8])
        return cls(vni=vni_field >> 8, flags=flags)


#: Where the inner frame starts: the first VXLAN header always sits
#: behind the outermost Eth/IPv4/UDP.
VXLAN_INNER = 14 + Ipv4.HEADER_LEN + Udp.HEADER_LEN + Vxlan.HEADER_LEN


def vxlan_encapsulate(inner: Packet, vni: int, outer_src_mac, outer_dst_mac,
                      outer_src_ip, outer_dst_ip,
                      src_port: Optional[int] = None) -> Packet:
    """Wrap ``inner`` (an Ethernet frame) in outer Eth/IP/UDP/VXLAN.

    ``src_port`` defaults to a hash of the inner frame for entropy, the
    standard trick for spreading tunnel traffic across ECMP/RSS.
    """
    if src_port is None:
        src_port = 49152 + (hash(bytes(inner.to_bytes()[:34])) & 0x3FFF)
    outer = inner.copy()
    inner_size = inner.size()
    outer.push(Vxlan(vni))
    udp = Udp(src_port, VXLAN_PORT).finalize(Vxlan.HEADER_LEN + inner_size)
    outer.push(udp)
    ip = Ipv4(outer_src_ip, outer_dst_ip, proto=PROTO_UDP)
    ip.finalize(udp.length)
    outer.push(ip)
    outer.push(Ethernet(outer_src_mac, outer_dst_mac, ETHERTYPE_IPV4))
    return outer


def vxlan_decapsulate(packet: Packet) -> Packet:
    """Strip outer Eth/IP/UDP/VXLAN, returning the inner frame.

    The inner frame is a new frozen packet over the same bytes past the
    VXLAN header; no header is rebuilt.  Raises ``ValueError`` when the
    packet is not a VXLAN encapsulation.
    """
    # Circular: the parser knows the Vxlan header.
    from .parse import parse_layout
    vni = (packet.layout or packet.fields())[VNI]
    if vni is None:
        raise ValueError("not a VXLAN packet")
    raw = packet.raw[VXLAN_INNER:]
    inner = Packet.frozen(raw, parse_layout(raw), dict(packet.meta))
    inner.meta["vxlan_vni"] = vni
    inner.meta["decapsulated"] = True
    return inner
