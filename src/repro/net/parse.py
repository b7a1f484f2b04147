"""Parse raw Ethernet frames: one layout tuple, or a header-object stack.

The NIC's receive pipeline and the accelerators both parse frames that
arrive as bytes (from DMA buffers or the wire).  The parser understands
the protocols the reproduction exercises: Ethernet / IPv4 / {TCP, UDP} /
VXLAN (recursively) and RoCE v2 (BTH over UDP 4791).

Fragmented IPv4 packets stop parsing at the IP layer — their L4 bytes stay
in the payload, exactly the property that breaks L4-dependent NIC offloads.

There are two parsers making the same decisions.  :func:`parse_layout`
is the datapath's: it reads the handful of fields the NIC acts on
straight from the bytes and builds no objects.  :func:`parse_headers` is
the object parser a frozen packet thaws with, and the oracle the layout
is property-tested against.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from .ethernet import ETHERTYPE_IPV4, Ethernet
from .ip import Ipv4, PROTO_TCP, PROTO_UDP
from .packet import (  # noqa: F401  (the slot names are re-exported)
    BTH, DST_IP, DST_MAC, DST_PORT, ETHERTYPE, Header, IS_FRAGMENT, L3, L4,
    L4_PROTO, NO_LAYERS, PAYLOAD, PROTO, Packet, SRC_IP, SRC_PORT, VNI,
)
from .roce import ACK, FIRST, OPCODE_CLASS, WRITE, Aeth, Bth, Reth
from .tcp import Tcp
from .udp import ROCE_V2_PORT, Udp, VXLAN_PORT
from .vxlan import VXLAN_INNER, Vxlan

_ETH = struct.Struct("!HI6xH")        # dst MAC (high 16, low 32), ethertype
_IPV4 = struct.Struct("!B5xHxB2xII")  # version/IHL, flags+offset, proto, src, dst
_PORTS = struct.Struct("!HH")


class ParseError(ValueError):
    """Raised on truncated or malformed frames."""


def parse_frame(data: bytes, layout: Optional[tuple] = None) -> Packet:
    """Parse a full Ethernet frame into a frozen packet (``layout`` is
    ``data``'s, for a caller that already holds it)."""
    return Packet.frozen(data, layout or parse_layout(data), {})


def parse_layout(data: bytes, base: int = 0) -> tuple:
    """The layout tuple (slots ``L3`` … ``BTH``) of the frame at ``base``.

    Builds no header objects, and raises what :func:`parse_headers`
    raises on the same bytes.
    """
    size = len(data)
    if size - base < 14:
        raise ParseError("frame shorter than an Ethernet header")
    mac_high, mac_low, ethertype = _ETH.unpack_from(data, base)
    dst_mac = (mac_high << 32) | mac_low
    offset = base + 14
    if ethertype != ETHERTYPE_IPV4:
        return (None, None, offset, dst_mac, ethertype,
                None, None, None, None, None, None, None, None, None)
    if size - offset < 20:
        raise ValueError("truncated IPv4 header")
    l3 = offset
    version_ihl, flags_frag, proto, src_ip, dst_ip = _IPV4.unpack_from(
        data, l3)
    if version_ihl >> 4 != 4:
        raise ValueError("not an IPv4 packet")
    offset += 20
    left = size - offset
    # MF flag or a nonzero fragment offset: L4 may be absent or must
    # not be consumed.
    is_fragment = flags_frag & 0x3FFF != 0
    l4 = l4_proto = src_port = dst_port = vni = bth = None
    if is_fragment:
        pass
    elif proto == PROTO_TCP:
        if left >= 20:
            l4, l4_proto = offset, PROTO_TCP
            src_port, dst_port = _PORTS.unpack_from(data, offset)
            offset += 20
    elif proto == PROTO_UDP and left >= 8:
        l4, l4_proto = offset, PROTO_UDP
        src_port, dst_port = _PORTS.unpack_from(data, offset)
        offset += 8
        left -= 8
        if dst_port == VXLAN_PORT:
            if left >= 8:
                vni = int.from_bytes(data[offset + 4:offset + 7], "big")
                inner = parse_layout(data, offset + 8)
                offset = inner[PAYLOAD]
                bth = inner[BTH]
                if inner[L4_PROTO] == PROTO_TCP:
                    # find(Tcp) wins over find(Udp), at any depth.
                    l4, l4_proto = inner[L4], PROTO_TCP
                    src_port, dst_port = inner[SRC_PORT], inner[DST_PORT]
        elif dst_port == ROCE_V2_PORT and left >= 12:
            bth = offset
            kind = OPCODE_CLASS[data[offset]]
            offset += 12
            left -= 12
            if kind & ACK:
                if left >= 4:
                    offset += 4
            elif kind & (WRITE | FIRST) == WRITE | FIRST and left >= 16:
                offset += 16
    return (l3, l4, offset, dst_mac, ethertype, src_ip, dst_ip, proto,
            is_fragment, l4_proto, src_port, dst_port, vni, bth)


def layer_names(raw: bytes, layout: tuple) -> List[str]:
    """Header class names of a frozen frame, outermost first."""
    if layout[ETHERTYPE] is None:
        return []
    names = ["Ethernet"]
    if layout[L3] is None:
        return names
    names.append("Ipv4")
    if layout[VNI] is not None:
        return names + ["Udp", "Vxlan"] + layer_names(
            raw, parse_layout(raw, VXLAN_INNER))
    if layout[L4] is not None:
        names.append("Tcp" if layout[L4_PROTO] == PROTO_TCP else "Udp")
    bth = layout[BTH]
    if bth is not None:
        names.append("Bth")
        extension = layout[PAYLOAD] - bth - Bth.HEADER_LEN
        if extension:
            names.append("Aeth" if extension == Aeth.HEADER_LEN else "Reth")
    return names


def parse_headers(data: bytes) -> Tuple[List[Header], bytes]:
    """The object parser: ``(header stack, payload)`` of a full frame."""
    headers: List[Header] = []
    offset = _parse_ethernet(headers, data, 0)
    return headers, data[offset:]


def _parse_ethernet(headers: List[Header], data: bytes, offset: int) -> int:
    if len(data) - offset < 14:
        raise ParseError("frame shorter than an Ethernet header")
    eth = Ethernet.unpack(data[offset:offset + 14])
    headers.append(eth)
    offset += 14
    if eth.ethertype == ETHERTYPE_IPV4:
        return _parse_ipv4(headers, data, offset)
    return offset


def _parse_ipv4(headers: List[Header], data: bytes, offset: int) -> int:
    ip = Ipv4.unpack(data[offset:offset + Ipv4.HEADER_LEN])
    headers.append(ip)
    offset += Ipv4.HEADER_LEN
    if ip.is_fragment:
        return offset  # L4 header may be absent or must not be consumed
    if ip.proto == PROTO_TCP and len(data) - offset >= Tcp.HEADER_LEN:
        headers.append(Tcp.unpack(data[offset:offset + Tcp.HEADER_LEN]))
        return offset + Tcp.HEADER_LEN
    if ip.proto == PROTO_UDP and len(data) - offset >= Udp.HEADER_LEN:
        udp = Udp.unpack(data[offset:offset + Udp.HEADER_LEN])
        headers.append(udp)
        offset += Udp.HEADER_LEN
        if udp.dst_port == VXLAN_PORT and len(data) - offset >= Vxlan.HEADER_LEN:
            headers.append(Vxlan.unpack(data[offset:offset + Vxlan.HEADER_LEN]))
            offset += Vxlan.HEADER_LEN
            return _parse_ethernet(headers, data, offset)
        if udp.dst_port == ROCE_V2_PORT and len(data) - offset >= Bth.HEADER_LEN:
            return _parse_roce(headers, data, offset)
        return offset
    return offset


def _parse_roce(headers: List[Header], data: bytes, offset: int) -> int:
    bth = Bth.unpack(data[offset:offset + Bth.HEADER_LEN])
    headers.append(bth)
    offset += Bth.HEADER_LEN
    if bth.is_ack and len(data) - offset >= Aeth.HEADER_LEN:
        headers.append(Aeth.unpack(data[offset:offset + Aeth.HEADER_LEN]))
        offset += Aeth.HEADER_LEN
    elif bth.is_write and bth.is_first and len(data) - offset >= Reth.HEADER_LEN:
        headers.append(Reth.unpack(data[offset:offset + Reth.HEADER_LEN]))
        offset += Reth.HEADER_LEN
    return offset
