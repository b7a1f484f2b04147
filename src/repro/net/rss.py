"""Receive-side scaling: Toeplitz hash over the 5-tuple.

This is the Microsoft RSS Toeplitz hash used by ConnectX and most NICs;
it spreads flows across receive queues/cores.  The defrag experiment
(§8.2.2) hinges on RSS *failing* for non-first IP fragments (no L4 ports
visible), collapsing traffic onto a single core.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from .ip import PROTO_TCP, PROTO_UDP
from .packet import (
    DST_IP, DST_PORT, IS_FRAGMENT, L3, L4, PAYLOAD, PROTO, Packet, SRC_IP,
    SRC_PORT,
)

# The canonical 40-byte Microsoft RSS key.
DEFAULT_RSS_KEY = bytes([
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
    0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
    0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
])


def toeplitz_hash(data: bytes, key: bytes = DEFAULT_RSS_KEY) -> int:
    """The Toeplitz hash of ``data`` under ``key`` (32-bit result)."""
    if len(key) * 8 < len(data) * 8 + 32:
        raise ValueError("RSS key too short for input")
    key_int = int.from_bytes(key, "big")
    key_bits = len(key) * 8
    result = 0
    bit_index = 0
    for byte in data:
        for bit in range(7, -1, -1):
            if byte & (1 << bit):
                # The 32-bit window of the key starting at this input bit.
                window = (key_int >> (key_bits - 32 - bit_index)) & 0xFFFFFFFF
                result ^= window
            bit_index += 1
    return result


def rss_input_v4(src_ip: int, dst_ip: int,
                 ports: Optional[Tuple[int, int]]) -> bytes:
    """Build the RSS hash input: src/dst IP, optionally src/dst port."""
    if ports is None:
        return struct.pack("!II", src_ip, dst_ip)
    return struct.pack("!IIHH", src_ip, dst_ip, ports[0], ports[1])


def extract_ports(packet: Packet) -> Optional[Tuple[int, int]]:
    """L4 ports if visible in this frame, else ``None``.

    Ports are invisible for (a) non-TCP/UDP protocols and (b) *non-first*
    IP fragments, where the L4 header lives in a different frame.  For a
    fragmented datagram even the first fragment must be excluded: hashing
    it with ports while later fragments hash without would split one
    datagram across cores, so NICs fall back to the 2-tuple for any frame
    with MF set or a nonzero offset.
    """
    layout = packet.layout or packet.fields()
    if layout[L3] is None or layout[IS_FRAGMENT]:
        return None
    if layout[L4] is not None:
        return (layout[SRC_PORT], layout[DST_PORT])
    # An L4 header too short to parse still leads with its ports.
    raw = packet.raw
    at = layout[PAYLOAD]
    if layout[PROTO] in (PROTO_TCP, PROTO_UDP) and len(raw) - at >= 4:
        return struct.unpack_from("!HH", raw, at)
    return None


class RssEngine:
    """Hash packets onto a receive-queue indirection table."""

    def __init__(self, queues: List[int], key: bytes = DEFAULT_RSS_KEY,
                 table_size: int = 128):
        if not queues:
            raise ValueError("RSS needs at least one queue")
        self.key = key
        self.indirection: List[int] = [
            queues[i % len(queues)] for i in range(table_size)
        ]
        self.stats_no_ports = 0

    def queue_for(self, packet: Packet) -> int:
        """Pick the destination queue for ``packet``.

        Fragmented or portless packets hash on the 2-tuple only, which is
        what concentrates fragmented traffic (same src/dst pair) onto one
        queue in the paper's defrag experiment.
        """
        layout = packet.layout or packet.fields()
        if layout[L3] is None:
            return self.indirection[0]
        ports = extract_ports(packet)
        if ports is None:
            self.stats_no_ports += 1
        value = toeplitz_hash(
            rss_input_v4(layout[SRC_IP], layout[DST_IP], ports), self.key)
        packet.meta["rss_hash"] = value
        return self.indirection[value % len(self.indirection)]
