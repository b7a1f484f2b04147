"""Stateless NIC offloads: checksum validate/fill and helpers (§2.1).

The receive path validates L3/L4 checksums and reports the result in CQE
flags; the transmit path fills checksums requested by WQE flags.  These
run *inside* the NIC, which is exactly what breaks when packets are
fragmented (no L4 header visible) — the failure the defrag accelerator
repairs in §8.2.2.
"""

from __future__ import annotations

from typing import List

from ..net import Ethernet, IpAddress, Ipv4, PROTO_UDP, Packet, Tcp, Udp
from ..net.checksum import verify_checksum_at
from ..net.parse import (
    IS_FRAGMENT, L3, L4, L4_PROTO, PAYLOAD, DST_IP, SRC_IP,
)
from .wqe import CQE_FLAG_L3_OK, CQE_FLAG_L4_OK


class ChecksumOffload:
    """Validate (rx) and fill (tx) L3/L4 checksums."""

    def __init__(self):
        self.stats_rx_l4_skipped = 0

    # -- receive side ------------------------------------------------------

    def validate(self, packet: Packet) -> int:
        """CQE flag bits for this packet's checksum status.

        L3 verifies the header bytes as received.  L4 validation is
        skipped (flag not set) for fragments: the NIC cannot checksum a
        datagram it only sees a piece of.
        """
        layout = packet.layout or packet.fields()
        flags = 0
        l3 = layout[L3]
        if l3 is not None:
            raw = packet.raw
            if verify_checksum_at(raw, l3, Ipv4.HEADER_LEN):
                flags |= CQE_FLAG_L3_OK
            if layout[IS_FRAGMENT]:
                self.stats_rx_l4_skipped += 1
                return flags
            l4 = layout[L4]
            if l4 is not None:
                if layout[L4_PROTO] == PROTO_UDP:
                    # Checksum 0 means disabled: every generated flow.
                    ok = (raw[l4 + 6:l4 + 8] == b"\x00\x00"
                          or self._l4_verify(Udp, raw, layout, l4))
                else:
                    ok = self._l4_verify(Tcp, raw, layout, l4)
                if ok:
                    flags |= CQE_FLAG_L4_OK
        return flags

    @staticmethod
    def _l4_verify(codec, raw: bytes, layout: tuple, l4: int) -> bool:
        """Verify through the header codec, over the bytes past the
        *last* parsed header (DESIGN.md, packet-library quirks)."""
        header = codec.unpack(raw[l4:l4 + codec.HEADER_LEN])
        return header.verify(IpAddress(layout[SRC_IP]),
                             IpAddress(layout[DST_IP]),
                             raw[layout[PAYLOAD]:])

    # -- transmit side -----------------------------------------------------

    def fill(self, packet: Packet, l3: bool = True, l4: bool = True) -> None:
        """Fill checksums in-place as a transmit offload."""
        ip = packet.find(Ipv4)
        if ip is None:
            return
        if l4 and not ip.is_fragment:
            l4_header = packet.find(Tcp) or packet.find(Udp)
            if l4_header is not None:
                l4_header.fill_checksum(ip.src, ip.dst, packet.payload)
        # IPv4 header checksum is recomputed by Ipv4.pack() itself; the
        # l3 flag exists for symmetry with real WQE flag bits.


class SegmentationOffload:
    """LSO/TSO (§2.1's "TCP segmentation" stateless offload).

    The driver posts one large TCP frame with ``WQE_FLAG_LSO`` and an
    MSS; the NIC emits MSS-sized segments with cloned headers, advancing
    sequence numbers and IP identifiers and filling checksums — the work
    a host stack would otherwise do per segment.
    """

    def __init__(self):
        self.stats_lso_frames = 0
        self.stats_segments = 0

    def segment(self, packet: Packet, mss: int) -> List[Packet]:
        """Split one oversized TCP frame into MSS-sized segments."""
        if mss <= 0:
            raise ValueError("LSO needs a positive MSS")
        tcp = packet.find(Tcp)
        ip = packet.find(Ipv4)
        if tcp is None or ip is None:
            return [packet]  # LSO only applies to TCP/IPv4 here
        payload = packet.payload
        if len(payload) <= mss:
            return [packet]
        self.stats_lso_frames += 1
        eth = packet.find(Ethernet)
        segments: List[Packet] = []
        offset = 0
        ident = ip.ident
        while offset < len(payload):
            chunk = payload[offset:offset + mss]
            last = offset + len(chunk) >= len(payload)
            seg_tcp = Tcp(tcp.src_port, tcp.dst_port,
                          seq=(tcp.seq + offset) & 0xFFFFFFFF,
                          ack=tcp.ack,
                          # PSH only on the last segment, as NICs do.
                          flags=tcp.flags if last else tcp.flags & ~0x08,
                          window=tcp.window)
            seg_ip = Ipv4(ip.src, ip.dst, proto=ip.proto, ttl=ip.ttl,
                          ident=ident, dscp=ip.dscp)
            ident = (ident + 1) & 0xFFFF
            seg_ip.finalize(seg_tcp.size() + len(chunk))
            seg_tcp.fill_checksum(seg_ip.src, seg_ip.dst, chunk)
            segment = Packet(
                [Ethernet(eth.src, eth.dst, eth.ethertype), seg_ip,
                 seg_tcp],
                chunk, dict(packet.meta),
            )
            segments.append(segment)
            self.stats_segments += 1
            offset += len(chunk)
        return segments
