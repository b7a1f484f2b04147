"""IP fragmentation and reassembly.

``fragment_packet`` models a router splitting a datagram for a smaller-MTU
hop; ``Reassembler`` is the stateful inverse, used both by the software
baseline (the CPU network stack defragmenting in §8.2.2) and by the
hardware defragmentation accelerator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .ip import FLAG_MF, Ipv4
from .packet import Packet

FRAGMENT_UNIT = 8  # fragment offsets are in units of 8 bytes


class FragmentError(ValueError):
    """Raised on malformed or unfragmentable input."""


def fragment_packet(packet: Packet, mtu: int) -> List[Packet]:
    """Split an IPv4 packet so each fragment's IP portion fits ``mtu``.

    ``mtu`` bounds the IP header + fragment payload (the L3 size, as routers
    enforce).  L4 headers travel inside the first fragment's payload, exactly
    as on the wire — which is why L4-dependent NIC offloads (RSS on ports,
    L4 checksum) break for non-first fragments.
    """
    ip = packet.find(Ipv4)
    if ip is None:
        raise FragmentError("no IPv4 header to fragment")
    if ip.dont_fragment:
        raise FragmentError("DF set; packet would be dropped (ICMP frag needed)")

    idx = packet.index_of(ip)
    outer_headers = packet.headers[:idx]
    # Everything above IP (L4 headers + payload) becomes raw fragment data.
    inner = b"".join(h.pack() for h in packet.headers[idx + 1:]) + packet.payload

    if ip.HEADER_LEN + len(inner) <= mtu:
        return [packet]

    max_payload = (mtu - ip.HEADER_LEN) // FRAGMENT_UNIT * FRAGMENT_UNIT
    if max_payload <= 0:
        raise FragmentError(f"MTU {mtu} too small for any fragment")

    fragments: List[Packet] = []
    offset = 0
    while offset < len(inner):
        chunk = inner[offset:offset + max_payload]
        last = offset + len(chunk) >= len(inner)
        frag_ip = Ipv4(
            src=ip.src, dst=ip.dst, proto=ip.proto, ttl=ip.ttl,
            ident=ip.ident, flags=ip.flags | (0 if last else FLAG_MF),
            frag_offset=offset // FRAGMENT_UNIT, dscp=ip.dscp,
        ).finalize(len(chunk))
        frag = Packet(
            [h for h in outer_headers] + [frag_ip], chunk, dict(packet.meta)
        )
        # Outer headers (e.g. Ethernet) are shared objects in `packet`;
        # copy them so later mutation of one fragment can't alias another.
        frag.headers[:idx] = [type(h).unpack(h.pack()) for h in outer_headers]
        fragments.append(frag)
        offset += len(chunk)
    return fragments


class _DatagramState:
    """Accumulates fragments of one datagram until complete."""

    __slots__ = ("chunks", "total_length", "first_fragment", "arrival")

    def __init__(self, arrival: float):
        self.chunks: Dict[int, bytes] = {}  # byte offset -> data
        self.total_length: Optional[int] = None
        self.first_fragment: Optional[Packet] = None
        self.arrival = arrival

    def add(self, frag: Packet, ip: Ipv4) -> None:
        offset = ip.frag_offset * FRAGMENT_UNIT
        data = frag.payload
        self.chunks[offset] = data
        if not ip.more_fragments:
            self.total_length = offset + len(data)
        if offset == 0:
            self.first_fragment = frag

    def complete(self) -> bool:
        if self.total_length is None or self.first_fragment is None:
            return False
        covered = 0
        for offset in sorted(self.chunks):
            if offset > covered:
                return False  # hole
            covered = max(covered, offset + len(self.chunks[offset]))
        return covered >= self.total_length

    def payload(self) -> bytes:
        out = bytearray(self.total_length)
        for offset in sorted(self.chunks):
            data = self.chunks[offset]
            out[offset:offset + len(data)] = data
        return bytes(out)


class Reassembler:
    """Reassembles IPv4 fragments into whole datagrams.

    Mirrors ``ip_defrag`` semantics: datagrams are keyed by
    (src, dst, proto, ident); stale partial datagrams expire after
    ``timeout`` seconds of simulation time; capacity bounds the number of
    concurrent partial datagrams (evicting oldest), modelling the fixed
    reassembly context table of the hardware accelerator.
    """

    def __init__(self, timeout: float = 30.0, capacity: int = 4096):
        self.timeout = timeout
        self.capacity = capacity
        self._pending: Dict[Tuple, _DatagramState] = {}
        self.stats_reassembled = 0
        self.stats_expired = 0
        self.stats_evicted = 0

    def __len__(self) -> int:
        return len(self._pending)

    def add(self, frag: Packet, now: float = 0.0) -> Optional[Packet]:
        """Feed one frame; returns the reassembled packet when complete.

        Non-fragment packets pass through unchanged.
        """
        ip = frag.find(Ipv4)
        if ip is None:
            raise FragmentError("no IPv4 header")
        if not ip.is_fragment:
            return frag

        self._expire(now)
        key = ip.flow_key()
        state = self._pending.get(key)
        if state is None:
            if len(self._pending) >= self.capacity:
                self._evict_oldest()
            state = _DatagramState(now)
            self._pending[key] = state
        state.add(frag, ip)

        if not state.complete():
            return None

        del self._pending[key]
        self.stats_reassembled += 1
        return self._rebuild(state)

    def _rebuild(self, state: _DatagramState) -> Packet:
        first = state.first_fragment
        ip = first.find(Ipv4)
        idx = first.index_of(ip)
        data = state.payload()
        whole_ip = Ipv4(
            src=ip.src, dst=ip.dst, proto=ip.proto, ttl=ip.ttl,
            ident=ip.ident, flags=ip.flags & ~FLAG_MF, frag_offset=0,
            dscp=ip.dscp,
        ).finalize(len(data))
        packet = Packet(
            first.headers[:idx] + [whole_ip], data, dict(first.meta)
        )
        packet.meta["reassembled"] = True
        return packet

    def _expire(self, now: float) -> None:
        stale = [
            key for key, state in self._pending.items()
            if now - state.arrival > self.timeout
        ]
        for key in stale:
            del self._pending[key]
            self.stats_expired += 1

    def _evict_oldest(self) -> None:
        oldest = min(self._pending, key=lambda k: self._pending[k].arrival)
        del self._pending[oldest]
        self.stats_evicted += 1


def parse_l4(packet: Packet):
    """Parse the raw L4 bytes of a reassembled datagram.

    Returns (l4_header, payload) for TCP/UDP, or (None, payload) otherwise.
    """
    from .ip import PROTO_TCP, PROTO_UDP
    from .tcp import Tcp
    from .udp import Udp

    ip = packet.find(Ipv4)
    if ip is None:
        raise FragmentError("no IPv4 header")
    data = packet.payload
    if ip.proto == PROTO_TCP:
        header = Tcp.unpack(data)
        return header, data[Tcp.HEADER_LEN:]
    if ip.proto == PROTO_UDP:
        header = Udp.unpack(data)
        return header, data[Udp.HEADER_LEN:]
    return None, data
