"""Flow definitions and synthetic traffic builders.

A :class:`Flow` is a 5-tuple template that stamps out packets; builders
cover the workloads of the evaluation: iperf-style TCP flows (§8.2.2),
UDP/CoAP IoT traffic (§8.2.3) and raw Ethernet load-gen frames (§8.1.1).
"""

from __future__ import annotations

import random
from typing import List, Optional

from .ethernet import Ethernet, ETHERTYPE_IPV4, MacAddress
from .ip import IpAddress, Ipv4, PROTO_TCP, PROTO_UDP
from .packet import Packet
from .tcp import Tcp
from .udp import Udp


class Flow:
    """A unidirectional 5-tuple with packet-stamping helpers."""

    def __init__(self, src_mac, dst_mac, src_ip, dst_ip,
                 src_port: int, dst_port: int, proto: int = PROTO_UDP):
        self.src_mac = MacAddress(src_mac)
        self.dst_mac = MacAddress(dst_mac)
        self.src_ip = IpAddress(src_ip)
        self.dst_ip = IpAddress(dst_ip)
        self.src_port = src_port
        self.dst_port = dst_port
        self.proto = proto
        self._ident = random.randrange(0, 0xFFFF)
        self._seq = 0

    def next_ident(self) -> int:
        self._ident = (self._ident + 1) & 0xFFFF
        return self._ident

    def make_packet(self, payload: bytes, fill_checksums: bool = True) -> Packet:
        """A full Ethernet frame carrying ``payload`` on this flow."""
        packet = Packet()
        packet.append(Ethernet(self.src_mac, self.dst_mac, ETHERTYPE_IPV4))
        ip = Ipv4(self.src_ip, self.dst_ip, proto=self.proto,
                  ident=self.next_ident())
        packet.append(ip)
        if self.proto == PROTO_TCP:
            l4 = Tcp(self.src_port, self.dst_port, seq=self._seq)
            self._seq = (self._seq + len(payload)) & 0xFFFFFFFF
            if fill_checksums:
                l4.fill_checksum(self.src_ip, self.dst_ip, payload)
        else:
            l4 = Udp(self.src_port, self.dst_port).finalize(len(payload))
            if fill_checksums:
                l4.fill_checksum(self.src_ip, self.dst_ip, payload)
        packet.append(l4)
        ip.finalize(l4.size() + len(payload))
        packet.payload = payload
        packet.meta["flow"] = self.tuple5()
        return packet

    def make_sized_packet(self, frame_size: int) -> Packet:
        """A frame of exactly ``frame_size`` bytes (headers included)."""
        overhead = Ethernet(self.src_mac, self.dst_mac).size() + Ipv4(
            self.src_ip, self.dst_ip
        ).size()
        overhead += Tcp.HEADER_LEN if self.proto == PROTO_TCP else Udp.HEADER_LEN
        payload_len = max(0, frame_size - overhead)
        return self.make_packet(bytes(payload_len), fill_checksums=False)

    def tuple5(self):
        return (
            self.src_ip.value, self.dst_ip.value,
            self.src_port, self.dst_port, self.proto,
        )

    def __repr__(self) -> str:
        proto = {PROTO_TCP: "tcp", PROTO_UDP: "udp"}.get(self.proto, self.proto)
        return (
            f"Flow({self.src_ip}:{self.src_port} -> "
            f"{self.dst_ip}:{self.dst_port}/{proto})"
        )


def make_flows(count: int, proto: int = PROTO_TCP,
               base_src_ip: str = "10.0.0.1", dst_ip: str = "10.0.1.1",
               dst_port: int = 5201, seed: Optional[int] = None) -> List[Flow]:
    """``count`` distinct flows from one client subnet to one server.

    Mirrors the iperf setup of §8.2.2 (60 parallel TCP flows): same
    destination, distinct source ports so RSS can spread them.
    """
    rng = random.Random(seed)
    base = IpAddress(base_src_ip).value
    flows = []
    for i in range(count):
        flows.append(Flow(
            src_mac=f"02:00:00:00:00:{(i % 250) + 1:02x}",
            dst_mac="02:00:00:00:ff:01",
            src_ip=base + (i // 200),
            dst_ip=dst_ip,
            src_port=40000 + rng.randrange(20000),
            dst_port=dst_port,
            proto=proto,
        ))
    return flows
