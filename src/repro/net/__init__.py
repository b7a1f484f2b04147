"""Packet library: byte-accurate protocol headers and traffic builders."""

from .checksum import internet_checksum, verify_checksum
from .ethernet import (
    BROADCAST_MAC,
    DEFAULT_MTU,
    ETHERTYPE_IPV4,
    Ethernet,
    MacAddress,
)
from .flows import Flow, make_flows
from .fragment import FragmentError, Reassembler, fragment_packet, parse_l4
from .ip import FLAG_DF, FLAG_MF, IpAddress, Ipv4, PROTO_TCP, PROTO_UDP
from .packet import ETHERNET_WIRE_OVERHEAD, Header, Packet
from .parse import ParseError, parse_frame
from .roce import Aeth, Bth, Reth, send_opcode, write_opcode
from .rss import DEFAULT_RSS_KEY, RssEngine, toeplitz_hash
from .tcp import Tcp
from .trace import ImcDatacenterSizes, PacketSizeDistribution
from .udp import COAP_PORT, ROCE_V2_PORT, Udp, VXLAN_PORT
from .vxlan import Vxlan, vxlan_decapsulate, vxlan_encapsulate

__all__ = [
    "Aeth", "BROADCAST_MAC", "Bth", "COAP_PORT", "DEFAULT_MTU",
    "DEFAULT_RSS_KEY", "ETHERNET_WIRE_OVERHEAD", "ETHERTYPE_IPV4",
    "Ethernet", "FLAG_DF", "FLAG_MF", "Flow", "FragmentError", "Header",
    "ImcDatacenterSizes", "IpAddress", "Ipv4", "MacAddress", "PROTO_TCP",
    "PROTO_UDP", "Packet", "PacketSizeDistribution", "ParseError", "parse_frame", "ROCE_V2_PORT",
    "Reassembler", "Reth", "RssEngine", "Tcp", "Udp",
    "VXLAN_PORT", "Vxlan", "fragment_packet", "internet_checksum",
    "make_flows", "parse_l4", "send_opcode",
    "toeplitz_hash", "verify_checksum", "vxlan_decapsulate",
    "vxlan_encapsulate", "write_opcode",
]
