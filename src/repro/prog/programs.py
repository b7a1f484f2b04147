"""The four example programs (ISSUE 6): firewall, LB, NAT, DDoS filter.

Each is a builder returning a :class:`~repro.prog.isa.Program` over the
testbed's Eth/IPv4/UDP packets (14 + 20 + 8 byte headers):

========  ======  =====================================
offset     width  field
========  ======  =====================================
0          6      Ethernet destination MAC
6          6      Ethernet source MAC
34         2      UDP source port
36         2      UDP destination port
42         —      payload
========  ======  =====================================

All programs declare ``min_packet_len=42`` (full headers present), so
the verifier admits the header accesses and runts bypass the program.
State lives in firmware-owned maps, referenced by position: the builder
documents what each map index must contain and the experiment populates
them through the ``map_set`` verb.
"""

from __future__ import annotations

from .isa import (
    ACT_DROP, ACT_PASS, ACT_REDIRECT, Alu, JmpIf, LdMeta, LdPkt,
    MapLookup, MapUpdate, Mov, Program, Ret, StPkt,
)

__all__ = ["ddos_filter", "firewall", "load_balancer", "mac_to_int",
           "nat", "passthrough"]

UDP_SRC_PORT_OFF = 34
UDP_DST_PORT_OFF = 36
MIN_UDP_PACKET = 42


def mac_to_int(mac: str) -> int:
    """``"02:00:00:00:00:99"`` → 48-bit integer (map-value encoding)."""
    return int(mac.replace(":", ""), 16)


def passthrough() -> Program:
    """Pass every packet — the no-op used by the bit-identity check."""
    return Program("passthrough", (Ret(ACT_PASS),))


def firewall() -> Program:
    """Stateless firewall: drop UDP destination ports on a blocklist.

    Map 0: blocked dst port → 1 (value unused; presence is the match).
    """
    return Program("firewall", (
        LdPkt(1, UDP_DST_PORT_OFF, 2),
        MapLookup(2, 0, key=1, miss=1),   # miss: not blocked, skip drop
        Ret(ACT_DROP),
        Ret(ACT_PASS),
    ), min_packet_len=MIN_UDP_PACKET)


def load_balancer(backends: int, vport: int) -> Program:
    """L4 load balancer: pick a backend by dst port, rewrite the dst
    MAC and hairpin the packet back out of this function's vPort — the
    eswitch FDB then steers it to the chosen backend.

    Map 0: backend index (0..backends-1) → backend MAC as a 48-bit int.
    An unpopulated backend slot drops (no silent blackholing).
    """
    return Program("lb", (
        LdPkt(1, UDP_DST_PORT_OFF, 2),
        Mov(2, imm=backends),
        Alu("mod", 1, src=2),             # R1 = dst_port % backends
        MapLookup(3, 0, key=1, miss=5),   # R3 = backend MAC; miss -> drop
        Mov(4, src=3),
        Alu("rsh", 4, imm=32),
        StPkt(0, 4, 2),                   # dst MAC bytes 0..2 (high 16)
        StPkt(2, 3, 4),                   # dst MAC bytes 2..6 (low 32)
        Ret(ACT_REDIRECT, vport=vport),
        Ret(ACT_DROP),
    ), min_packet_len=MIN_UDP_PACKET)


def nat() -> Program:
    """Static NAT: rewrite the UDP destination port by translation map.

    Map 0: external dst port → internal dst port.  Unmapped ports pass
    untouched.
    """
    return Program("nat", (
        LdPkt(1, UDP_DST_PORT_OFF, 2),
        MapLookup(2, 0, key=1, miss=2),   # miss: no translation -> pass
        StPkt(UDP_DST_PORT_OFF, 2, 2),
        Ret(ACT_PASS),
        Ret(ACT_PASS),
    ), min_packet_len=MIN_UDP_PACKET)


def ddos_filter(rate_pps: int, burst: int) -> Program:
    """Token-bucket DDoS filter, one bucket per UDP destination port.

    Map 0: dst port → remaining tokens.  Map 1: dst port → time of the
    last refill (ns).  A flow's first packet seeds a full bucket; each
    later packet adds ``elapsed * rate_pps / 1e9`` tokens (clamped to
    ``burst``, timestamp advanced only when at least one whole token
    accrued, so fractional credit keeps accumulating) and spends one
    token or drops.
    """
    return Program("ddos", (
        LdPkt(1, UDP_DST_PORT_OFF, 2),           # 0: R1 = flow key
        LdMeta(2, "now_ns"),                     # 1: R2 = now
        MapLookup(3, 1, key=1, miss=18),         # 2: R3 = last; miss->init
        MapLookup(4, 0, key=1),                  # 3: R4 = tokens
        Mov(5, src=2),                           # 4
        Alu("sub", 5, src=3),                    # 5: R5 = now - last
        Mov(6, imm=rate_pps),                    # 6
        Alu("mul", 5, src=6),                    # 7
        Mov(6, imm=1_000_000_000),               # 8
        Alu("div", 5, src=6),                    # 9: R5 = tokens earned
        JmpIf("eq", 5, off=2, imm=0),            # 10: none earned -> 13
        Alu("add", 4, src=5),                    # 11: refill
        MapUpdate(1, key=1, value=2),            # 12: last = now
        JmpIf("le", 4, off=1, imm=burst),        # 13: clamp?
        Mov(4, imm=burst),                       # 14
        JmpIf("ge", 4, off=2, imm=1),            # 15: can spend -> 18
        MapUpdate(0, key=1, value=4),            # 16
        Ret(ACT_DROP),                           # 17
        Alu("sub", 4, imm=1),                    # 18: spend one token
        MapUpdate(0, key=1, value=4),            # 19
        Ret(ACT_PASS),                           # 20
        MapUpdate(1, key=1, value=2),            # 21: init: last = now
        Mov(4, imm=burst),                       # 22
        Alu("sub", 4, imm=1),                    # 23
        MapUpdate(0, key=1, value=4),            # 24
        Ret(ACT_PASS),                           # 25
    ), min_packet_len=MIN_UDP_PACKET)
