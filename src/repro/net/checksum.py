"""Internet checksum (RFC 1071) and helpers.

Used by the IPv4 header, UDP/TCP pseudo-header checksums, and by the NIC's
checksum offload engine.
"""

from __future__ import annotations

import struct


def internet_checksum(data: bytes, initial: int = 0) -> int:
    """One's-complement sum of 16-bit words, folded and inverted.

    ``initial`` allows chaining (e.g. pseudo-header then payload).
    Since 2**16 == 1 (mod 0xFFFF), the word sum of an even-length buffer
    is congruent to the whole buffer taken as one big integer, and the
    RFC 1071 fold of a total T is 0 when T is 0 and ((T-1) % 0xFFFF) + 1
    otherwise — so one ``int.from_bytes`` replaces the unpack/sum loop.
    """
    if len(data) % 2:
        data = data + b"\x00"
    total = initial + int.from_bytes(data, "big")
    return 0xFFFE - (total - 1) % 0xFFFF if total else 0xFFFF


def verify_checksum(data: bytes) -> bool:
    """True when ``data`` (checksum field included) sums to zero: its
    fold is 0xFFFF, so its total is a nonzero multiple of 0xFFFF."""
    if len(data) % 2:
        data = data + b"\x00"
    total = int.from_bytes(data, "big")
    return total != 0 and total % 0xFFFF == 0


def pseudo_header_v4(src: bytes, dst: bytes, proto: int, length: int) -> bytes:
    """IPv4 pseudo-header used in UDP/TCP checksums."""
    return src + dst + struct.pack("!BBH", 0, proto, length)
