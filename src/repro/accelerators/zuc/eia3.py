"""128-EIA3: the LTE integrity algorithm built on ZUC.

Computes a 32-bit MAC over a bit string using a sliding 32-bit window of
ZUC keystream (ETSI/SAGE Document 1).
"""

from __future__ import annotations

from .zuc_core import Zuc


def _eia3_iv(count: int, bearer: int, direction: int) -> bytes:
    if not 0 <= bearer < 32:
        raise ValueError("bearer is a 5-bit field")
    if direction not in (0, 1):
        raise ValueError("direction is 0 or 1")
    count_bytes = (count & 0xFFFFFFFF).to_bytes(4, "big")
    iv = bytearray(16)
    iv[0:4] = count_bytes
    iv[4] = (bearer << 3) & 0xF8
    iv[8] = iv[0] ^ (direction << 7)
    iv[9:14] = iv[1:6]
    iv[14] = iv[6] ^ (direction << 7)
    iv[15] = iv[7]
    return bytes(iv)


def eia3_mac(key: bytes, count: int, bearer: int, direction: int,
             message: bytes, nbits: int = None) -> int:
    """The 32-bit 128-EIA3 MAC of ``message``."""
    if nbits is None:
        nbits = len(message) * 8
    if nbits > len(message) * 8:
        raise ValueError("nbits exceeds the message length")
    zuc = Zuc(key, _eia3_iv(count, bearer, direction))
    nwords = -(-nbits // 32)
    # One long integer holds the whole keystream, L = nwords + 2 words;
    # GET_WORD(z, i) is the 32-bit window (stream >> (top - i)) & MASK.
    stream = int.from_bytes(zuc.keystream_bytes(4 * (nwords + 2)), "big")
    top = 32 * (nwords + 1)
    # The message as nwords whole words, its first bit on top and every
    # bit past nbits zero.
    bits = (int.from_bytes(message, "big")
            >> (8 * len(message) - nbits) << (32 * nwords - nbits))
    # T = XOR of GET_WORD(z, i) over the set message bits i, taken for all
    # words at once, one bit lane b = i % 32 at a time: ``lane`` has bit 0
    # of word j set where message bit 32 j + b is, times 0xFFFFFFFF that is
    # a whole-word mask, and word j of stream >> (64 - b) is that bit's
    # window.  XOR-ing the words of ``acc`` together finishes the sum.
    ones = ((1 << 32 * nwords) - 1) // 0xFFFFFFFF
    acc = 0
    for b in range(32):
        lane = (bits >> (31 - b)) & ones
        acc ^= (stream >> (64 - b)) & (lane * 0xFFFFFFFF)
    tag = (stream >> (top - nbits)) ^ stream   # GET_WORD(z, LENGTH) ^ z[L-1]
    while acc:
        tag ^= acc
        acc >>= 32
    return tag & 0xFFFFFFFF
