"""The ZUC specification, written the way the specification is.

This is the per-function form ``repro.accelerators.zuc.zuc_core`` had
before its round became one flat loop: an LFSR step, a bit-reorganization
step and F, each its own method, every modular addition its own call.  It
is slow and it is the reference: the tests hold the kernel to it word for
word, and hold ``eea3_encrypt`` / ``eia3_mac`` to the bit-at-a-time forms
below.  The S-boxes and key-loading constants are data, not wording, so
they are shared with the kernel (and pinned by digest in
``test_zuc_kernel.py``).
"""

from typing import List

from repro.accelerators.zuc.eea3 import _eea3_iv
from repro.accelerators.zuc.eia3 import _eia3_iv
from repro.accelerators.zuc.zuc_core import D, S0, S1

_MASK31 = 0x7FFFFFFF
_MASK32 = 0xFFFFFFFF


def _add31(a: int, b: int) -> int:
    """Addition modulo 2^31 - 1 with end-around carry."""
    c = a + b
    return (c & _MASK31) + (c >> 31)


def _rot31(x: int, k: int) -> int:
    return ((x << k) | (x >> (31 - k))) & _MASK31


def _rot32(x: int, k: int) -> int:
    return ((x << k) | (x >> (32 - k))) & _MASK32


def _l1(x: int) -> int:
    return (x ^ _rot32(x, 2) ^ _rot32(x, 10) ^ _rot32(x, 18)
            ^ _rot32(x, 24)) & _MASK32


def _l2(x: int) -> int:
    return (x ^ _rot32(x, 8) ^ _rot32(x, 14) ^ _rot32(x, 22)
            ^ _rot32(x, 30)) & _MASK32


def _sbox(x: int) -> int:
    return (
        (S0[(x >> 24) & 0xFF] << 24)
        | (S1[(x >> 16) & 0xFF] << 16)
        | (S0[(x >> 8) & 0xFF] << 8)
        | S1[x & 0xFF]
    )


def load_key(key: bytes, iv: bytes) -> List[int]:
    """The LFSR's initial cells: key byte || d constant || IV byte."""
    return [(key[i] << 23) | (D[i] << 8) | iv[i] for i in range(16)]


class OracleZuc:
    """One ZUC keystream generator, one method per specification step."""

    def __init__(self, key: bytes, iv: bytes):
        if len(key) != 16 or len(iv) != 16:
            raise ValueError("ZUC needs a 128-bit key and a 128-bit IV")
        self._lfsr: List[int] = load_key(key, iv)
        self._r1 = 0
        self._r2 = 0
        self._initialize()

    # -- LFSR ---------------------------------------------------------------

    def _lfsr_feedback(self) -> int:
        s = self._lfsr
        v = _add31(_rot31(s[15], 15), _rot31(s[13], 17))
        v = _add31(v, _rot31(s[10], 21))
        v = _add31(v, _rot31(s[4], 20))
        v = _add31(v, _rot31(s[0], 8))
        v = _add31(v, s[0])
        return v

    def _lfsr_shift(self, s16: int) -> None:
        if s16 == 0:
            s16 = _MASK31
        self._lfsr = self._lfsr[1:] + [s16]

    def _lfsr_init_mode(self, u: int) -> None:
        self._lfsr_shift(_add31(self._lfsr_feedback(), u))

    def _lfsr_work_mode(self) -> None:
        self._lfsr_shift(self._lfsr_feedback())

    # -- bit reorganization + F ------------------------------------------------

    def _bit_reorganization(self):
        s = self._lfsr
        x0 = ((s[15] & 0x7FFF8000) << 1) | (s[14] & 0xFFFF)
        x1 = ((s[11] & 0xFFFF) << 16) | (s[9] >> 15)
        x2 = ((s[7] & 0xFFFF) << 16) | (s[5] >> 15)
        x3 = ((s[2] & 0xFFFF) << 16) | (s[0] >> 15)
        return x0, x1, x2, x3

    def _f(self, x0: int, x1: int, x2: int) -> int:
        w = ((x0 ^ self._r1) + self._r2) & _MASK32
        w1 = (self._r1 + x1) & _MASK32
        w2 = self._r2 ^ x2
        u = _l1(((w1 << 16) | (w2 >> 16)) & _MASK32)
        v = _l2(((w2 << 16) | (w1 >> 16)) & _MASK32)
        self._r1 = _sbox(u)
        self._r2 = _sbox(v)
        return w

    # -- key schedule ------------------------------------------------------------

    def _initialize(self) -> None:
        for _ in range(32):
            x0, x1, x2, _x3 = self._bit_reorganization()
            w = self._f(x0, x1, x2)
            self._lfsr_init_mode(w >> 1)
        # One extra round with the F output discarded.
        x0, x1, x2, _x3 = self._bit_reorganization()
        self._f(x0, x1, x2)
        self._lfsr_work_mode()

    # -- keystream ------------------------------------------------------------------

    def next_word(self) -> int:
        """The next 32-bit keystream word."""
        x0, x1, x2, x3 = self._bit_reorganization()
        z = self._f(x0, x1, x2) ^ x3
        self._lfsr_work_mode()
        return z

    def keystream(self, words: int) -> List[int]:
        return [self.next_word() for _ in range(words)]

    def keystream_bytes(self, nbytes: int) -> bytes:
        words = -(-nbytes // 4)
        out = b"".join(w.to_bytes(4, "big") for w in self.keystream(words))
        return out[:nbytes]


def _bit(data: bytes, index: int) -> int:
    return (data[index // 8] >> (7 - index % 8)) & 1


def eea3_reference(key: bytes, count: int, bearer: int, direction: int,
                   message: bytes, nbits: int) -> bytes:
    """128-EEA3 one bit at a time: OBS[i] = IBS[i] ^ k[i] for i < nbits,
    zero beyond, in a buffer the size of ``message``."""
    zuc = OracleZuc(key, _eea3_iv(count, bearer, direction))
    stream = zuc.keystream_bytes(-(-nbits // 8))
    out = bytearray(len(message))
    for i in range(nbits):
        out[i // 8] |= (_bit(message, i) ^ _bit(stream, i)) << (7 - i % 8)
    return bytes(out)


def eia3_reference(key: bytes, count: int, bearer: int, direction: int,
                   message: bytes, nbits: int) -> int:
    """128-EIA3 one bit at a time (Document 1, section 4.4)."""
    zuc = OracleZuc(key, _eia3_iv(count, bearer, direction))
    words = zuc.keystream(-(-nbits // 32) + 2)
    stream = 0
    for word in words:
        stream = (stream << 32) | word

    def get_word(i: int) -> int:
        return (stream >> (32 * len(words) - 32 - i)) & _MASK32

    tag = 0
    for i in range(nbits):
        if _bit(message, i):
            tag ^= get_word(i)
    return tag ^ get_word(nbits) ^ words[-1]
