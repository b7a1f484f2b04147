"""128-EEA3: the LTE confidentiality algorithm built on ZUC.

ETSI/SAGE specification of the 3GPP confidentiality algorithm
(Document 1).  The key/IV schedule folds COUNT, BEARER and DIRECTION
into the ZUC IV; encryption is keystream XOR.
"""

from __future__ import annotations

from .zuc_core import Zuc

UPLINK = 0
DOWNLINK = 1


def _eea3_iv(count: int, bearer: int, direction: int) -> bytes:
    if not 0 <= bearer < 32:
        raise ValueError("bearer is a 5-bit field")
    if direction not in (0, 1):
        raise ValueError("direction is 0 or 1")
    count_bytes = (count & 0xFFFFFFFF).to_bytes(4, "big")
    head = count_bytes + bytes([
        ((bearer << 3) | (direction << 2)) & 0xFC, 0, 0, 0,
    ])
    return head + head


def eea3_keystream(key: bytes, count: int, bearer: int, direction: int,
                   nbits: int) -> bytes:
    """Raw keystream covering ``nbits`` bits (rounded up to words)."""
    zuc = Zuc(key, _eea3_iv(count, bearer, direction))
    return zuc.keystream_bytes(4 * -(-nbits // 32))


def eea3_encrypt(key: bytes, count: int, bearer: int, direction: int,
                 message: bytes, nbits: int = None) -> bytes:
    """Encrypt (or decrypt — XOR is symmetric) ``message``.

    ``nbits`` defaults to the full byte length; when given, trailing bits
    beyond ``nbits`` are zeroed per the specification.
    """
    size = len(message)
    if nbits is None:
        nbits = size * 8
    elif nbits > size * 8:
        raise ValueError("nbits exceeds the message length")
    keystream = eea3_keystream(key, count, bearer, direction, nbits)
    # One XOR over the ceil(nbits / 8) bytes the bit length covers (the
    # keystream is at least that long), the bits past nbits in the last
    # of them zeroed, whole bytes beyond it returned as zeros.
    nbytes = -(-nbits // 8)
    out = ((int.from_bytes(message[:nbytes], "big")
            ^ int.from_bytes(keystream[:nbytes], "big"))
           & -1 << (-nbits % 8)).to_bytes(nbytes, "big")
    return out if nbytes == size else out + bytes(size - nbytes)


eea3_decrypt = eea3_encrypt  # stream cipher: same operation
