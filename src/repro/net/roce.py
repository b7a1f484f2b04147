"""RoCE v2 framing: the InfiniBand Base Transport Header (BTH) over UDP.

The NIC's RDMA engine (``repro.nic.rdma``) segments messages into MTU-sized
packets, each carrying a BTH; the opcode's first/middle/last structure lets
the receiver reassemble messages and the FLD-R path deliver per-packet
completions (§6's incremental message processing).
"""

from __future__ import annotations

import struct

from .packet import Header

# BTH opcodes (RC transport subset).
OP_SEND_FIRST = 0x00
OP_SEND_MIDDLE = 0x01
OP_SEND_LAST = 0x02
OP_SEND_ONLY = 0x04
OP_RDMA_WRITE_FIRST = 0x06
OP_RDMA_WRITE_MIDDLE = 0x07
OP_RDMA_WRITE_LAST = 0x08
OP_RDMA_WRITE_ONLY = 0x0A
OP_RDMA_READ_REQUEST = 0x0C
OP_RDMA_READ_RESPONSE_ONLY = 0x10
OP_ACK = 0x11

#: Opcode classes, one bit each.
LAST, FIRST, WRITE, SEND, ACK = 1, 2, 4, 8, 16
#: The AckReq bit of BTH byte 4, clear of the class bits so a receiver
#: can OR it into the opcode's class.  IBTA puts AckReq at byte 8 bit 7;
#: the model keeps byte 4 bit 6 until the wire-reference work.
ACK_REQUEST = 0x40
#: BTH byte 1: the SE/migreq/pad/tver defaults.
BTH_FLAGS = 0x40
DEFAULT_PARTITION = 0xFFFF

_CLASSES = {
    OP_SEND_FIRST: SEND | FIRST, OP_SEND_MIDDLE: SEND,
    OP_SEND_LAST: SEND | LAST, OP_SEND_ONLY: SEND | FIRST | LAST,
    OP_RDMA_WRITE_FIRST: WRITE | FIRST, OP_RDMA_WRITE_MIDDLE: WRITE,
    OP_RDMA_WRITE_LAST: WRITE | LAST,
    OP_RDMA_WRITE_ONLY: WRITE | FIRST | LAST,
    OP_ACK: ACK,
}
#: The class bits of every opcode byte, built once.
OPCODE_CLASS = tuple(_CLASSES.get(opcode, 0) for opcode in range(256))
#: The SEND/RDMA WRITE segment opcode by its ``WRITE | FIRST | LAST`` bits.
_SEGMENT = {kind & ~SEND: opcode for opcode, kind in _CLASSES.items()
            if kind & (SEND | WRITE)}
SEGMENT_OPCODE = tuple(_SEGMENT[bits] for bits in range(8))

#: The wire formats: BTH (opcode, flags, partition, AckReq byte | dest
#: QP, PSN), AETH (syndrome byte | MSN) and RETH (VA, rkey, length), and
#: a BTH with its AETH or RETH behind it, packed or read in one call.
BTH_WIRE = struct.Struct("!BBHII")
AETH_WIRE = struct.Struct("!I")
RETH_WIRE = struct.Struct("!QII")
BTH_AETH_WIRE = struct.Struct(BTH_WIRE.format + AETH_WIRE.format[1:])
BTH_RETH_WIRE = struct.Struct(BTH_WIRE.format + RETH_WIRE.format[1:])

# Invariant CRC trailing each RoCE packet on the wire: four zero bytes
# in the model until the wire-reference work computes it.
ICRC_SIZE = 4


class Bth(Header):
    """Base Transport Header (12 bytes)."""

    name = "bth"
    HEADER_LEN = BTH_WIRE.size

    def __init__(self, opcode: int, dest_qp: int, psn: int,
                 ack_request: bool = False,
                 partition: int = DEFAULT_PARTITION):
        self.opcode = opcode
        self.dest_qp = dest_qp & 0xFFFFFF
        self.psn = psn & 0xFFFFFF
        self.ack_request = ack_request
        self.partition = partition

    def size(self) -> int:
        return self.HEADER_LEN

    def pack(self) -> bytes:
        return BTH_WIRE.pack(
            self.opcode, BTH_FLAGS, self.partition,
            (ACK_REQUEST << 24 if self.ack_request else 0) | self.dest_qp,
            self.psn)

    @classmethod
    def unpack(cls, data: bytes) -> "Bth":
        if len(data) < cls.HEADER_LEN:
            raise ValueError("truncated BTH")
        opcode, _flags, partition, qp_field, psn_field = (
            BTH_WIRE.unpack_from(data))
        return cls(
            opcode=opcode,
            dest_qp=qp_field,
            psn=psn_field,
            ack_request=qp_field >> 24 & ACK_REQUEST != 0,
            partition=partition,
        )

    # -- opcode classification -------------------------------------------

    @property
    def is_send(self) -> bool:
        return OPCODE_CLASS[self.opcode] & SEND != 0

    @property
    def is_write(self) -> bool:
        return OPCODE_CLASS[self.opcode] & WRITE != 0

    @property
    def is_first(self) -> bool:
        return OPCODE_CLASS[self.opcode] & FIRST != 0

    @property
    def is_last(self) -> bool:
        return OPCODE_CLASS[self.opcode] & LAST != 0

    @property
    def is_ack(self) -> bool:
        return OPCODE_CLASS[self.opcode] & ACK != 0


class Aeth(Header):
    """ACK Extended Transport Header (4 bytes): syndrome + MSN."""

    name = "aeth"
    HEADER_LEN = AETH_WIRE.size

    def __init__(self, msn: int, syndrome: int = 0):
        self.msn = msn & 0xFFFFFF
        self.syndrome = syndrome

    def size(self) -> int:
        return self.HEADER_LEN

    def pack(self) -> bytes:
        return AETH_WIRE.pack((self.syndrome << 24) | self.msn)

    @classmethod
    def unpack(cls, data: bytes) -> "Aeth":
        (word,) = AETH_WIRE.unpack_from(data)
        return cls(msn=word, syndrome=word >> 24)


class Reth(Header):
    """RDMA Extended Transport Header (16 bytes): VA, rkey, length."""

    name = "reth"
    HEADER_LEN = RETH_WIRE.size

    def __init__(self, virtual_address: int, rkey: int, length: int):
        self.virtual_address = virtual_address
        self.rkey = rkey
        self.length = length

    def size(self) -> int:
        return self.HEADER_LEN

    def pack(self) -> bytes:
        return RETH_WIRE.pack(self.virtual_address, self.rkey, self.length)

    @classmethod
    def unpack(cls, data: bytes) -> "Reth":
        return cls(*RETH_WIRE.unpack_from(data))


def send_opcode(first: bool, last: bool) -> int:
    """BTH opcode for a SEND segment at the given message position."""
    return SEGMENT_OPCODE[(FIRST if first else 0) | (LAST if last else 0)]


def write_opcode(first: bool, last: bool) -> int:
    """BTH opcode for an RDMA WRITE segment at the given message position."""
    return SEGMENT_OPCODE[
        WRITE | (FIRST if first else 0) | (LAST if last else 0)]
