"""FLD's compressed internal descriptor formats (§5.2 "Compression").

The NIC's descriptor formats are general: 64-bit addresses, 32-bit
lengths, many flag fields.  FLD's queues always point into small on-chip
buffer pools addressed by a handle of a few bits, so FLD stores a
compressed form and *expands it on the fly* when the NIC's PCIe read
arrives.  Sizes follow the paper's Table 2b:

=====================  ========  =====
structure              software  FLD
=====================  ========  =====
Tx descriptor           64 B      8 B
Rx descriptor           16 B      —  (ring lives in host memory)
Completion queue entry  64 B     15 B
=====================  ========  =====
"""

from __future__ import annotations

import struct

from ..nic.wqe import OP_ETH_SEND, OP_RDMA_SEND, TxWqe, WQE_FLAG_SIGNALED

COMPRESSED_TX_DESC_SIZE = 8
COMPRESSED_CQE_SIZE = 15

# Compressed opcodes (2 bits would do; we spend a byte for clarity).
_OPCODES = {OP_ETH_SEND: 0, OP_RDMA_SEND: 1}
_OPCODES_REVERSE = {v: k for k, v in _OPCODES.items()}


class CompressedTxDescriptor:
    """8-byte internal transmit descriptor.

    Layout::

        0  handle      u16   buffer-pool handle (chunk index)
        2  length      u16   payload bytes (<= 16 KiB fits 14 bits)
        4  context_id  u24   FLD-E resume/tenant tag
        7  op_flags    u8    bits 0-1 opcode, bit 2 signaled
    """

    _FORMAT = "!HH3sB"

    __slots__ = ("handle", "length", "context_id", "opcode", "signaled")

    def __init__(self, handle: int, length: int, context_id: int = 0,
                 opcode: int = OP_ETH_SEND, signaled: bool = True):
        if not (0 <= handle < 1 << 16 and 0 <= length < 1 << 16
                and 0 <= context_id < 1 << 24):
            raise ValueError(f"handle {handle}, length {length} or context "
                             f"{context_id:#x} out of range")
        self.handle = handle
        self.length = length
        self.context_id = context_id
        self.opcode = opcode
        self.signaled = signaled

    def pack(self) -> bytes:
        op_flags = _OPCODES[self.opcode] | (0x4 if self.signaled else 0)
        return struct.pack(
            self._FORMAT, self.handle, self.length,
            self.context_id.to_bytes(3, "big"), op_flags,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "CompressedTxDescriptor":
        handle, length, context, op_flags = struct.unpack(
            cls._FORMAT, data[:COMPRESSED_TX_DESC_SIZE]
        )
        return cls(
            handle, length, int.from_bytes(context, "big"),
            _OPCODES_REVERSE[op_flags & 0x3], bool(op_flags & 0x4),
        )

    def expand(self, qpn: int, wqe_index: int, buffer_addr: int) -> TxWqe:
        """Produce the 64 B NIC WQE the PCIe read expects.

        ``buffer_addr`` is the *virtual* fabric address FLD advertises for
        this queue's data window; the NIC's subsequent data read comes
        back through FLD's address translation.
        """
        flags = WQE_FLAG_SIGNALED if self.signaled else 0
        return TxWqe(
            self.opcode, qpn, wqe_index, buffer_addr, self.length,
            flags=flags, context_id=self.context_id,
        )


class CompressedCqe:
    """15-byte internal completion record.

    Keeps only what FLD's ring managers and the accelerator metadata
    need from the NIC's 64 B CQE::

        0   opcode       u8
        1   flags        u8
        2   wqe_counter  u16
        4   qpn          u24
        7   byte_count   u16
        9   flow_tag     u32
        13  stride       u16
    """

    _FORMAT = "!BBH3sHIH"

    __slots__ = ("opcode", "flags", "wqe_counter", "qpn", "byte_count",
                 "flow_tag", "stride_index")

    def __init__(self, opcode: int, qpn: int, wqe_counter: int,
                 byte_count: int, flags: int = 0, flow_tag: int = 0,
                 stride_index: int = 0):
        self.opcode = opcode
        self.flags = flags
        self.wqe_counter = wqe_counter & 0xFFFF
        self.qpn = qpn & 0xFFFFFF
        self.byte_count = byte_count & 0xFFFF
        self.flow_tag = flow_tag
        self.stride_index = stride_index

    def pack(self) -> bytes:
        return struct.pack(
            self._FORMAT, self.opcode, self.flags, self.wqe_counter,
            self.qpn.to_bytes(3, "big"), self.byte_count, self.flow_tag,
            self.stride_index,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "CompressedCqe":
        (opcode, flags, counter, qpn, count, tag, stride) = struct.unpack(
            cls._FORMAT, data[:COMPRESSED_CQE_SIZE]
        )
        return cls(opcode, int.from_bytes(qpn, "big"), counter, count,
                   flags, tag, stride)
