"""NIC hardware descriptor formats (WQEs and CQEs).

These are the *vendor* formats the NIC exchanges over PCIe — what a
software driver stores in host-memory rings and what FLD must produce
on-the-fly from its compressed internal state.  Sizes match the paper's
Table 2b: a 64 B transmit WQE, a 16 B receive descriptor, and a 64 B CQE.

The layouts are ConnectX-*like*: field selection follows the mlx5
programmer's model (control + data segments; completions carrying byte
count, checksum status, RSS hash and flow tag) but the exact bit packing
is ours.

A descriptor is its bytes: a producer packs the whole record with one
:data:`TX_WQE`, :data:`RX_DESC` or :data:`CQE` call, and a consumer reads
it with one ``unpack_from`` on the bytes that landed, into a
:data:`TxWqeRecord` or :data:`CqeRecord` tuple.  :class:`TxWqe` is the
one object form, kept for the ring-fetch burst decoder
(:meth:`TxWqe.unpack_many`) and its encoder.
"""

from __future__ import annotations

import struct
from operator import itemgetter

WQE_SIZE = 64
RX_DESC_SIZE = 16
CQE_SIZE = 64

# WQE opcodes.
OP_ETH_SEND = 0x01
OP_RDMA_SEND = 0x02
OP_RDMA_WRITE = 0x03

# WQE flags.
WQE_FLAG_SIGNALED = 0x01   # request a CQE on completion
WQE_FLAG_CSUM_L3 = 0x02    # offload: fill IPv4 checksum
WQE_FLAG_CSUM_L4 = 0x04    # offload: fill TCP/UDP checksum
WQE_FLAG_INLINE = 0x08     # payload inlined after the header segment
WQE_FLAG_LSO = 0x10        # offload: TCP segmentation at wqe.mss

# CQE opcodes.
CQE_SEND_COMPLETION = 0x01
CQE_RECV_COMPLETION = 0x02
CQE_ERROR = 0x0F
CQE_SYNDROME_LOCAL_LENGTH = 0x01   # CQE_ERROR: frame longer than its buffer

# CQE flags.
CQE_FLAG_L3_OK = 0x01
CQE_FLAG_L4_OK = 0x02
CQE_FLAG_VXLAN_DECAP = 0x04
CQE_FLAG_MSG_LAST = 0x08   # last packet of an RDMA message

#: The three records, reserved bytes included.  The transmit WQE's
#: fields are laid out in :class:`TxWqe`; the others are:
#:
#: * receive descriptor (16 B): buffer_addr u64, byte_count u32, lkey u32;
#: * CQE (64 B): opcode u8, flags u8, wqe_counter u16, qpn u32,
#:   byte_count u32, rss_hash u32, flow_tag u32 (context ID stamped by
#:   steering, §5.4), stride_index u16 (MPRQ stride), owner u8
#:   (ownership/phase bit), syndrome u8 (error code when opcode is
#:   ``CQE_ERROR``), then 40 B of zero padding.
TX_WQE = struct.Struct("!BBHIQIIIBQIH21x")
RX_DESC = struct.Struct("!QII")
CQE = struct.Struct("!BBHIIIIHBB40x")


def _record(name: str, fields: str) -> type:
    """A tuple type naming a record's fields as ``unpack_from`` reads
    them off the landed bytes, then its write's side band: the trace
    context and, on a CQE, the NIC's layout of a frame read back
    unchanged.  Reading a field is a C-level item get, and
    ``Record(fields + (ctx, ...))`` runs no Python code."""
    namespace = {"__slots__": (), "__doc__": _record.__doc__}
    for i, field in enumerate(fields.split()):
        namespace[field] = property(itemgetter(i))
    return type(name, (tuple,), namespace)


TxWqeRecord = _record("TxWqeRecord", "opcode flags wqe_index qpn "
                      "buffer_addr byte_count lkey context_id ack_req "
                      "remote_addr rkey mss trace_ctx")
TxWqeRecord.ack_req = property(lambda wqe: bool(wqe[8]))   # as the codec
CqeRecord = _record("CqeRecord", "opcode flags wqe_counter qpn byte_count "
                    "rss_hash flow_tag stride_index owner syndrome "
                    "trace_ctx layout")


class TxWqe:
    """A 64 B transmit work-queue entry.

    Layout (big-endian)::

        0   opcode        u8
        1   flags         u8
        2   wqe_index     u16   producer position, for CQE matching
        4   qpn           u32
        8   buffer_addr   u64   fabric address of the packet/message
        16  byte_count    u32
        20  lkey          u32
        24  context_id    u32   FLD-E tenant/next-table tag (§5.4)
        28  ack_req       u8    RDMA: request remote ack
        29  remote_addr   u64   RETH virtual address (RDMA WRITE)
        37  rkey          u32   RETH remote key (RDMA WRITE)
        41  mss           u16   LSO maximum segment size
        43  reserved      (21 B of zero padding to 64 B)
    """

    __slots__ = ("opcode", "flags", "wqe_index", "qpn", "buffer_addr",
                 "byte_count", "lkey", "context_id", "ack_req",
                 "remote_addr", "rkey", "mss")

    def __init__(self, opcode: int, qpn: int, wqe_index: int,
                 buffer_addr: int, byte_count: int, flags: int = 0,
                 lkey: int = 0, context_id: int = 0, ack_req: bool = True,
                 remote_addr: int = 0, rkey: int = 0, mss: int = 0):
        self.opcode = opcode
        self.flags = flags
        self.wqe_index = wqe_index & 0xFFFF
        self.qpn = qpn
        self.buffer_addr = buffer_addr
        self.byte_count = byte_count
        self.lkey = lkey
        self.context_id = context_id
        self.ack_req = ack_req
        # RETH fields for RDMA WRITE work requests.
        self.remote_addr = remote_addr
        self.rkey = rkey
        # Maximum segment size for LSO/TSO work requests.
        self.mss = mss

    def pack(self) -> bytes:
        return TX_WQE.pack(
            self.opcode, self.flags, self.wqe_index, self.qpn,
            self.buffer_addr, self.byte_count, self.lkey, self.context_id,
            1 if self.ack_req else 0, self.remote_addr, self.rkey,
            self.mss,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "TxWqe":
        if len(data) < WQE_SIZE:
            raise ValueError("truncated TxWqe")
        (opcode, flags, wqe_index, qpn, addr, count, lkey, context,
         ack_req, remote_addr, rkey, mss) = TX_WQE.unpack_from(data)
        return cls(opcode, qpn, wqe_index, addr, count, flags, lkey,
                   context, bool(ack_req), remote_addr, rkey, mss)

    @classmethod
    def unpack_many(cls, data, count: int) -> "list[TxWqe]":
        """Decode ``count`` consecutive 64 B WQEs (a ring fetch burst):
        the fields :meth:`unpack` would read, one record a step."""
        if len(data) < count * WQE_SIZE:
            raise ValueError("truncated TxWqe batch")
        out = []
        new = cls.__new__
        for (opcode, flags, wqe_index, qpn, addr, nbytes, lkey, context,
             ack_req, remote_addr, rkey, mss) in TX_WQE.iter_unpack(
                memoryview(data)[:count * WQE_SIZE]):
            wqe = new(cls)
            wqe.opcode = opcode
            wqe.flags = flags
            wqe.wqe_index = wqe_index
            wqe.qpn = qpn
            wqe.buffer_addr = addr
            wqe.byte_count = nbytes
            wqe.lkey = lkey
            wqe.context_id = context
            wqe.ack_req = bool(ack_req)
            wqe.remote_addr = remote_addr
            wqe.rkey = rkey
            wqe.mss = mss
            out.append(wqe)
        return out

    @staticmethod
    def pack_many(wqes) -> bytes:
        """Concatenated :meth:`pack` of ``wqes``."""
        return b"".join(wqe.pack() for wqe in wqes)

    def __repr__(self) -> str:
        return (
            f"TxWqe(op={self.opcode:#x}, qpn={self.qpn}, idx={self.wqe_index}, "
            f"addr={self.buffer_addr:#x}, len={self.byte_count})"
        )
