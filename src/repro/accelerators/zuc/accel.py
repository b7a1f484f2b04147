"""The disaggregated ZUC cipher accelerator (§7, §8.2.1).

A remote, FLD-R-attached cryptographic service: clients send requests
over RDMA SENDs; the accelerator en/decrypts (128-EEA3) or authenticates
(128-EIA3) and SENDs the response back.  The design mirrors the paper's:
8 ZUC engine units behind a front-end load-balancing/reassembly stage,
each unit running at ~4.76 Gbps for 512 B messages.

Request/response wire format: a 64 B header followed by the payload.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Optional

from ...core import AxisMetadata
from ...nic.wqe import record
from ..base import Accelerator, Output
from .eea3 import eea3_encrypt
from .eia3 import eia3_mac

# 52 bytes of fields, the status byte, 11 reserved.
_HEADER = struct.Struct("!BBBBIII16s16sIB11x")
HEADER_SIZE = _HEADER.size  # 64

OP_EEA3 = 0
OP_EIA3 = 1

STATUS_OK = 0
STATUS_BAD_REQUEST = 1
STATUS_BAD_OP = 2


#: The header as ``_HEADER.unpack_from`` reads it (paper: key + IV +
#: metadata); a field read is a C-level item get.
ZucHeader = record("ZucHeader", "version op bearer direction count "
                   "length_bits request_id key iv mac status")

_ZERO16 = bytes(16)     # an all-zero key or IV field


def make_request(op: int, key: bytes, payload: bytes, count: int = 0,
                 bearer: int = 0, direction: int = 0,
                 request_id: int = 0) -> bytes:
    """A complete request message: header + payload."""
    return _HEADER.pack(1, op, bearer, direction, count, len(payload) * 8,
                        request_id, key, _ZERO16, 0, STATUS_OK) + payload


def parse_response(message: bytes):
    """(header, payload) of a response message, the header a
    :data:`ZucHeader`; ``struct.error`` if it is shorter than one."""
    return (ZucHeader(_HEADER.unpack_from(message)),
            message[HEADER_SIZE:])


class ZucAccelerator(Accelerator):
    """8 ZUC units + front-end reassembly, served over FLD-R."""

    # Unit timing calibrated to the paper: ~4.76 Gbps per unit at 512 B
    # messages, with a fixed key-schedule cost (ZUC's 33 init rounds).
    SETUP_SECONDS = 165e-9
    SECONDS_PER_BYTE = 1.36e-9

    def __init__(self, sim, fld, units: int = 8, tx_queue: int = 0,
                 queue_map: Optional[Dict[int, int]] = None, **kwargs):
        super().__init__(sim, fld, units=units, name="zuc",
                         tx_queue=tx_queue, reassemble=True, **kwargs)
        # source QPN -> tx queue id, for multi-QP deployments behind
        # the shared receive queue.  The mapping is shared by reference
        # with the control plane, which fills it as connections arrive.
        self.queue_map = queue_map if queue_map is not None else {}
        self.stats_bad_requests = 0

    def processing_time(self, data: bytes, meta: AxisMetadata) -> float:
        payload = max(0, len(data) - HEADER_SIZE)
        return self.SETUP_SECONDS + payload * self.SECONDS_PER_BYTE

    def process(self, data: bytes, meta: AxisMetadata) -> Iterable[Output]:
        reply_queue = self.queue_map.get(meta.src_qpn, self.tx_queue)
        try:
            (version, op, bearer, direction, count, length_bits, request_id,
             key, iv, mac, _status) = _HEADER.unpack_from(data)
        except struct.error:
            self.stats_bad_requests += 1
            yield (_HEADER.pack(1, OP_EEA3, 0, 0, 0, 0, 0, _ZERO16, _ZERO16,
                                0, STATUS_BAD_REQUEST),
                   self.reply_meta(meta, reply_queue))
            return
        payload = data[HEADER_SIZE:]
        nbits = min(length_bits, len(payload) * 8)
        result = b""
        status = STATUS_OK
        if op == OP_EEA3:
            result = eea3_encrypt(key, count, bearer, direction, payload,
                                  nbits=nbits)
        elif op == OP_EIA3:
            mac = eia3_mac(key, count, bearer, direction, payload, nbits=nbits)
        else:
            self.stats_bad_requests += 1
            status = STATUS_BAD_OP
        yield (_HEADER.pack(version, op, bearer, direction, count,
                            length_bits, request_id, key, iv, mac, status)
               + result, self.reply_meta(meta, reply_queue))
