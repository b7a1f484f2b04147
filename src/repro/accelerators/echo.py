"""The echo accelerator used by the paper's microbenchmarks (§8.1).

FLD-E mode: receives raw Ethernet frames, swaps the L2/L3/L4 directions
and transmits them back — the hardware analogue of testpmd.

FLD-R mode: receives RDMA messages and sends each one back on its QP.
"""

from __future__ import annotations

from typing import Iterable

from ..core import AxisMetadata
from ..host.testpmd import swap_frame
from .base import Accelerator, Output


class EchoAccelerator(Accelerator):
    """FLD-E echo: reflect every Ethernet frame back to its sender."""

    def process(self, data: bytes, meta: AxisMetadata) -> Iterable[Output]:
        yield swap_frame(data, meta.layout), self.reply_meta(meta)


class RdmaEchoAccelerator(Accelerator):
    """FLD-R echo: send each received message back on the reply queue.

    Messages may arrive as multiple interleaved segments (the shared
    MPRQ delivers per-packet completions, §6); the echo reassembles per
    context before replying.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._assembly = {}

    def process(self, data: bytes, meta: AxisMetadata) -> Iterable[Output]:
        key = (meta.queue_id, meta.src_qpn, meta.context_id)
        parts = self._assembly.setdefault(key, [])
        parts.append(data)
        if not meta.msg_last:
            return
        message = b"".join(parts)
        del self._assembly[key]
        yield message, self.reply_meta(meta)
