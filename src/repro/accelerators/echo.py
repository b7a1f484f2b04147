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
    MPRQ delivers per-packet completions, §6); the front end reassembles
    them, so each unit echoes whole messages, in the order their last
    segments arrived.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, reassemble=True, **kwargs)

    def process(self, data: bytes, meta: AxisMetadata) -> Iterable[Output]:
        yield data, self.reply_meta(meta)
