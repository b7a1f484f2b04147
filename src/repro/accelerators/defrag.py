"""The inline IP-defragmentation accelerator (§7, §8.2.2).

A NIC packet-processing extension that intervenes *mid-pipeline*: the
FLD-E control plane steers fragmented IP packets (optionally after the
NIC's VXLAN decapsulation offload) to this accelerator; it reassembles
datagrams and returns them tagged with the resume-table ID, so NIC
offloads that fragmentation broke — RSS on L4 ports, L4 checksum — run
on the *whole* datagram afterwards.

Drops (rather than stalls) on overload, per §5.5's contract for inline
accelerators.
"""

from __future__ import annotations

from typing import Iterable

from ..core import AxisMetadata
from ..net import Ipv4, Reassembler
from ..net.parse import parse_frame
from .base import DroppingAccelerator, Output


class IpDefragAccelerator(DroppingAccelerator):
    """Hardware IP reassembly with a bounded context table."""

    def __init__(self, sim, fld, units: int = 1, tx_queue: int = 0,
                 contexts: int = 1024, timeout: float = 2.0, **kwargs):
        super().__init__(sim, fld, units=units, name="ipdefrag",
                         tx_queue=tx_queue, **kwargs)
        # The fixed-size reassembly context table of the RTL design.
        self.reassembler = Reassembler(timeout=timeout, capacity=contexts)
        self.stats_fragments = 0
        self.stats_reassembled = 0
        self.stats_passthrough = 0

    def processing_time(self, data: bytes, meta: AxisMetadata) -> float:
        # Streaming reassembly: a hash lookup plus an SRAM copy of the
        # fragment (32 B/cycle datapath at the FLD clock).
        cycles = 24 + len(data) // 32
        return self.fld.config.cycles(cycles)

    def process(self, data: bytes, meta: AxisMetadata) -> Iterable[Output]:
        packet = parse_frame(data, meta.layout)
        ip = packet.find(Ipv4)
        if ip is None or not ip.is_fragment:
            # Shouldn't be steered here, but forward unharmed.
            self.stats_passthrough += 1
            yield data, self.reply_meta(meta)
            return
        self.stats_fragments += 1
        whole = self.reassembler.add(packet, now=self.sim.now)
        if whole is None:
            return  # incomplete: nothing leaves the accelerator yet
        self.stats_reassembled += 1
        yield whole.to_bytes(), self.reply_meta(meta)
