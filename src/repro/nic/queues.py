"""NIC queue state: send queues, receive queues (incl. MPRQ), CQs.

Queue objects hold the state the NIC keeps per queue (ring location,
producer/consumer indices, stride bookkeeping); the device
(:mod:`repro.nic.device`) runs the flat workers that move packets
through them.  Rings live at *fabric addresses*, so the same queue works whether
its ring is in host memory (software driver) or inside the FLD BAR.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim import Simulator
from .wqe import RX_DESC_SIZE, TxWqeRecord, WQE_SIZE


class QueueError(RuntimeError):
    """Raised on queue misconfiguration or overflow."""


def _power_of_two(value: int, what: str) -> int:
    if value <= 0 or value & (value - 1):
        raise QueueError(f"{what} must be a positive power of two, got {value}")
    return value


class CompletionQueue:
    """A completion ring the NIC writes and a consumer polls.

    A CQE is a posted write into the consumer's memory, and its consumer
    acts on it as it lands (§5.1–5.2): no channel stands between the
    NIC and the consumer.  The consumer installs one of two hooks:

    * ``fused_rx(handle)``, for a receive consumer: the NIC hands it
      each CQE write's :class:`~repro.pcie.fabric.DeferredWrite` at
      issue, and the consumer delivers the write from its own per-CQE
      event, which also does its processing (a host queue's receive
      dispatcher, FLD's receive path);
    * ``on_cqe(cqe, trace_ctx)``, for a send-completion consumer: the
      write's delivery calls it with the CQE's bytes and its side-band
      trace context.

    With neither, the CQE lands in the ring and nothing is called.  A
    destroyed CQ drops its hooks, so a CQE that lands after the destroy
    reaches no consumer.
    """

    def __init__(self, sim: Simulator, cqn: int, ring_addr: int,
                 entries: int):
        self.sim = sim
        self.cqn = cqn
        self.ring_addr = ring_addr
        self.entries = _power_of_two(entries, "CQ entries")
        self.pi = 0     # advanced by the NIC as it writes each CQE
        self.stats_cqes = 0
        self.fused_rx = None
        self.on_cqe = None


class SendQueue:
    """A transmit ring (Ethernet raw queue or an RDMA QP's send side)."""

    TRANSPORT_ETH = "eth"
    TRANSPORT_RC = "rc"

    def __init__(self, sim: Simulator, qpn: int, ring_addr: int, entries: int,
                 cq: CompletionQueue, transport: str = TRANSPORT_ETH,
                 vport: int = 0, max_inline: int = 256):
        if transport not in (self.TRANSPORT_ETH, self.TRANSPORT_RC):
            raise QueueError(f"unknown transport {transport!r}")
        self.sim = sim
        self.qpn = qpn
        self.ring_addr = ring_addr
        self.entries = _power_of_two(entries, "SQ entries")
        self.cq = cq
        self.transport = transport
        self.vport = vport
        self.max_inline = max_inline
        self.pi = 0            # producer index, advanced by doorbells
        self.ci = 0            # consumer index, advanced by the NIC
        #: The NIC fetch stage's drain while the stage is idle, ``None``
        #: while it is paused on a ring fetch or a full window (or not
        #: started): a paused stage drains to ``pi`` when it resumes.
        self.fetch = None
        # The ``sq<N>.outstanding`` gauge: WQEs outstanding at the last
        # doorbell, the producer-side event, and their high-water mark.
        self.doorbell_level = 0
        self.doorbell_peak = 0
        if sim.telemetry.enabled:
            sim.telemetry.register_gauges(f"sq{qpn}", lambda: {
                "outstanding": (self.doorbell_level, self.doorbell_peak)})
        # WQEs pushed by MMIO (WQE-by-MMIO / BlueFlame): index -> WQE.
        self.mmio_wqes: Dict[int, TxWqeRecord] = {}
        #: Set by DESTROY_SQ; doorbells are rejected and the workers exit.
        self.destroyed = False
        self.stats_doorbells = 0
        self.stats_wqes = 0
        self.stats_wqe_fetches = 0
        self.stats_mmio_wqes = 0
        #: WQEs discarded instead of sent because the owning QP was in
        #: ERR (completion flush) or the queue was being destroyed.
        self.stats_flushed = 0

    def slot_addr(self, index: int) -> int:
        return self.ring_addr + (index % self.entries) * WQE_SIZE

    def ring_doorbell(self, new_pi: int,
                      mmio_wqe: Optional[TxWqeRecord] = None) -> None:
        """Handle a doorbell MMIO: the doorbell is the PI register.
        Advance PI and, when the queue's fetch stage is idle, drain it
        at once.  A WQE written by MMIO (BlueFlame) rides its own
        doorbell: ``mmio_wqe`` is staged, saving the fetch stage its DMA
        read."""
        if mmio_wqe is not None:
            self.mmio_wqes[mmio_wqe.wqe_index] = mmio_wqe
            self.stats_mmio_wqes += 1
        if self.destroyed:
            raise QueueError(f"doorbell on destroyed SQ {self.qpn}")
        if new_pi < self.pi:
            raise QueueError(
                f"doorbell PI {new_pi} behind current {self.pi} on SQ {self.qpn}"
            )
        if new_pi - self.ci > self.entries:
            raise QueueError(f"SQ {self.qpn} overflow: pi={new_pi} ci={self.ci}")
        self.pi = new_pi
        self.stats_doorbells += 1
        level = self.doorbell_level = new_pi - self.ci
        if level > self.doorbell_peak:
            self.doorbell_peak = level
        fetch = self.fetch
        if fetch is not None:
            self.fetch = None
            fetch()

    @property
    def outstanding(self) -> int:
        return self.pi - self.ci


class ReceiveQueue:
    """A receive ring of per-packet descriptors (16 B each).

    The driver posts descriptors (advancing ``pi`` through the RQ
    doorbell record); the NIC consumes one per received packet.  A
    ``shared`` RQ acts as an SRQ: multiple logical queues (or QPs)
    deliver through it.
    """

    def __init__(self, sim: Simulator, rqn: int, ring_addr: int, entries: int,
                 cq: CompletionQueue, shared: bool = False):
        self.sim = sim
        self.rqn = rqn
        self.ring_addr = ring_addr
        self.entries = _power_of_two(entries, "RQ entries")
        self.cq = cq
        self.shared = shared
        self.pi = 0
        self.ci = 0
        #: Set by DESTROY_RQ; posts are rejected and the worker exits.
        self.destroyed = False
        #: The NIC worker's inbox: set when the NIC registers the queue,
        #: None again once it is destroyed.
        self.inbox = None
        self.stats_packets = 0
        self.stats_drops_no_desc = 0
        # The ``rq<N>.posted`` gauge: descriptors available at the last
        # post and their high-water mark.
        self.post_level = 0
        self.post_peak = 0
        if sim.telemetry.enabled:
            sim.telemetry.register_gauges(f"rq{rqn}", lambda: {
                "posted": (self.post_level, self.post_peak)})

    def slot_addr(self, index: int) -> int:
        return self.ring_addr + (index % self.entries) * RX_DESC_SIZE

    def post(self, count: int = 1) -> None:
        """Driver-side: advance the producer index by ``count``."""
        if self.destroyed:
            raise QueueError(f"post on destroyed RQ {self.rqn}")
        if self.pi + count - self.ci > self.entries:
            raise QueueError(f"RQ {self.rqn} overposted")
        self.pi += count
        level = self.post_level = self.pi - self.ci
        if level > self.post_peak:
            self.post_peak = level

    @property
    def available(self) -> int:
        return self.pi - self.ci


class MultiPacketReceiveQueue(ReceiveQueue):
    """An MPRQ: each descriptor covers a large multi-stride buffer.

    Packets land in consecutive strides; a packet consumes
    ``ceil(len / stride_size)`` strides.  When the remaining strides
    cannot hold a packet, the buffer is closed (the residue is the
    bounded fragmentation of §5.2) and the next descriptor begins.
    """

    def __init__(self, sim: Simulator, rqn: int, ring_addr: int, entries: int,
                 cq: CompletionQueue, strides_per_buffer: int = 64,
                 stride_size: int = 2048, shared: bool = True):
        super().__init__(sim, rqn, ring_addr, entries, cq, shared)
        self.strides_per_buffer = _power_of_two(
            strides_per_buffer, "strides per buffer")
        self.stride_size = _power_of_two(stride_size, "stride size")
        self.stride_cursor = 0  # next free stride within the current buffer
        self.stats_buffers_closed = 0
        self.stats_wasted_strides = 0

    @property
    def buffer_size(self) -> int:
        return self.strides_per_buffer * self.stride_size

    def place(self, length: int) -> Optional[dict]:
        """Allocate strides for a packet of ``length`` bytes.

        Returns placement info (descriptor index, stride index, whether the
        buffer was closed) or ``None`` when no descriptor is available.
        """
        needed = -(-length // self.stride_size) or 1
        if needed > self.strides_per_buffer:
            raise QueueError(
                f"packet of {length} B exceeds MPRQ buffer {self.buffer_size} B"
            )
        if self.ci == self.pi:      # no descriptor posted
            self.stats_drops_no_desc += 1
            return None
        if self.stride_cursor + needed > self.strides_per_buffer:
            # Close the current buffer; its tail strides are wasted.
            self.stats_wasted_strides += (
                self.strides_per_buffer - self.stride_cursor
            )
            self._advance_buffer()
            if self.ci == self.pi:
                self.stats_drops_no_desc += 1
                return None
        placement = {
            "desc_index": self.ci,
            "stride_index": self.stride_cursor,
            "strides": needed,
            "closes_buffer": False,
        }
        self.stride_cursor += needed
        self.stats_packets += 1
        if self.stride_cursor == self.strides_per_buffer:
            placement["closes_buffer"] = True
            self._advance_buffer()
        return placement

    def _advance_buffer(self) -> None:
        self.ci += 1
        self.stride_cursor = 0
        self.stats_buffers_closed += 1


class RssGroup:
    """A set of receive queues fed through an RSS indirection table."""

    def __init__(self, name: str, queues: List[ReceiveQueue], engine):
        if not queues:
            raise QueueError("RSS group needs at least one queue")
        self.name = name
        self.queues = {i: q for i, q in enumerate(queues)}
        self.engine = engine  # a repro.net.RssEngine over range(len(queues))

    def select(self, packet) -> ReceiveQueue:
        index = self.engine.queue_for(packet)
        return self.queues[index]
