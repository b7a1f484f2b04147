"""The NIC device model (ConnectX-5-like).

One :class:`Nic` owns an Ethernet port + eSwitch, steering pipelines,
stateless offloads, a traffic shaper, the RoCE RC transport engine, and
the queue machinery.  Its PCIe BAR exposes doorbell records and a
WQE-by-MMIO window; its DMA engine reads rings/buffers and writes packet
data/CQEs at *fabric addresses* — host memory and the FLD BAR look
identical to it, which is precisely the property FlexDriver exploits.

Control-plane operations (queue creation, steering rule installation,
QP connection) run through the firmware command interface in
:mod:`repro.nic.cmd`: the software control planes in :mod:`repro.sw`
and :mod:`repro.host` call the verbs of the NIC's
:class:`~repro.nic.cmd.CommandUnit`, which drive the
``create_*``/``destroy_*`` machinery here.  Only the command unit (and
this module) may call those methods directly — a conformance test
enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Tuple

from ..net import Packet
from ..net.parse import NO_LAYERS, parse_layout
from ..pcie import (POSTED, PcieEndpoint, PcieError, PcieFabric,
                    PcieLinkConfig)
from ..sim import Simulator, Store
# The NIC BAR's internal layout lives with the other physical address
# constants in the overlap-checked address map.
from ..topology.addrmap import (
    BAR_SIZE,
    DOORBELL_STRIDE,
    RQ_DOORBELL_BASE,
    WQE_MMIO_BASE,
    WQE_MMIO_STRIDE,
)
from .cmd import CommandUnit
from .eswitch import ESwitch, EthernetPort, VPort
from .offloads import ChecksumOffload, SegmentationOffload
from .queues import (
    CompletionQueue,
    MultiPacketReceiveQueue,
    ReceiveQueue,
    SendQueue,
)
from .rdma import RcQp, RdmaEngine
from .shaper import Shaper
from .steering import Disposition, Drop, SteeringPipeline
from .wqe import (
    CQE,
    CQE_ERROR,
    CQE_RECV_COMPLETION,
    CQE_SEND_COMPLETION,
    CQE_SIZE,
    CQE_SYNDROME_LOCAL_LENGTH,
    RX_DESC,
    RX_DESC_SIZE,
    TX_WQE,
    TxWqeRecord,
    WQE_FLAG_CSUM_L3,
    WQE_FLAG_CSUM_L4,
    WQE_FLAG_LSO,
    WQE_FLAG_SIGNALED,
    WQE_SIZE,
)

#: Sentinel pushed through a destroyed queue's stores so its workers
#: unwind instead of waiting forever.
_POISON = object()


def _admitted(_poison) -> None:
    """A parked poison needs nothing done when a slot admits it."""


@dataclass
class NicConfig:
    """Tunable device parameters (defaults match the Innova-2 testbed)."""

    port_rate_bps: float = 25e9
    port_latency: float = 500e-9     # wire propagation + MAC/PHY latency
    rdma_mtu: int = 1024             # the paper uses 1024 B for RoCE
    processing_delay: float = 60e-9  # per-packet ASIC pipeline occupancy
    rx_inbox_depth: int = 1024       # internal rx buffering per queue
    # RoCE retransmission timers are milliseconds-scale; anything
    # shorter fires spuriously once the pipe holds >100 us of data.
    retransmit_timeout: float = 2e-3
    dma_window: int = 32             # outstanding DMA contexts per queue
    wqe_fetch_batch: int = 16        # WQEs fetched per descriptor DMA read
    rx_desc_batch: int = 16          # rx descriptors prefetched per read


class Nic(PcieEndpoint):
    """A NIC ASIC on the PCIe fabric."""

    def __init__(self, sim: Simulator, fabric: PcieFabric, name: str,
                 config: Optional[NicConfig] = None,
                 link_config: Optional[PcieLinkConfig] = None):
        super().__init__(name)
        self.sim = sim
        self.config = config or NicConfig()
        # The NIC fronts the Innova-2's embedded PCIe switch (Fig. 6):
        # its own attachment is wider than any single peer's x8 link, so
        # the per-peer links are the bottlenecks, as on the real board.
        if link_config is None:
            link_config = PcieLinkConfig(lanes=16)
        self.port = EthernetPort(sim, f"{name}.port",
                                 self.config.port_rate_bps,
                                 self.config.port_latency)
        self.eswitch = ESwitch(sim, self.port, self._deliver_disposition)
        self.checksum = ChecksumOffload()
        self.lso = SegmentationOffload()
        self.shaper = Shaper(sim)
        # Shaper pauses account to their own profiler stage.
        self.shaper.profile_tag = f"{name}.shaper"
        self.rdma = RdmaEngine(
            sim, mtu=self.config.rdma_mtu,
            retransmit_timeout=self.config.retransmit_timeout,
            egress=self._rdma_egress, deliver_segment=self._rdma_deliver,
            complete_send=self._rdma_complete_send,
            name=f"{name}.rdma",
        )
        self.sqs: Dict[int, SendQueue] = {}
        self.rqs: Dict[int, ReceiveQueue] = {}
        self.cqs: Dict[int, CompletionQueue] = {}
        self._qp_by_sqn: Dict[int, RcQp] = {}
        # Flat per-queue workers, keyed like rqs / sqs so teardown can
        # find them.
        self._rx_flat: Dict[int, "_RqFlatWorker"] = {}
        self._tx_flat: Dict[int, "_SqFlatPipeline"] = {}
        # (rqn, index) -> the landed descriptor's (addr, bytes, lkey).
        self._cached_rx_desc: Dict[Tuple[int, int], tuple] = {}
        self._next_qpn = 1
        self._next_cqn = 1
        self._next_rqn = 1
        # FLD-E resume tables: id -> steering table name (§5.3).
        self._resume_tables: Dict[int, str] = {}
        self._next_resume_id = 1
        # Device-wide counts: they outlive the queues that fed them.
        self.stats_tx_wqes = 0
        self.stats_tx_bytes = 0
        self.stats_rx_packets = 0
        self.stats_rx_bytes = 0
        self.stats_cqes = 0
        self.stats_rx_dropped_inbox = 0
        self.stats_rx_dropped_no_desc = 0
        #: Frames longer than their receive buffer (local length errors).
        self.stats_rx_dropped_oversize = 0
        self.stats_meter_drops = 0
        #: Doorbells and MMIO WQEs for a queue that does not exist.
        self.stats_dropped_doorbells = 0
        #: Ethernet WQEs whose data is no frame (0 bytes, or shorter
        #: than its headers): nothing is sent, the WQE completes.
        self.stats_tx_dropped_malformed = 0
        # The tracer and span recorder are guarded by their ``enabled``
        # flags at every use site.
        tele = sim.telemetry
        self._tracer = tele.tracer
        self._spans = tele.spans
        if tele.enabled:
            tele.register_counters(f"nic.{name}", lambda: {
                "tx.wqes": self.stats_tx_wqes,
                "tx.bytes": self.stats_tx_bytes,
                "rx.packets": self.stats_rx_packets,
                "rx.bytes": self.stats_rx_bytes,
                "cqes": self.stats_cqes,
                "rx.dropped_inbox": self.stats_rx_dropped_inbox,
                "rx.dropped_no_desc": self.stats_rx_dropped_no_desc,
                "meter_drops": self.stats_meter_drops,
                "dropped_doorbells": self.stats_dropped_doorbells,
            })
            tele.register_probe(f"nic.{name}.rdma", self._rdma_probe)
        fabric.attach(self, link_config)
        # Inbound RDMA WRITEs DMA straight to the target fabric address,
        # posted: nothing waits for the payload to land.
        self.rdma.dma_write = (
            lambda va, data: self.fabric.post_write(
                self, va, data,
                trace_ctx=self.rdma.inbound_trace_ctx,
                trace_stage="pcie.dma_write", on_done=POSTED))
        # QP transport failures surface as error CQEs on the QP's send
        # CQ — the §5.3 path the kernel driver's recovery hook watches.
        self.rdma.on_qp_error = self._rdma_qp_error
        # RoCE frames (the eSwitch offers only those) skip guest steering.
        self.eswitch.pre_rx_hook = self.rdma.on_ingress
        # The firmware command unit: object table + command executors.
        self.cmd = CommandUnit(self)

    # ------------------------------------------------------------------
    # Control interface (firmware commands)
    # ------------------------------------------------------------------

    def create_cq(self, ring_addr: int, entries: int) -> CompletionQueue:
        cq = CompletionQueue(self.sim, self._next_cqn, ring_addr, entries)
        self.cqs[cq.cqn] = cq
        self._next_cqn += 1
        return cq

    def create_sq(self, ring_addr: int, entries: int, cq: CompletionQueue,
                  vport: int = 0, transport: str = SendQueue.TRANSPORT_ETH,
                  meter: Optional[str] = None) -> SendQueue:
        sq = SendQueue(self.sim, self._next_qpn, ring_addr, entries, cq,
                       transport, vport)
        sq.meter = meter
        self.sqs[sq.qpn] = sq
        self._next_qpn += 1
        self._tx_flat[sq.qpn] = _SqFlatPipeline(self, sq)
        return sq

    def create_rq(self, ring_addr: int, entries: int, cq: CompletionQueue,
                  shared: bool = False) -> ReceiveQueue:
        rq = ReceiveQueue(self.sim, self._next_rqn, ring_addr, entries, cq,
                          shared)
        self._register_rq(rq)
        return rq

    def create_mprq(self, ring_addr: int, entries: int, cq: CompletionQueue,
                    strides_per_buffer: int = 64,
                    stride_size: int = 2048) -> MultiPacketReceiveQueue:
        rq = MultiPacketReceiveQueue(
            self.sim, self._next_rqn, ring_addr, entries, cq,
            strides_per_buffer, stride_size,
        )
        self._register_rq(rq)
        return rq

    def _register_rq(self, rq: ReceiveQueue) -> None:
        self.rqs[rq.rqn] = rq
        self._next_rqn += 1
        inbox = rq.inbox = Store(self.sim,
                                 capacity=self.config.rx_inbox_depth,
                                 name=f"{self.name}.rq{rq.rqn}.inbox")
        self._rx_flat[rq.rqn] = _RqFlatWorker(self, rq, inbox)

    def create_rc_qp(self, ring_addr: int, entries: int,
                     cq: CompletionQueue, rq: ReceiveQueue, vport: int,
                     local_mac, local_ip) -> RcQp:
        """Create an RC QP: an RDMA send queue bound to a receive queue."""
        sq = self.create_sq(ring_addr, entries, cq, vport,
                            transport=SendQueue.TRANSPORT_RC)
        qp = RcQp(sq.qpn, sq, rq, local_mac=local_mac, local_ip=local_ip)
        self.rdma.register_qp(qp)
        self._qp_by_sqn[sq.qpn] = qp
        return qp

    def set_vport_default_queue(self, vport: int, rq: ReceiveQueue) -> None:
        """Deliver a vPort's otherwise-unmatched traffic to ``rq``."""
        from .steering import ForwardToQueue
        if vport not in self.eswitch.vports:
            self.eswitch.add_vport(vport)
        table = self.steering.table(self.eswitch.vports[vport].rx_root)
        table.default_actions = [ForwardToQueue(rq)]

    def register_resume_table(self, table_name: str) -> int:
        """Register a steering table as an FLD-E resume target (§5.3).

        Returns the resume ID the accelerator must echo in the upper 16
        bits of its transmit context_id to continue pipeline processing
        at ``table_name``.
        """
        resume_id = self._next_resume_id
        self._next_resume_id += 1
        self._resume_tables[resume_id] = table_name
        return resume_id

    # -- teardown (driven by the destroy verb) ---------------------------

    def _poison(self, store: Store) -> None:
        """Put the poison sentinel, parked until a slot frees when full."""
        store.put_or_park(_POISON, _admitted)

    def destroy_cq(self, cq: CompletionQueue) -> None:
        self.cqs.pop(cq.cqn, None)
        # A CQE still in flight lands in the ring, for no consumer.
        cq.fused_rx = cq.on_cqe = None

    def destroy_sq(self, sq: SendQueue) -> None:
        sq.destroyed = True
        self.sqs.pop(sq.qpn, None)
        self._tx_flat.pop(sq.qpn, None)
        sq.mmio_wqes.clear()
        # The path of a doorbell: an idle fetch stage ends the tx stage
        # now, a paused (or unstarted) one once it next drains.
        fetch = sq.fetch
        if fetch is not None:
            sq.fetch = None
            fetch()

    def destroy_rq(self, rq: ReceiveQueue) -> None:
        rq.destroyed = True
        self.rqs.pop(rq.rqn, None)
        self._rx_flat.pop(rq.rqn, None)
        if rq.inbox is not None:
            self._poison(rq.inbox)
            rq.inbox = None     # later frames count as inbox drops
        for key in [k for k in self._cached_rx_desc if k[0] == rq.rqn]:
            del self._cached_rx_desc[key]

    def destroy_rc_qp(self, qp: RcQp) -> None:
        self.rdma.unregister_qp(qp.qpn)
        self._qp_by_sqn.pop(qp.sq.qpn, None)
        self.destroy_sq(qp.sq)

    def clear_vport_default_queue(self, vport: int) -> None:
        """Back to the vPort table's initial miss behaviour: drop."""
        if vport not in self.eswitch.vports:
            return
        table = self.steering.table(self.eswitch.vports[vport].rx_root)
        table.default_actions = [Drop()]

    def unregister_resume_table(self, resume_id: int) -> None:
        self._resume_tables.pop(resume_id, None)

    def remove_vport(self, number: int) -> None:
        self.eswitch.remove_vport(number)

    @property
    def steering(self) -> SteeringPipeline:
        return self.eswitch.pipeline

    # ------------------------------------------------------------------
    # PCIe BAR (doorbells + WQE-by-MMIO)
    # ------------------------------------------------------------------

    def handle_write(self, offset: int, data: bytes) -> None:
        """A write to a queue's PI register (an SQ or RQ doorbell) or a
        WQE by MMIO.  One for a queue that does not exist — destroyed
        while the write was in flight, or never made — is dropped and
        counted in ``stats_dropped_doorbells``."""
        if offset >= WQE_MMIO_BASE:
            sq = self.sqs.get((offset - WQE_MMIO_BASE) // WQE_MMIO_STRIDE)
            if sq is None:
                self.stats_dropped_doorbells += 1
                return
            # The packet's trace context rode the MMIO write side band.
            wqe = TxWqeRecord(TX_WQE.unpack_from(data)
                              + (self.fabric.inbound_trace_ctx,))
            # The WQE carries its index's low 16 bits: ring the first PI
            # at or past the queue's that ends in ``wqe_index + 1``.
            pi = sq.pi
            sq.ring_doorbell(pi + ((wqe.wqe_index + 1 - pi) & 0xFFFF), wqe)
            return
        if offset >= RQ_DOORBELL_BASE:
            rq = self.rqs.get((offset - RQ_DOORBELL_BASE) // DOORBELL_STRIDE)
            if rq is None:
                self.stats_dropped_doorbells += 1
                return
            new_pi = int.from_bytes(data[:4], "big")
            if new_pi > rq.pi:
                rq.post(new_pi - rq.pi)
            return
        sq = self.sqs.get(offset // DOORBELL_STRIDE)
        if sq is None:
            self.stats_dropped_doorbells += 1
            return
        sq.ring_doorbell(int.from_bytes(data[:4], "big"))

    def handle_read(self, offset: int, length: int) -> bytes:
        raise PcieError(f"{self.name}: BAR reads not supported")

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------

    def _wqes_fetched(self, sq: SendQueue, batch: Dict[int, TxWqeRecord],
                      index: int, burst: int, raw: bytes,
                      fetch_started: float) -> None:
        """A ring fetch of ``burst`` WQEs from ``index`` landed: decode
        them into ``batch`` with their trace contexts.

        A ring read carries no context; the producer stashed it under
        the (nic, qpn, index) it rang for.
        """
        sq.stats_wqe_fetches += burst
        spans = self._spans
        for i, fields in enumerate(TX_WQE.iter_unpack(raw), index):
            ctx = None
            if spans.enabled:
                ctx = spans.claim(("wqe", self.name, sq.qpn, i))
                if ctx is not None:
                    spans.record(ctx, "pcie.wqe_fetch", fetch_started,
                                 self.sim._now)
            batch[i] = TxWqeRecord(fields + (ctx,))

    def _resolve_eth(self, sq: SendQueue, wqe: TxWqeRecord, data: bytes):
        """Steer one Ethernet WQE: parse, offload, segment and classify,
        returning ``[(disposition, vport), ...]`` without applying
        anything (none for data that is no frame).

        Rule lookups take no virtual time and only bump counters, so a
        caller can resolve at data-ready time and defer the effect to
        the pipeline's completion instant.
        """
        ctx = wqe.trace_ctx
        meta = {"context_id": wqe.context_id & 0xFFFF}
        if ctx is not None:
            meta["trace_ctx"] = ctx
        try:
            packet = Packet.frozen(data, parse_layout(data), meta)
        except ValueError:
            self.stats_tx_dropped_malformed += 1
            return []
        if wqe.flags & (WQE_FLAG_CSUM_L3 | WQE_FLAG_CSUM_L4):
            self.checksum.fill(packet, l3=bool(wqe.flags & WQE_FLAG_CSUM_L3),
                               l4=bool(wqe.flags & WQE_FLAG_CSUM_L4))
        if wqe.flags & WQE_FLAG_LSO and wqe.mss:
            resolved = self.lso.segment(packet, wqe.mss)  # copies meta
        else:
            resolved = [packet]     # each verdict takes its frame's place
        resume_id = wqe.context_id >> 16
        if resume_id in self._resume_tables:
            # FLD-E return path: resume steering mid-pipeline (§5.3).
            table = self._resume_tables[resume_id]
            for i, packet in enumerate(resolved):
                resolved[i] = (self.steering.process(packet, table), None)
        else:
            for i, packet in enumerate(resolved):
                resolved[i] = self.eswitch.egress_resolve(sq.vport, packet)
        return resolved

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------

    def _deliver_disposition(self, vport: Optional[VPort],
                             disposition: Disposition) -> None:
        packet = disposition.packet
        for meter in disposition.meters:
            if not self.shaper.police(meter, packet.size() * 8):
                self.stats_meter_drops += 1
                return
        if disposition.kind == Disposition.RSS:
            rq = disposition.target.select(packet)
        else:  # DELIVER or ACCELERATOR
            rq = disposition.target
        flags = self.checksum.validate(packet)   # freezes a thawed packet
        context = disposition.context_id & 0xFFFF
        if disposition.kind == Disposition.ACCELERATOR and disposition.next_table:
            resume_id = self._resume_id_for(disposition.next_table)
            context |= resume_id << 16
        raw, layout, meta = packet.raw, packet.layout, packet.meta
        inbox = rq.inbox
        # An rx record (see _RqFlatWorker); a header-less payload's
        # layout is no parse of raw, so it rides no frame.
        if inbox is None or not inbox.try_put([
                raw, flags, context, rq.rqn, meta.get("rss_hash", 0),
                meta.get("trace_ctx"), self.sim._now,
                None if layout is NO_LAYERS else (raw, layout), 0.0]):
            self.stats_rx_dropped_inbox += 1

    def _resume_id_for(self, table_name: str) -> int:
        for resume_id, name in self._resume_tables.items():
            if name == table_name:
                return resume_id
        return self.register_resume_table(table_name)

    # ------------------------------------------------------------------
    # RDMA engine callbacks
    # ------------------------------------------------------------------

    def _rdma_egress(self, qp: RcQp, frame: Packet) -> None:
        self.eswitch.egress_from_vport(qp.sq.vport, frame)

    def _rdma_deliver(self, qp: RcQp, payload: bytes, flags: int,
                      context: int, first: bool, last: bool) -> None:
        # The deliver callback's signature is frozen (tests construct
        # plain 6-arg callables), so the engine exposes the delivered
        # segment's trace context as a transient attribute instead.
        inbox = qp.rq.inbox
        if inbox is None or not inbox.try_put([
                payload, flags, context, qp.qpn, 0,
                self.rdma.inbound_trace_ctx, self.sim._now, None, 0.0]):
            self.stats_rx_dropped_inbox += 1

    def _rdma_qp_error(self, qp: RcQp, syndrome: int) -> None:
        """A QP dropped to ERR: post the error CQE software recovers from."""
        self._post_cqe(qp.sq.cq, CQE.pack(CQE_ERROR, 0, 0, qp.qpn, 0, 0, 0,
                                          0, 1, syndrome), None)

    def _rdma_complete_send(self, qp: RcQp, wqe: TxWqeRecord) -> None:
        if wqe.flags & WQE_FLAG_SIGNALED:
            self._post_cqe(qp.sq.cq, CQE.pack(
                CQE_SEND_COMPLETION, 0, wqe.wqe_index, qp.qpn,
                wqe.byte_count, 0, 0, 0, 1, 0), wqe.trace_ctx)

    # ------------------------------------------------------------------
    # Completion writes
    # ------------------------------------------------------------------

    def _post_cqe(self, cq: CompletionQueue, cqe: bytes, ctx,
                  frame: Optional[tuple] = None) -> None:
        """Write one packed CQE; ``ctx`` and ``frame`` (the received
        frame's ``(bytes, layout)``) ride the write side band."""
        self.stats_cqes += 1
        pi = cq.pi      # the CQ's next slot
        cq.pi = pi + 1
        cq.stats_cqes += 1
        address = cq.ring_addr + (pi % cq.entries) * CQE_SIZE
        tracer = self._tracer
        if tracer.enabled:
            tracer.instant(f"nic.{self.name}", f"cq{cq.cqn}",
                           f"cqe:{cqe[0]}", self.sim._now)
        fused = cq.fused_rx
        if fused is not None:
            # The consumer folds the write's delivery into its own
            # per-CQE event (see CompletionQueue).
            fused(self.fabric.post_write_deferred(
                self, address, cqe, ctx, "pcie.cqe_write", frame))
            return
        on_cqe = cq.on_cqe
        self.fabric.post_write(self, address, cqe, trace_ctx=ctx,
                               trace_stage="pcie.cqe_write",
                               on_done=POSTED if on_cqe is None else
                               partial(on_cqe, cqe, ctx))

    def _post_cqe_at(self, cq: CompletionQueue, cqe: bytes, ctx,
                     when: float) -> None:
        """Post a send CQE resolved ahead of time (flat tx stage).

        The write TLP arbitrates for the PCIe lane as if issued at
        ``when`` — same delivery instant, same ``on_cqe`` call (if any) as
        :meth:`_post_cqe`, without the pipeline-occupancy event that
        posting at ``when`` would ride on.  Send completions never
        target a fused-rx CQ.
        """
        self.stats_cqes += 1
        pi = cq.pi
        cq.pi = pi + 1
        cq.stats_cqes += 1
        tracer = self._tracer
        if tracer.enabled:
            tracer.instant(f"nic.{self.name}", f"cq{cq.cqn}",
                           f"cqe:{cqe[0]}", when)
        on_cqe = cq.on_cqe
        self.fabric.post_write_at(self, cq.ring_addr
                                  + (pi % cq.entries) * CQE_SIZE,
                                  cqe, when, ctx,
                                  "pcie.cqe_write",
                                  on_done=POSTED if on_cqe is None else
                                  partial(on_cqe, cqe, ctx))

    # ------------------------------------------------------------------
    # Telemetry probes
    # ------------------------------------------------------------------

    def _rdma_probe(self) -> Dict[str, int]:
        """Sampled at export time only — zero cost on the datapath."""
        qps = list(self.rdma.qps.values())
        return {
            "qps": len(qps),
            "outstanding_segments": sum(len(q.outstanding) for q in qps),
            "write_protection_errors": sum(
                q.stats_write_protection_errors for q in qps),
        }


class _RqFlatWorker:
    """A receive queue's worker, written as continuations.

    The event structure is a serial per-packet loop's:

    * one processing-delay event per packet, owner-tagged with the
      queue's stage name;
    * descriptor DMA reads (a prefetched batch, refilled on miss — real
      NICs amortize descriptor DMA by reading cachelines of them)
      resumed by their completion callbacks;
    * the data write's CQE chained through the fabric's ``on_done``
      callback (PCIe posted-write ordering), while the worker moves on.

    An inbox item is a list record (built with no ``__init__`` frame)::

        [data, flags, context_id, qpn, rss_hash, trace_ctx, enqueued,
         frame, started]

    ``frame`` is the steered frame's ``(data, layout)`` for the CQE's
    side band, ``started`` the service start :meth:`_begin` stamps.  A
    sampled packet's trace context rides the record: the queue wait and
    the service interval are recorded as ``nic.rx`` spans, and the
    context is handed on to the data write and the CQE.
    """

    __slots__ = ("nic", "rq", "inbox", "profile_tag", "_mprq_bytes",
                 "_stride", "_pend")

    def __init__(self, nic: Nic, rq: ReceiveQueue, inbox: Store):
        self.nic = nic
        self.rq = rq
        self.inbox = inbox
        # Events this worker schedules attribute to this stage.
        self.profile_tag = f"{nic.name}.rq{rq.rqn}"
        # An MPRQ's buffer (0 for a plain RQ): the longest frame it
        # places, ``stride_index`` strides into the buffer.
        mprq = isinstance(rq, MultiPacketReceiveQueue)
        self._mprq_bytes = rq.buffer_size if mprq else 0
        self._stride = rq.stride_size if mprq else 0
        self._pend = None
        # Arm via a zero-delay step: the worker must not observe traffic
        # (or unit tests poking handle_write) before the simulation runs.
        nic.sim.call_later(0.0, self._next)

    def _next(self) -> None:
        """Pull the next inbox item, or park :meth:`_begin` for it: the
        loop head after a drop (:meth:`_complete` runs its own)."""
        item = self.inbox.pop_or_park(self._begin)
        if item is not None:
            self._begin(item)

    def _begin(self, item) -> None:
        if item is _POISON or self.rq.destroyed:
            return
        nic = self.nic
        started = item[8] = nic.sim._now
        ctx = item[5]
        if ctx is not None:
            nic._spans.record(ctx, "nic.rx", item[6], started, kind="queue")
        nic.sim.call_later(nic.config.processing_delay, self._service, item)

    def _service(self, item) -> None:
        """The post-delay body: place the packet and fetch its
        descriptor (from cache or DMA) for :meth:`_complete`."""
        nic = self.nic
        rq = self.rq
        if self._mprq_bytes:
            length = len(item[0])
            if length > self._mprq_bytes:
                # Longer than a whole buffer: no stride and no
                # descriptor are taken, so there is no CQE to write.
                nic.stats_rx_dropped_oversize += 1
                self._next()
                return
            placement = rq.place(length)
            if placement is None:
                nic.stats_rx_dropped_no_desc += 1
                self._next()
                return
            index = placement["desc_index"]
            stride = placement["stride_index"]
            key = (rq.rqn, index % rq.entries)
            cached = nic._cached_rx_desc
            if stride and key in cached:
                self._complete(item, length, cached[key], index, stride)
                return
            self._pend = (item, length, key, index, stride)
            nic.fabric.read(nic, rq.slot_addr(index), RX_DESC_SIZE,
                            on_done=self._mprq_desc_ready)
            return
        index = rq.ci
        if index == rq.pi:      # no descriptor posted
            rq.stats_drops_no_desc += 1
            nic.stats_rx_dropped_no_desc += 1
            self._next()
            return
        rq.ci = index + 1
        rq.stats_packets += 1
        length = len(item[0])
        desc = nic._cached_rx_desc.pop((rq.rqn, index), None)
        if desc is None:
            slot = index % rq.entries
            burst = max(1, min(nic.config.rx_desc_batch, rq.pi - index,
                               rq.entries - slot))
            self._pend = (item, length, index, burst)
            nic.fabric.read(
                nic, rq.slot_addr(index), burst * RX_DESC_SIZE,
                on_done=self._plain_desc_ready,
            )
            return
        self._complete(item, length, desc, index, 0)

    def _mprq_desc_ready(self, raw) -> None:
        item, length, key, index, stride = self._pend
        self._pend = None
        desc = self.nic._cached_rx_desc[key] = RX_DESC.unpack_from(raw)
        self._complete(item, length, desc, index, stride)

    def _plain_desc_ready(self, raw) -> None:
        item, length, index, burst = self._pend
        self._pend = None
        cached = self.nic._cached_rx_desc
        rqn = self.rq.rqn
        for i, desc in enumerate(RX_DESC.iter_unpack(raw), index):
            cached[(rqn, i)] = desc
        self._complete(item, length, cached.pop((rqn, index)), index, 0)

    def _complete(self, item, length: int, desc, index: int,
                  stride_index: int) -> None:
        """Write ``item`` (``length`` bytes, measured once by
        :meth:`_service`) ``stride_index`` strides into the buffer of
        descriptor ``desc`` (ring ``index``), chain its CQE on the write
        and take the next inbox item.  A frame longer than the buffer is
        a local length error: the buffer takes its first bytes and the
        CQE, chained the same way so it cannot overtake an earlier
        frame's, completes the descriptor in error for software to
        repost.  (An MPRQ placement always fits.)"""
        nic = self.nic
        rq = self.rq
        data, flags, context, qpn, rss_hash, ctx, _enq, frame, started = item
        address, buffer_bytes, _lkey = desc
        if length > buffer_bytes:
            nic.stats_rx_dropped_oversize += 1
            nic.fabric.post_write(
                nic, address, data[:buffer_bytes], trace_ctx=ctx,
                trace_stage="pcie.dma_write",
                on_done=partial(nic._post_cqe, rq.cq, CQE.pack(
                    CQE_ERROR, 0, index & 0xFFFF, qpn, length, 0, 0, 0, 1,
                    CQE_SYNDROME_LOCAL_LENGTH), ctx))
        else:
            nic.stats_rx_packets += 1
            nic.stats_rx_bytes += length
            cqe = CQE.pack(CQE_RECV_COMPLETION, flags, index & 0xFFFF, qpn,
                           length, rss_hash & 0xFFFFFFFF, context,
                           stride_index, 1, 0)
            if ctx is not None:
                nic._spans.record(ctx, "nic.rx", started, nic.sim._now)
            # The CQE is ordered after the data write (PCIe posted-write
            # ordering); on_done fires at the write's delivery instant.
            nic.fabric.post_write(nic, address + stride_index * self._stride,
                                  data, trace_ctx=ctx,
                                  trace_stage="pcie.dma_write",
                                  on_done=partial(nic._post_cqe, rq.cq, cqe,
                                                  ctx, frame))
            tracer = nic._tracer
            if tracer.enabled:
                tracer.complete(f"nic.{nic.name}", f"rq{rq.rqn}",
                                "rx_packet", started, nic.sim._now,
                                {"bytes": length})
        item = self.inbox.pop_or_park(self._begin)
        if item is not None:
            self._begin(item)


class _SqFlatPipeline:
    """A send queue's fetch and transmit stages, written as
    continuations.  Every send queue runs one — Ethernet or RC, metered
    or not.

    * The fetch stage drains to the doorbell's PI register: a doorbell
      drains it at once when it is idle (``sq.fetch``); it pauses only
      on a batched WQE fetch or a full window, and the read's
      completion callback / the window's admission callback resumes the
      drain, which reads the PI again and so takes in every doorbell
      rung during the pause.
    * The transmit stage pulls in order; a window item is a list whose
      data slot the WQE's DMA read fills when it lands
      (:meth:`_data_landed`), resuming the stage if it is waiting on
      that item.  The per-WQE pipeline occupancy is a *virtual*
      clock, ``stage_free``: for an unmetered Ethernet WQE bound for
      the uplink, steering resolves when the DMA data lands and the
      wire reservation and the signaled CQE are keyed at the stage's
      completion instant ``done`` — the exact time a serial stage
      sleeping ``processing_delay`` per WQE would have acted — at the
      cost of no event.  Pulling the next WQE early must not release a
      backpressured fetch stage ahead of schedule, so the stage *holds*
      its window slot (``Store.hold_slot``) until the instant the
      serial stage would have popped.
    * A WQE whose effect depends on state at ``done`` is *deferred*: one
      continuation at ``done`` that ends in ``_pull()``.  Local
      dispositions (loopback, queue delivery, drops) apply there.  A
      metered queue asks the shaper there and, told to wait, schedules
      a second continuation through :meth:`Shaper.pause`; an RC queue
      hands the message to :meth:`RdmaEngine.send_message`, which
      emits one segment per scheduler pass and calls back in the pass
      of the last.  While a WQE is deferred the stage pulls nothing, so
      ``stage_free`` is simply set to the instant it finished.

    Spans and Chrome-trace records are written from those same instants
    (``enqueued``, ``stage_free``, ``done``) — an observed run
    schedules nothing extra.

    The window Store carries the fetch stage's profiler tag so
    hold-expiry wakes attribute to it; the pipeline object itself
    carries the tx stage's tag for its own continuations.
    """

    __slots__ = ("nic", "sq", "window", "profile_tag", "stage_free",
                 "_wqe_batch", "_fetch_pend", "_tx_pend")

    def __init__(self, nic: Nic, sq: SendQueue):
        self.nic = nic
        self.sq = sq
        window = Store(nic.sim, capacity=nic.config.dma_window,
                       name=f"{nic.name}.sq{sq.qpn}.pipe")
        window.profile_tag = f"{nic.name}.sq{sq.qpn}"
        self.window = window
        self.profile_tag = f"{nic.name}.sq{sq.qpn}.tx"
        self.stage_free = 0.0
        self._wqe_batch: Dict[int, TxWqeRecord] = {}
        self._fetch_pend = None
        self._tx_pend = None
        # Start via a zero-delay step: the pipeline must not observe
        # doorbells (or unit tests poking handle_write) before the
        # simulation runs.
        nic.sim.call_later(0.0, self._start)

    # -- fetch stage ---------------------------------------------------

    def _start(self) -> None:
        self.nic.sim.call_later(0.0, self._pull)
        if self.sq.destroyed:
            self.window.put(_POISON)
        else:
            self._drain()

    def _drain(self, fetched: Optional[bytes] = None) -> None:
        """Queue WQEs up to the PI on the window, launching each one's
        data DMA, until paused on a ring fetch or a full window; drained,
        the stage is idle (``sq.fetch``), or flushes (:meth:`_flush`) if
        the queue was destroyed.  ``fetched`` is a landed ring fetch, whose
        first WQE's index (``sq.ci``) was taken when the fetch was
        issued."""
        nic = self.nic
        sq = self.sq
        batch = self._wqe_batch
        wqe = None
        if fetched is not None:
            index, burst, fetch_started = self._fetch_pend
            self._fetch_pend = None
            nic._wqes_fetched(sq, batch, index, burst, fetched, fetch_started)
            if sq.destroyed:
                self._flush(index)
                return
            wqe = batch.pop(index)
        while True:
            if wqe is not None:
                # [index, wqe, data (None until the DMA read lands),
                #  enqueued]
                item = [index, wqe, None, nic.sim._now]
                if wqe.byte_count > 0:
                    nic.fabric.read(nic, wqe.buffer_addr, wqe.byte_count,
                                    trace_ctx=wqe.trace_ctx,
                                    trace_stage="pcie.dma_read",
                                    on_done=partial(self._data_landed, item))
                else:
                    item[2] = b""
                if not self.window.put_or_park(item, self._put_admitted):
                    return
            index = sq.ci
            if index >= sq.pi:
                if sq.destroyed:
                    self._flush(index)
                else:
                    sq.fetch = self._drain
                return
            sq.ci = index + 1
            wqe = (sq.mmio_wqes.pop(index & 0xFFFF, None)
                   or batch.pop(index, None))
            if wqe is None:
                # Fetch a contiguous batch (bounded by the ring edge).
                slot = index % sq.entries
                burst = min(nic.config.wqe_fetch_batch, sq.pi - index,
                            sq.entries - slot)
                self._fetch_pend = (index, burst, nic.sim._now)
                nic.fabric.read(
                    nic, sq.slot_addr(index), burst * WQE_SIZE,
                    on_done=self._drain,
                )
                return

    def _put_admitted(self, _item) -> None:
        if self.sq.destroyed:
            self._flush(self.sq.ci)
        else:
            self._drain()

    def _flush(self, first: int) -> None:
        """End a destroyed queue's stages: each WQE from index ``first``
        to the PI was never queued and is flushed once, fetched or not,
        its data unread and its stashed context dropped; the tx stage
        ends behind the queued ones."""
        sq, nic = self.sq, self.nic
        sq.stats_flushed += sq.pi - first
        if nic._spans.enabled:
            for i in range(first, sq.pi):
                nic._spans.claim(("wqe", nic.name, sq.qpn, i))
        sq.ci = sq.pi
        self._wqe_batch.clear()
        self.window.put(_POISON)

    # -- transmit stage ------------------------------------------------

    def _pull(self) -> None:
        """Consume window items in order, holding the popped slot
        until the serial stage would have freed it."""
        window = self.window
        sim = self.nic.sim
        while True:
            if window._items and self.stage_free > sim._now:
                window.hold_slot(self.stage_free)
            item = window.pop_or_park(self._handover)
            if item is None or item is _POISON:
                return
            if item[2] is None:
                self._tx_pend = item    # _data_landed resumes the stage
                return
            if not self._tx_send(*item):
                return

    def _handover(self, item) -> None:
        # Handed over while get-blocked, before the serial stage would
        # even be polling: the item would have sat in the window
        # (occupying its slot) until then.
        if self.nic.sim._now < self.stage_free:
            self.window.hold_slot(self.stage_free)
        if item is _POISON:
            return
        if item[2] is None:
            self._tx_pend = item        # _data_landed resumes the stage
        elif self._tx_send(*item):
            self._pull()

    def _data_landed(self, item, data) -> None:
        """A WQE's data DMA read completed: fill its window item."""
        item[2] = data
        if self._tx_pend is item:
            self._tx_pend = None
            if self._tx_send(item[0], item[1], data, item[3]):
                self._pull()

    def _tx_send(self, index: int, wqe: TxWqeRecord, data: bytes,
                 enqueued: float) -> bool:
        """Transmit one WQE whose data has landed; False when its
        completion is deferred to a continuation (which ends in
        :meth:`_pull`)."""
        nic = self.nic
        sq = self.sq
        sim = nic.sim
        sq.stats_wqes += 1
        nic.stats_tx_wqes += 1
        nic.stats_tx_bytes += wqe.byte_count   # what its data read returned
        now = sim._now
        stage_free = self.stage_free
        service_started = now if now > stage_free else stage_free
        done = service_started + nic.config.processing_delay
        self.stage_free = done
        if sq.transport == SendQueue.TRANSPORT_RC or sq.meter is not None:
            # A shaper wait or the RC segment loop may hold this WQE
            # past ``done`` by an amount only known at ``done``: defer,
            # and let the rest of the WQE run as continuations.
            self._tx_pend = (index, wqe, data, enqueued,
                             enqueued if enqueued > stage_free
                             else stage_free, service_started)
            sim.call_later(done - now, self._tx_emit if sq.meter is None
                           else self._tx_paced)
            return False
        ctx = wqe.trace_ctx
        tracer = nic._tracer
        if ctx is not None or tracer.enabled:
            # The serial stage pops a WQE when it is both queued and the
            # previous one is done, then serves it once its data is in.
            popped = enqueued if enqueued > stage_free else stage_free
            if ctx is not None:
                spans = nic._spans
                spans.record(ctx, "nic.tx", enqueued, popped, kind="queue")
                spans.record(ctx, "nic.tx", service_started, done)
            if tracer.enabled:
                tracer.complete(f"nic.{nic.name}", f"sq{sq.qpn}", "wqe",
                                popped, done,
                                {"index": index, "bytes": wqe.byte_count})
        resolved = nic._resolve_eth(sq, wqe, data)
        for d, _v in resolved:
            if d.kind != Disposition.UPLINK:
                break
        else:
            # All bound for the wire: each frame reserves the uplink
            # under the key ``done`` right away (exact arbitration
            # against concurrent senders), with no event of its own.
            eswitch = nic.eswitch
            port = eswitch.port
            for d, _v in resolved:
                eswitch.stats_to_uplink += 1
                port.send_at(d.packet, done)
            if wqe.flags & WQE_FLAG_SIGNALED:
                nic._post_cqe_at(sq.cq, CQE.pack(
                    CQE_SEND_COMPLETION, 0, index & 0xFFFF, sq.qpn,
                    wqe.byte_count, 0, 0, 0, 1, 0), ctx, done)
            return True
        # Local dispositions (loopback, queue delivery, drops) can race
        # receive-side state at the completion instant: realign and
        # apply synchronously at ``done``.
        entry = (resolved, wqe, index)
        if done > now:
            sim.call_later(done - now, self._apply_local_cont, entry)
            return False
        self._apply_local(entry)
        return True

    def _apply_local_cont(self, entry) -> None:
        self._apply_local(entry)
        self._pull()

    def _apply_local(self, entry) -> None:
        resolved, wqe, index = entry
        nic = self.nic
        eswitch = nic.eswitch
        for d, vport in resolved:
            eswitch.forward(d.packet, d, vport)
        if wqe.flags & WQE_FLAG_SIGNALED:
            nic._post_cqe(self.sq.cq, CQE.pack(
                CQE_SEND_COMPLETION, 0, index & 0xFFFF, self.sq.qpn,
                wqe.byte_count, 0, 0, 0, 1, 0), wqe.trace_ctx)

    # -- RC and metered WQEs: the deferred arm -------------------------

    def _tx_paced(self) -> None:
        """At ``done``: a metered queue waits out its shaper first."""
        nic = self.nic
        wqe = self._tx_pend[1]
        delay = nic.shaper.delay_for(self.sq.meter, wqe.byte_count * 8)
        if delay > 0:
            if wqe.trace_ctx is not None:
                now = nic.sim._now
                nic._spans.record(wqe.trace_ctx, "nic.shaper", now,
                                  now + delay, kind="queue")
            nic.shaper.pause(delay, self._tx_conformed)
        else:
            self._tx_conformed()

    def _tx_conformed(self) -> None:
        self.nic.shaper.consume(self.sq.meter,
                                self._tx_pend[1].byte_count * 8)
        self._tx_emit()

    def _tx_emit(self) -> None:
        nic = self.nic
        sq = self.sq
        index, wqe, data = self._tx_pend[:3]
        if sq.transport != SendQueue.TRANSPORT_RC:
            self._apply_local((nic._resolve_eth(sq, wqe, data), wqe, index))
        else:
            qp = nic._qp_by_sqn.get(sq.qpn)
            if qp is not None and qp.state == RcQp.READY:
                # One segment per scheduler pass, _tx_done in the last
                # one's; the send CQE arrives later, on the remote ack.
                nic.rdma.send_message(qp, wqe, data,
                                      remote_addr=wqe.remote_addr,
                                      rkey=wqe.rkey, on_done=self._tx_done)
                return
            # The QP dropped to ERR (or is being torn down): queued
            # WQEs are flushed, not sent (verbs flush semantics) —
            # software recovers via the command unit.
            sq.stats_flushed += 1
        self._tx_done()

    def _tx_done(self) -> None:
        index, wqe, _data, enqueued, popped, service_started = self._tx_pend
        self._tx_pend = None
        nic = self.nic
        # The stage really was busy until now; the next WQE pops here.
        now = self.stage_free = nic.sim._now
        ctx = wqe.trace_ctx
        if ctx is not None:
            spans = nic._spans
            spans.record(ctx, "nic.tx", enqueued, popped, kind="queue")
            spans.record(ctx, "nic.tx", service_started, now)
        tracer = nic._tracer
        if tracer.enabled:
            tracer.complete(f"nic.{nic.name}", f"sq{self.sq.qpn}", "wqe",
                            popped, now,
                            {"index": index, "bytes": wqe.byte_count})
        self._pull()
