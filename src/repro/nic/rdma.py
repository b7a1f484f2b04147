"""RoCE RC transport engine: segmentation, acks, retransmission (§2.1-2.2).

The NIC implements the reliable transport in hardware — the key offload a
BITW design cannot reach and FLD can (§3).  The engine:

* segments messages into MTU-sized RoCE v2 frames (Eth/IP/UDP/BTH),
* tracks PSNs per QP and acknowledges received data cumulatively,
* retransmits outstanding segments on timeout (go-back-N),
* delivers received payload segments into the QP's receive queue with
  per-packet completions (ConnectX's shared MPRQ behaviour the paper
  exploits for incremental message processing, §6 Limitations).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional

from ..net import (
    Ethernet,
    IpAddress,
    Ipv4,
    MacAddress,
    PROTO_UDP,
    Packet,
    ROCE_V2_PORT,
    Udp,
)
from ..net.parse import BTH, PAYLOAD, parse_layout
from ..net.roce import (
    ACK, ACK_REQUEST, BTH_AETH_WIRE, BTH_FLAGS, BTH_RETH_WIRE, BTH_WIRE,
    DEFAULT_PARTITION, FIRST, ICRC_SIZE, LAST, OP_ACK, OPCODE_CLASS,
    RETH_WIRE, SEGMENT_OPCODE, WRITE,
)
from ..sim import Simulator
from .wqe import CQE_FLAG_MSG_LAST, OP_RDMA_WRITE, TxWqeRecord


_ICRC = bytes(ICRC_SIZE)


class MemoryRegion:
    """A registered memory region: the target of RDMA WRITEs.

    Registration hands out an ``rkey`` the remote peer must present in
    the RETH; incoming writes are bounds-checked against the region.
    """

    __slots__ = ("rkey", "base", "length")

    def __init__(self, rkey: int, base: int, length: int):
        self.rkey = rkey
        self.base = base
        self.length = length

    def contains(self, address: int, nbytes: int) -> bool:
        return (self.base <= address
                and address + nbytes <= self.base + self.length)


class RdmaError(RuntimeError):
    """Raised on QP misuse (unconnected sends, bad state)."""


class QpStateError(RdmaError):
    """Raised on an illegal QP state transition (verbs semantics)."""


class _Segment:
    """One outstanding (unacked) transmit segment."""

    __slots__ = ("frame", "wqe", "is_last", "sent_at", "span_id")

    def __init__(self, frame: Packet, wqe: TxWqeRecord, is_last: bool,
                 sent_at: float):
        self.frame = frame
        self.wqe = wqe
        self.is_last = is_last
        self.sent_at = sent_at
        # Open "rdma" span handle, closed when the last segment is acked.
        self.span_id = None


class RcQp:
    """A reliable-connected queue pair's transport state.

    The QP walks the verbs state machine: RESET → INIT → RTR → RTS for
    bring-up, dropping to ERR on transport failure, and ERR → RESET to
    recover (Table 4's reset-and-reconnect flow).  ``modify`` enforces
    the legal edges; ``connect`` is the bring-up sugar the software
    control planes use.
    """

    RESET, INIT, RTR, RTS, ERR = "reset", "init", "rtr", "rts", "err"
    #: Data-path alias: sends are legal only in RTS.
    READY = RTS

    #: Legal forward edges; any state may additionally drop to ERR, and
    #: any state may be torn back to RESET (verbs semantics).
    _FORWARD = {RESET: INIT, INIT: RTR, RTR: RTS}

    def __init__(self, qpn: int, sq, rq, local_mac: MacAddress,
                 local_ip: IpAddress):
        self.qpn = qpn
        self.sq = sq          # SendQueue with transport 'rc'
        self.rq = rq          # ReceiveQueue / MPRQ segments land in
        self.local_mac = local_mac
        self.local_ip = local_ip
        self.state = self.RESET
        #: Error syndrome of the failure that moved the QP to ERR.
        self.error_syndrome = 0
        # Remote endpoint (set by connect).
        self.remote_mac: Optional[MacAddress] = None
        self.remote_ip: Optional[IpAddress] = None
        self.remote_qpn: Optional[int] = None
        # Packed Eth/IPv4/UDP head of this QP's frames and the frame's
        # layout, by (UDP length, BTH opcode); valid while the remote
        # endpoint stands.
        self.frame_heads: Dict[tuple, tuple] = {}
        # Sender state.
        self.next_psn = 0
        self.consecutive_retries = 0
        self.outstanding: "OrderedDict[int, _Segment]" = OrderedDict()
        # Receiver state.
        self.expected_psn = 0
        self.received_msn = 0
        # In-progress inbound RDMA WRITE: the VA cursor set by the
        # first segment's RETH.
        self.write_cursor: Optional[int] = None
        self.write_region: Optional["MemoryRegion"] = None
        self.stats_sent_segments = 0
        self.stats_retransmits = 0
        self.stats_received_segments = 0
        self.stats_duplicate_segments = 0
        self.stats_writes_received = 0
        self.stats_write_protection_errors = 0

    def can_transition(self, new_state: str) -> bool:
        if new_state in (self.RESET, self.ERR):
            return True
        return self._FORWARD.get(self.state) == new_state

    def modify(self, new_state: str, remote_mac=None, remote_ip=None,
               remote_qpn: Optional[int] = None,
               rq_psn: Optional[int] = None,
               sq_psn: Optional[int] = None) -> None:
        """One verbs-style state transition, validating the edge.

        Like ``ibv_modify_qp``, attributes ride the transition that
        consumes them: the remote endpoint and receive PSN are applied
        at RTR, the send PSN at RTS.
        """
        if not self.can_transition(new_state):
            raise QpStateError(
                f"QP {self.qpn}: illegal transition "
                f"{self.state} -> {new_state}")
        if new_state == self.RTR:
            self.frame_heads.clear()
            if remote_mac is not None:
                self.remote_mac = MacAddress(remote_mac)
            if remote_ip is not None:
                self.remote_ip = IpAddress(remote_ip)
            if remote_qpn is not None:
                self.remote_qpn = remote_qpn
            if self.remote_qpn is None:
                raise QpStateError(
                    f"QP {self.qpn}: RTR requires a remote endpoint")
            if rq_psn is not None:
                self.expected_psn = rq_psn
        elif new_state == self.RTS:
            if sq_psn is not None:
                self.next_psn = sq_psn
        elif new_state == self.RESET:
            self._clear_transport_state()
            self.remote_mac = None
            self.remote_ip = None
            self.remote_qpn = None
            self.error_syndrome = 0
        self.state = new_state

    def _clear_transport_state(self) -> None:
        self.next_psn = 0
        self.expected_psn = 0
        self.received_msn = 0
        self.consecutive_retries = 0
        self.outstanding.clear()
        self.write_cursor = None
        self.write_region = None


class RdmaEngine:
    """The device-resident transport processor.

    ``egress`` sends a finished RoCE frame out of the owning NIC;
    ``deliver_segment`` hands received payload to the device's receive
    path (buffer placement + CQE); ``complete_send`` writes send CQEs.
    """

    #: Syndrome reported when the retry budget is exhausted (mirrors
    #: IB's "transport retry counter exceeded" completion status).
    SYNDROME_RETRY_EXCEEDED = 0x15

    def __init__(self, sim: Simulator, mtu: int = 1024,
                 retransmit_timeout: float = 2e-3,
                 egress: Callable[[RcQp, Packet], None] = None,
                 deliver_segment=None, complete_send=None,
                 name: str = "rdma", max_retries: Optional[int] = None):
        self.sim = sim
        self.mtu = mtu
        self.retransmit_timeout = retransmit_timeout
        self.egress = egress
        self.deliver_segment = deliver_segment
        self.complete_send = complete_send
        self.name = name
        #: Consecutive go-back-N rounds without ack progress before the
        #: QP is failed to ERR; ``None`` retries forever (the historical
        #: behaviour, kept as the default).
        self.max_retries = max_retries
        #: Called as ``on_qp_error(qp, syndrome)`` when a QP drops to
        #: ERR; the owning NIC surfaces this as an error CQE (§5.3).
        self.on_qp_error: Optional[Callable[[RcQp, int], None]] = None
        self.qps: Dict[int, RcQp] = {}
        # Registered memory regions (one protection domain per engine).
        self._regions: Dict[int, MemoryRegion] = {}
        self._next_rkey = 1
        # Target for validated inbound RDMA WRITE data: callable
        # (virtual_address, data); typically the device's DMA engine.
        self.dma_write = None
        # Fault injection: callable (qp, frame) -> bool; True drops the
        # outgoing frame on the floor (models wire loss — exercises the
        # retransmission machinery deterministically in tests).
        self.drop_filter: Optional[Callable[[RcQp, Packet], bool]] = None
        # Engine-wide counts; the per-QP ones die with their QP.
        self.stats_segments_sent = 0
        self.stats_segments_received = 0
        self.stats_retransmits = 0
        self.stats_duplicate_segments = 0
        self.stats_acks_sent = 0
        self.stats_acks_received = 0
        self.stats_injected_drops = 0
        tele = sim.telemetry
        #: Profiler owner tag: retransmit timers and per-segment
        #: pipeline passes account to the rdma stage, not the SQ worker
        #: that drove them.
        self.profile_tag = name
        if tele.enabled:
            tele.register_counters(name, lambda: {
                "segments_sent": self.stats_segments_sent,
                "segments_received": self.stats_segments_received,
                "retransmits": self.stats_retransmits,
                "duplicate_segments": self.stats_duplicate_segments,
                "acks_sent": self.stats_acks_sent,
                "acks_received": self.stats_acks_received,
                "injected_drops": self.stats_injected_drops,
            })
        self._spans = tele.spans
        # Trace context of the inbound segment currently being delivered.
        # ``deliver_segment`` and ``dma_write`` have frozen signatures
        # (tests install plain lambdas), so the context travels out-of-band:
        # the owning device reads this attribute inside those callbacks.
        self.inbound_trace_ctx = None

    # -- memory registration ------------------------------------------------

    def register_mr(self, base: int, length: int) -> MemoryRegion:
        """Register [base, base+length) as an RDMA WRITE target."""
        region = MemoryRegion(self._next_rkey, base, length)
        self._regions[region.rkey] = region
        self._next_rkey += 1
        return region

    @property
    def retransmits(self) -> int:
        """``stats_retransmits`` under the name ``benchmarks/perf`` reads."""
        return self.stats_retransmits

    def deregister_mr(self, rkey: int) -> None:
        self._regions.pop(rkey, None)

    def register_qp(self, qp: RcQp) -> None:
        if qp.qpn in self.qps:
            raise RdmaError(f"QP {qp.qpn} already registered")
        self.qps[qp.qpn] = qp

    def unregister_qp(self, qpn: int) -> None:
        qp = self.qps.pop(qpn, None)
        if qp is not None:
            qp.outstanding.clear()  # orphan the retransmit timer

    # -- transmit ---------------------------------------------------------

    def _egress_frame(self, qp: RcQp, frame: Packet) -> None:
        """Single egress chokepoint: applies the fault-injection filter."""
        if self.drop_filter is not None and self.drop_filter(qp, frame):
            self.stats_injected_drops += 1
            return
        self.egress(qp, frame)

    def send_message(self, qp: RcQp, wqe: TxWqeRecord, data: bytes,
                     remote_addr: int = 0, rkey: int = 0,
                     on_done: Optional[Callable[[], None]] = None) -> None:
        """Segment and transmit one message.

        ``wqe.opcode`` selects SEND or RDMA WRITE; a WRITE carries the
        (remote VA, rkey) in the first segment's RETH.  The first
        segment leaves now and each further one on its own scheduler
        pass (the engine pipelines one segment per pass); ``on_done()``
        is called on the pass after the last segment.
        """
        if qp.state != RcQp.READY:
            raise RdmaError(f"QP {qp.qpn} not connected")
        chunks = [data[i:i + self.mtu] for i in range(0, len(data), self.mtu)]
        if not chunks:
            chunks = [b""]
        ctx = wqe.trace_ctx if wqe is not None else None
        rdma_span = (None if ctx is None else
                     self._spans.enter(ctx, "rdma", self.sim._now))
        self._send_segment((0, len(chunks) - 1, chunks, qp, wqe, len(data),
                            remote_addr, rkey, rdma_span, on_done))

    def _send_segment(self, state) -> None:
        (index, final, chunks, qp, wqe, length, remote_addr, rkey, rdma_span,
         on_done) = state
        if index > final or qp.qpn not in self.qps:
            # Sent — or the QP was destroyed mid-message, and nothing
            # more of it leaves.
            if index <= final and rdma_span is not None:
                self._spans.exit(rdma_span, self.sim._now)
            if on_done is not None:
                on_done()
            return
        last = index == final
        frame = self._build_frame(
            qp, chunks[index], index == 0, last, wqe,
            is_write=wqe is not None and wqe.opcode == OP_RDMA_WRITE,
            remote_addr=remote_addr, rkey=rkey, total_length=length,
        )
        segment = _Segment(frame, wqe, last, self.sim._now)
        if last:
            segment.span_id = rdma_span
        qp.outstanding[qp.next_psn] = segment
        qp.next_psn = (qp.next_psn + 1) & 0xFFFFFF
        qp.stats_sent_segments += 1
        self.stats_segments_sent += 1
        self._egress_frame(qp, frame)
        if len(qp.outstanding) == 1:
            self._arm_retransmit_timer(qp)
        self.sim.call_later(0.0, self._send_segment,
                            (index + 1,) + state[1:])

    def _build_frame(self, qp: RcQp, payload: bytes, first: bool, last: bool,
                     wqe: Optional[TxWqeRecord], is_write: bool = False,
                     remote_addr: int = 0, rkey: int = 0,
                     total_length: int = 0) -> Packet:
        opcode = SEGMENT_OPCODE[(WRITE if is_write else 0)
                                | (FIRST if first else 0)
                                | (LAST if last else 0)]
        qp_field = ((ACK_REQUEST << 24 if last else 0)
                    | qp.remote_qpn & 0xFFFFFF)
        psn = qp.next_psn & 0xFFFFFF
        if is_write and first:
            body = BTH_RETH_WIRE.pack(
                opcode, BTH_FLAGS, DEFAULT_PARTITION, qp_field, psn,
                remote_addr, rkey, total_length)
        else:
            body = BTH_WIRE.pack(opcode, BTH_FLAGS, DEFAULT_PARTITION,
                                 qp_field, psn)
        packet = self._frame(qp, body + payload)
        if wqe is not None:
            packet.meta["context_id"] = wqe.context_id
            if wqe.trace_ctx is not None:
                # Ride the frame's metadata so retransmitted copies
                # (Packet.copy preserves meta) stay on the original trace.
                packet.meta["trace_ctx"] = wqe.trace_ctx
        return packet

    @staticmethod
    def _frame(qp: RcQp, body: bytes) -> Packet:
        """A frozen RoCE frame: ``body`` (transport headers + payload)
        and the ICRC behind the QP's Eth/IPv4/UDP head.

        Every field of the head but the two lengths is fixed while the
        QP stays connected, and the layout depends only on the head and
        the BTH opcode (``body[0]``: the AETH/RETH extent), so both are
        built once per (UDP length, opcode).
        """
        udp_length = Udp.HEADER_LEN + len(body) + ICRC_SIZE
        key = (udp_length, body[0])
        cached = qp.frame_heads.get(key)
        if cached is None:
            udp = Udp(49152 + (qp.qpn & 0x3FFF), ROCE_V2_PORT, udp_length)
            ip = Ipv4(qp.local_ip, qp.remote_ip, proto=PROTO_UDP)
            ip.finalize(udp_length)
            head = (Ethernet(qp.local_mac, qp.remote_mac).pack()
                    + ip.pack() + udp.pack())
            cached = qp.frame_heads[key] = (
                head, parse_layout(head + body + _ICRC))
        head, layout = cached
        return Packet.frozen(head + body + _ICRC, layout, {})

    def _arm_retransmit_timer(self, qp: RcQp) -> None:
        # A method bound to the engine, so the timer accounts to the
        # rdma stage whichever stage's dispatch sent the segment.
        self.sim.call_later(self.retransmit_timeout, self._check_retransmit,
                            qp)

    def _check_retransmit(self, qp: RcQp) -> None:
        if not qp.outstanding:
            return
        oldest = next(iter(qp.outstanding.values()))
        age = self.sim._now - oldest.sent_at
        if age + 1e-12 >= self.retransmit_timeout:
            self._retransmit(qp)
            self._arm_retransmit_timer(qp)
        else:
            self.sim.call_later(self.retransmit_timeout - age,
                                self._check_retransmit, qp)

    def _retransmit(self, qp: RcQp) -> None:
        """Go-back-N: resend every outstanding segment."""
        qp.consecutive_retries += 1
        if (self.max_retries is not None
                and qp.consecutive_retries > self.max_retries):
            self.fail_qp(qp, self.SYNDROME_RETRY_EXCEEDED)
            return
        spans = self._spans
        for psn, segment in qp.outstanding.items():
            segment.sent_at = self.sim._now
            qp.stats_retransmits += 1
            self.stats_retransmits += 1
            ctx = segment.frame.meta.get("trace_ctx")
            if ctx is not None:
                spans.event(ctx, f"rdma.retransmit:psn={psn}", self.sim._now)
            self._egress_frame(qp, segment.frame.copy())

    # -- receive ----------------------------------------------------------

    def on_ingress(self, packet: Packet) -> bool:
        """Process a RoCE frame; returns False when it is not for us.

        One read of the BTH: the opcode's class bits, with the AckReq
        bit ORed in, are the ``flags`` the handlers branch on.
        """
        at = (packet.layout or packet.fields())[BTH]
        if at is None:
            return False
        opcode, _flags, _partition, qp_field, psn = BTH_WIRE.unpack_from(
            packet.raw, at)
        qp = self.qps.get(qp_field & 0xFFFFFF)
        if qp is None:
            return False
        flags = OPCODE_CLASS[opcode] | qp_field >> 24 & ACK_REQUEST
        psn &= 0xFFFFFF
        if flags & ACK:
            self._handle_ack(qp, psn)
        elif flags & WRITE:
            self._handle_write(qp, packet, flags, psn)
        else:
            self._handle_data(qp, packet, flags, psn)
        return True

    def _handle_write(self, qp: RcQp, packet: Packet, flags: int,
                      psn: int) -> None:
        """Inbound RDMA WRITE: place payload directly at the target VA.

        No receive descriptor is consumed and no receive completion is
        generated — the one-sided semantics that make WRITE cheap.
        """
        if psn != qp.expected_psn:
            qp.stats_duplicate_segments += 1
            self.stats_duplicate_segments += 1
            self._send_ack(qp)
            return
        raw = packet.raw
        layout = packet.layout
        at = layout[PAYLOAD]
        payload = raw[at:-ICRC_SIZE] if len(raw) - at >= ICRC_SIZE else b""
        if flags & FIRST:
            # The parser consumed a RETH iff the segment was long enough.
            reth_at = layout[BTH] + BTH_WIRE.size
            region = None
            if at > reth_at:
                address, rkey, length = RETH_WIRE.unpack_from(raw, reth_at)
                region = self._regions.get(rkey)
            if region is None or not region.contains(address, length):
                # Protection error: NAK by not advancing; real NICs move
                # the QP to an error state, which software must recover.
                qp.stats_write_protection_errors += 1
                self._send_ack(qp)
                return
            qp.write_region = region
            qp.write_cursor = address
        if qp.write_cursor is None or qp.write_region is None:
            qp.stats_write_protection_errors += 1
            self._send_ack(qp)
            return
        if not qp.write_region.contains(qp.write_cursor, len(payload)):
            qp.stats_write_protection_errors += 1
            self._send_ack(qp)
            return
        qp.expected_psn = (qp.expected_psn + 1) & 0xFFFFFF
        qp.stats_received_segments += 1
        self.stats_segments_received += 1
        qp.stats_writes_received += 1
        if self.dma_write is not None and payload:
            self.inbound_trace_ctx = packet.meta.get("trace_ctx")
            try:
                self.dma_write(qp.write_cursor, payload)
            finally:
                self.inbound_trace_ctx = None
        qp.write_cursor += len(payload)
        if flags & LAST:
            qp.received_msn = (qp.received_msn + 1) & 0xFFFFFF
            qp.write_cursor = None
            qp.write_region = None
        if flags & (ACK_REQUEST | LAST):
            self._send_ack(qp)

    def _handle_data(self, qp: RcQp, packet: Packet, flags: int,
                     psn: int) -> None:
        if psn != qp.expected_psn:
            # Duplicate (retransmission already seen) or out-of-order
            # (a gap after loss).  Either way: re-ack the last good PSN
            # so the sender resynchronizes; do not deliver.
            qp.stats_duplicate_segments += 1
            self.stats_duplicate_segments += 1
            self._send_ack(qp)
            return
        qp.expected_psn = (qp.expected_psn + 1) & 0xFFFFFF
        qp.stats_received_segments += 1
        self.stats_segments_received += 1
        last = flags & LAST != 0
        if last:
            qp.received_msn = (qp.received_msn + 1) & 0xFFFFFF
        raw = packet.raw
        at = packet.layout[PAYLOAD]
        payload = raw[at:-ICRC_SIZE] if len(raw) - at >= ICRC_SIZE else b""
        meta = packet.meta
        self.inbound_trace_ctx = meta.get("trace_ctx")
        try:
            self.deliver_segment(qp, payload,
                                 CQE_FLAG_MSG_LAST if last else 0,
                                 meta.get("context_id", 0),
                                 first=flags & FIRST != 0, last=last)
        finally:
            self.inbound_trace_ctx = None
        if flags & (ACK_REQUEST | LAST):
            self._send_ack(qp)

    def _send_ack(self, qp: RcQp) -> None:
        packet = self._frame(qp, BTH_AETH_WIRE.pack(
            OP_ACK, BTH_FLAGS, DEFAULT_PARTITION, qp.remote_qpn & 0xFFFFFF,
            (qp.expected_psn - 1) & 0xFFFFFF, qp.received_msn))
        self.stats_acks_sent += 1
        self._egress_frame(qp, packet)

    def _handle_ack(self, qp: RcQp, acked_psn: int) -> None:
        self.stats_acks_received += 1
        while qp.outstanding:
            psn = next(iter(qp.outstanding))
            # Handle 24-bit wraparound with a signed window comparison.
            delta = (acked_psn - psn) & 0xFFFFFF
            if delta >= (1 << 23):
                break  # psn is after acked_psn
            segment = qp.outstanding.pop(psn)
            qp.consecutive_retries = 0  # the wire is moving again
            if segment.span_id is not None:
                self._spans.exit(segment.span_id, self.sim._now)
            if segment.is_last and segment.wqe is not None:
                self.complete_send(qp, segment.wqe)

    # -- failure ----------------------------------------------------------

    def fail_qp(self, qp: RcQp, syndrome: int) -> None:
        """Drop ``qp`` to ERR: flush outstanding work, notify software.

        Flushing empties ``qp.outstanding``, so the armed retransmit
        timer sees nothing left and dies on its next check.  Lost
        in-flight messages stay lost — recovery is a software-driven
        reset-and-reconnect through the command unit (Table 4).
        """
        if qp.state == RcQp.ERR:
            return
        spans = self._spans
        for segment in qp.outstanding.values():
            if segment.span_id is not None:
                spans.exit(segment.span_id, self.sim._now)
        qp.outstanding.clear()
        qp.error_syndrome = syndrome
        qp.modify(RcQp.ERR)
        if self.on_qp_error is not None:
            self.on_qp_error(qp, syndrome)
