"""The software NIC driver baseline (§2.2).

This is the conventional design FLD is compared against: descriptor rings
and data buffers live in *host memory*; the CPU writes WQEs and rings
doorbells over PCIe; the NIC DMA-reads descriptors/buffers and DMA-writes
packet data and CQEs back.  It provides:

* :class:`EthQueuePair` — raw Ethernet tx/rx queues (the testpmd data path),
* :class:`RcEndpoint` — a host RDMA RC endpoint (verbs-like post_send /
  message receive), used by the FLD-R clients.

The driver's memory consumption is the quantity Table 3 analyses; its
``memory_footprint`` method reports the same buckets.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional

from ..nic import (
    CQE_FLAG_MSG_LAST,
    Nic,
    OP_ETH_SEND,
    OP_RDMA_SEND,
    OP_RDMA_WRITE,
    RX_DESC_SIZE,
    WQE_FLAG_CSUM_L4,
    WQE_FLAG_LSO,
    WQE_FLAG_SIGNALED,
    WQE_MMIO_BASE,
    WQE_MMIO_STRIDE,
    WQE_SIZE,
)
from ..nic.device import DOORBELL_STRIDE
from ..nic.wqe import CQE, CQE_ERROR, RX_DESC, TX_WQE, CqeRecord
from ..pcie import POSTED
from ..sim import Event, PollWait, Simulator, Store
from ..sim.resources import DELIVERY
from .cpu import CpuCore, HostCpuPort
from .memory import BumpAllocator, HostMemory


#: How often a PMD facing a full SQ re-reads its completions.
TX_POLL = 100e-9

#: The shortest frame a queue pair sends: an Ethernet header.
ETH_HEADER = 14


class QueueFullError(RuntimeError):
    """Raised when a send queue has no free slots."""


class _HostQueue:
    """What a host queue pair and an RC endpoint share: the host memory
    they take (rings and buffers, returned on :meth:`close`), their
    receive buffers, and the one receive dispatcher of a host queue.

    The dispatcher is a serial per-queue loop over the receive CQ: a
    CQE is picked up once it has landed and the previous one is done,
    and the queue's core works ``packet_cost()`` seconds on it (none
    without a core).  The NIC hands each receive CQE's in-flight write
    handle to :meth:`_rx_fused` at issue, which plans the CQE's done
    instant and schedules ONE event for it: PCIe delivery and the core's
    work fold into it.  At done, :meth:`_rx_fused_fire` lands the CQE
    and runs the subclass's receive body, ``_receive(handle)``.
    """

    def __init__(self, driver: "SoftwareDriver", buffer_size: int, core):
        self.driver = driver
        self.sim = driver.sim
        self.buffer_size = buffer_size
        # The core servicing this queue's receive path (None: no cost).
        self.core = core
        self._allocs: List[tuple] = []
        self._closed = False
        self._rx_buffers: Dict[int, int] = {}
        self._pi = 0
        self._spans = self.sim.telemetry.spans
        self._fused_planned = 0.0   # planned end of the dispatch chain
        self._fused_done = 0.0      # actual end (>= planned under repair)
        self._fused_queue = deque()

    def _take(self, size: int) -> int:
        """Allocate host memory, remembered for release on close()."""
        addr = self.driver.allocator.alloc(size)
        self._allocs.append((addr, size))
        return addr

    def close(self) -> None:
        """Destroy the queues through the command unit and return every
        host ring and buffer to the driver allocator.  A CQE still in
        flight lands for no consumer, and the trace contexts stashed for
        WQEs whose doorbells the NIC never took are dropped."""
        if self._closed:
            return
        self._closed = True
        self._destroy(self.driver.nic.cmd)
        for entry in self._fused_queue:
            entry[2] = True
            entry[0].retire()
        self._fused_queue.clear()
        spans = self._spans
        if spans.enabled:
            name, sq = self.driver.nic.name, self.sq
            for index in range(sq.pi, self._pi):
                spans.claim(("wqe", name, sq.qpn, index))
        alloc = self.driver.allocator
        for addr, size in self._allocs:
            alloc.free(addr, size)
        self._allocs.clear()

    def post_rx_buffers(self, count: int) -> None:
        driver = self.driver
        rq = self.rq
        for _ in range(count):
            index = rq.pi
            buffer_addr = self._take(self.buffer_size)
            self._rx_buffers[index % rq.entries] = buffer_addr
            driver.memory.write_local(
                rq.slot_addr(index) - driver.mem_base,
                RX_DESC.pack(buffer_addr, self.buffer_size, 0))
            rq.post(1)

    def _rx_fused(self, handle) -> None:
        """NIC-side CQE issue: plan this CQE's dispatch completion.

        The processing cost is drawn here — CQEs arrive (and are
        consumed) in issue order on the host's down lane, so this is
        the per-queue draw order of a serial dispatcher.
        """
        core = self.core
        cost = 0.0 if core is None else core.packet_cost()
        arrival = handle[0][DELIVERY]
        planned = self._fused_planned
        planned = (planned if planned > arrival else arrival) + cost
        self._fused_planned = planned
        # [handle, cost, committed, fired_early]
        entry = [handle, cost, False, False]
        self._fused_queue.append(entry)
        sim = self.sim
        sim.call_later(planned - sim._now, self._rx_fused_fire, entry)

    def _rx_fused_fire(self, entry) -> None:
        """The per-CQE dispatch event: delivery + processing done.

        Lands the CQE and runs the receive body, then re-drives each
        successor whose event fired early and bailed, in order, until
        one is not done yet: that one fires again when it is.
        """
        if entry[2]:
            return
        queue = self._fused_queue
        if queue[0] is not entry:
            # A lane repair pushed an earlier CQE past our planned
            # time; the head's commit re-drives us in order.
            entry[3] = True
            return
        sim = self.sim
        spans = self._spans
        while True:
            handle = entry[0]
            # The serial dispatcher picks a CQE up once it has landed
            # and the previous one is done.
            started = self._fused_done
            arrival = handle[0][DELIVERY]
            if arrival > started:
                started = arrival
            now = sim._now
            done = started + entry[1]
            if done > now:
                sim.call_later(done - now, self._rx_fused_fire, entry)
                return
            entry[2] = True
            queue.popleft()
            ctx = handle.trace_ctx
            if ctx is not None:
                spans.record(ctx, "host.rx", started, now)
            self._fused_done = now
            handle.commit()
            self._receive(handle)
            if not queue or not queue[0][3]:
                return
            entry = queue[0]


class EthQueuePair(_HostQueue):
    """A raw Ethernet send/receive queue pair over host-memory rings."""

    def __init__(self, driver: "SoftwareDriver", vport: int,
                 sq_entries: int = 1024, rq_entries: int = 1024,
                 buffer_size: int = 2048, use_mmio_wqe: bool = False,
                 signal_interval: int = 16, core=None,
                 register_default: bool = True):
        # Multi-queue apps (RSS experiments) give each queue its own core.
        super().__init__(driver, buffer_size,
                         core if core is not None else driver.core)
        self.use_mmio_wqe = use_mmio_wqe
        # Selective completion signalling (§6): request a CQE only every
        # N WQEs; one completion retires the whole preceding batch.
        self.signal_interval = signal_interval
        self._tx_completed = 0
        self._tx_waiters: List[tuple] = []   # parked (slots, PollWait)
        self._vport = vport
        self._registered_default = register_default
        cmd = driver.nic.cmd

        self.tx_cq = cmd.alloc_cq(self._take(sq_entries * 64), sq_entries)
        self.rx_cq = cmd.alloc_cq(self._take(rq_entries * 64), rq_entries)
        self.sq = cmd.alloc_sq(self._take(sq_entries * WQE_SIZE),
                               sq_entries, self.tx_cq, vport=vport)
        #: Free SQ slots, judged by retired (signalled) completions;
        #: send takes one, a retired completion recounts them.
        self.tx_free = self.sq.entries
        self.rq = cmd.alloc_rq(self._take(rq_entries * 16), rq_entries,
                               self.rx_cq)
        if register_default:
            cmd.set_default_queue(vport, self.rq)
        # Transmit buffers: one slot per WQE (DPDK-style worst case).
        self._tx_buffers = [self._take(buffer_size)
                            for _ in range(sq_entries)]
        self.on_receive: Optional[Callable[[bytes, CqeRecord], None]] = None
        self.received = Store(self.sim, name="ethqp.rx")
        self.stats_tx = 0
        self.stats_rx = 0
        # The receive dispatcher's events attribute to the rx profiler
        # stage.
        self.profile_tag = f"ethqp{self.sq.qpn}.rx"
        self.rx_cq.fused_rx = self._rx_fused
        self.tx_cq.on_cqe = self._retire

    def _destroy(self, cmd) -> None:
        # The default route, the RQ, the SQ and both CQs.
        if self._registered_default:
            cmd.clear_default_queue(self._vport)
        cmd.destroy(self.rq)
        cmd.destroy(self.sq)
        cmd.destroy(self.rx_cq)
        cmd.destroy(self.tx_cq)

    # -- transmit ----------------------------------------------------------
    def park_for_tx_space(self, func: Callable, arg=None,
                          slots: int = 1) -> None:
        """The SQ is short of ``slots``: run ``func(arg)`` at the poll (a
        PMD spins every :data:`TX_POLL` from now) that first sees them
        free.  ``func`` re-reads :attr:`tx_free` — another sender may
        have polled first — and parks again if it lost."""
        self._tx_waiters.append(
            (slots, PollWait(self.sim, TX_POLL, func, arg)))

    def wait_for_tx_space(self, slots: int = 1):
        """Generator: spin (as a PMD would) until the SQ has room."""
        while self.tx_free < slots:
            polled = Event(self.sim)
            self.park_for_tx_space(polled.succeed, slots=slots)
            yield polled

    def send_tso(self, frame: bytes, mss: int,
                 signaled: bool = False) -> None:
        """Post one oversized TCP frame; the NIC segments it at ``mss``.

        The host pays ONE descriptor and one doorbell for the whole
        burst — the CPU saving TSO exists for.
        """
        self.send(frame, signaled, extra_flags=WQE_FLAG_LSO | WQE_FLAG_CSUM_L4,
                  mss=mss)

    def send(self, frame: bytes, signaled: bool = False, trace_ctx=None,
             extra_flags: int = 0, mss: int = 0) -> None:
        """Queue one frame for transmission (CPU side, non-blocking);
        ``extra_flags`` and ``mss`` are :meth:`send_tso`'s."""
        if self.tx_free < 1:
            raise QueueFullError(
                f"SQ {self.sq.qpn} full: use wait_for_tx_space()"
            )
        length = len(frame)
        if not ETH_HEADER <= length <= self.buffer_size:
            # Refused before it takes a slot: the next send rings no hole.
            raise ValueError(
                f"frame of {length} B: a frame is an Ethernet header "
                f"({ETH_HEADER} B) up to its buffer ({self.buffer_size} B)"
            )
        sq = self.sq
        index = self._pi
        self._pi = index + 1
        self.tx_free -= 1
        buffer_addr = self._tx_buffers[index % sq.entries]
        if (index + 1) % self.signal_interval == 0:
            signaled = True
        flags = (WQE_FLAG_SIGNALED if signaled else 0) | extra_flags
        wqe = TX_WQE.pack(OP_ETH_SEND, flags, index & 0xFFFF, sq.qpn,
                          buffer_addr, length, 0, 0, 1, 0, 0, mss)
        driver = self.driver
        driver.memory.write_local(buffer_addr - driver.mem_base, frame)
        if self.use_mmio_wqe:
            # WQE-by-MMIO: push the whole descriptor through the doorbell
            # window, saving the NIC's descriptor DMA read (§6).
            driver.fabric.post_write(
                driver.cpu_port, driver.nic_bar_base + WQE_MMIO_BASE
                + sq.qpn * WQE_MMIO_STRIDE, wqe,
                trace_ctx=trace_ctx, trace_stage="pcie.doorbell",
                on_done=POSTED)
        else:
            if trace_ctx is not None:
                # The NIC fetches this WQE from host memory later; park
                # the context for its fetch loop to claim.
                self._spans.stash(
                    ("wqe", driver.nic.name, sq.qpn, index), trace_ctx)
            driver.memory.write_local(
                sq.slot_addr(index) - driver.mem_base, wqe
            )
            driver.ring_doorbell(sq.qpn, index + 1, trace_ctx=trace_ctx)
        self.stats_tx += 1

    def _retire(self, cqe: bytes, _ctx) -> None:
        # Completions are cumulative under selective signalling: a CQE
        # for index i retires everything up to i (16-bit wrap aware).
        if self._closed:
            return
        base = self._tx_completed & ~0xFFFF
        completed = base | CQE.unpack_from(cqe)[2]   # the WQE counter
        if completed < self._tx_completed:
            completed += 1 << 16
        self._tx_completed = completed = completed + 1
        space = self.tx_free = self.sq.entries - (self._pi - completed)
        waiters = self._tx_waiters
        if waiters:
            self._tx_waiters = [w for w in waiters if w[0] > space]
            for slots, wait in waiters:
                if slots <= space:
                    wait.wake()

    # -- receive -----------------------------------------------------------

    def _receive(self, handle) -> None:
        """Hand one completed packet to the application and recycle its
        buffer at the ring tail.  ``handle`` is the CQE's landed write:
        its bytes, trace context and frame (the NIC's ``(bytes,
        layout)``, whose layout the record keeps if the frame read back
        is those bytes).  An error CQE only recycles."""
        fields = CQE.unpack_from(handle.data)
        # fields[0] is the opcode, [2] the WQE counter, [4] the length.
        rq = self.rq
        entries = rq.entries
        slot = fields[2] % entries
        buffers = self._rx_buffers
        buffer_addr = buffers[slot]
        driver = self.driver
        memory = driver.memory
        received = fields[0] != CQE_ERROR
        if received:
            data = memory.read_local(buffer_addr - driver.mem_base,
                                     fields[4])
        # The buffer moves to the ring tail: its own slot while the ring
        # is kept full, as the datapath keeps it.
        tail = rq.pi % entries
        if tail != slot:
            del buffers[slot]
            buffers[tail] = buffer_addr
        memory.write_local(
            rq.ring_addr + tail * RX_DESC_SIZE - driver.mem_base,
            RX_DESC.pack(buffer_addr, self.buffer_size, 0))
        rq.post(1)
        if not received:
            return
        frame = handle.frame
        cqe = CqeRecord(fields + (handle.trace_ctx,
                                  frame[1] if frame is not None
                                  and frame[0] == data else None))
        self.stats_rx += 1
        if self.on_receive is not None:
            self.on_receive(data, cqe)
        else:
            self.received.try_put((data, cqe))


class RcEndpoint(_HostQueue):
    """A host-side RDMA RC endpoint: post_send + message reception."""

    def __init__(self, driver: "SoftwareDriver", vport: int,
                 local_mac, local_ip, sq_entries: int = 1024,
                 rq_entries: int = 1024, buffer_size: int = 2048):
        super().__init__(driver, buffer_size, driver.core)
        cmd = driver.nic.cmd
        self.cq = cmd.alloc_cq(self._take(sq_entries * 64), sq_entries)
        self.rx_cq = cmd.alloc_cq(self._take(rq_entries * 64), rq_entries)
        self.rq = cmd.alloc_rq(self._take(rq_entries * 16), rq_entries,
                               self.rx_cq)
        self.qp = cmd.alloc_rc_qp(
            self._take(sq_entries * WQE_SIZE), sq_entries, self.cq,
            self.rq, vport, local_mac, local_ip,
        )
        self.sq = self.qp.sq
        #: Bytes one send or write may carry: its SQ slot's buffer.
        self.tx_buffer_size = max(buffer_size, 16 * 1024)
        self._tx_buffers = [self._take(self.tx_buffer_size)
                            for _ in range(sq_entries)]
        self._send_waiters: Dict[int, Event] = {}
        self.messages = Store(self.sim, name=f"rc{self.qp.qpn}.messages")
        self._assembly: List[bytes] = []
        self.stats_messages_sent = 0
        self.stats_messages_received = 0
        # The receive dispatcher's events attribute to the rx profiler
        # stage.
        self.profile_tag = f"rc{self.qp.qpn}.rx"
        self.rx_cq.fused_rx = self._rx_fused
        self.cq.on_cqe = self._tx_completion

    @property
    def qpn(self) -> int:
        return self.qp.qpn

    def connect(self, remote_mac, remote_ip, remote_qpn: int) -> None:
        """Walk the QP to RTS against the remote (verbs state machine)."""
        self.driver.nic.cmd.connect_qp(self.qp, remote_mac, remote_ip,
                                       remote_qpn)

    def _destroy(self, cmd) -> None:
        # The QP, the RQ and both CQs.
        cmd.destroy(self.qp)
        cmd.destroy(self.rq)
        cmd.destroy(self.rx_cq)
        cmd.destroy(self.cq)

    def register_mr(self, size: int):
        """Register a host buffer as an RDMA WRITE target.

        Returns (fabric address, rkey, read) where ``read(n)`` fetches the
        buffer's current contents for verification.
        """
        driver = self.driver
        base = self._take(size)
        region = driver.nic.rdma.register_mr(base, size)

        def read(nbytes: int = size, offset: int = 0) -> bytes:
            return driver.memory.read_local(
                base - driver.mem_base + offset, nbytes)

        return base, region.rkey, read

    def post_write(self, data: bytes, remote_addr: int, rkey: int,
                   signaled: bool = True, trace_ctx=None) -> Event:
        """One-sided RDMA WRITE of ``data`` to (remote_addr, rkey)."""
        return self._post(OP_RDMA_WRITE, data, signaled, trace_ctx,
                          remote_addr, rkey)

    def post_send(self, message: bytes, signaled: bool = True,
                  trace_ctx=None) -> Event:
        """Send a message; the returned event fires on the remote ack."""
        done = self._post(OP_RDMA_SEND, message, signaled, trace_ctx)
        self.stats_messages_sent += 1
        return done

    def _post(self, opcode: int, data: bytes, signaled: bool, trace_ctx,
              remote_addr: int = 0, rkey: int = 0) -> Event:
        """Write ``data`` and its WQE to the next SQ slot and ring the
        doorbell; the returned event fires on the send's completion."""
        length = len(data)
        if length > self.tx_buffer_size:
            raise ValueError(f"{length} B exceeds the send buffer "
                             f"of {self.tx_buffer_size} B")
        qpn = self.qp.qpn
        index = self._pi
        self._pi += 1
        buffer_addr = self._tx_buffers[index % self.sq.entries]
        driver = self.driver
        driver.memory.write_local(buffer_addr - driver.mem_base, data)
        wqe = TX_WQE.pack(opcode, WQE_FLAG_SIGNALED if signaled else 0,
                          index & 0xFFFF, qpn, buffer_addr, length, 0, 0,
                          1, remote_addr, rkey, 0)
        if trace_ctx is not None:
            self._spans.stash(("wqe", driver.nic.name, qpn, index),
                              trace_ctx)
        driver.memory.write_local(self.sq.slot_addr(index) - driver.mem_base,
                                  wqe)
        driver.ring_doorbell(qpn, index + 1, trace_ctx=trace_ctx)
        done = Event(self.sim)
        if signaled:
            self._send_waiters[index & 0xFFFF] = done
        else:
            done.succeed()
        return done

    def _tx_completion(self, data: bytes, ctx) -> None:
        if self._closed:
            return
        cqe = CqeRecord(CQE.unpack_from(data) + (ctx, None))
        waiter = self._send_waiters.pop(cqe.wqe_counter, None)
        if waiter is not None:
            waiter.succeed(cqe)

    def _receive(self, handle) -> None:
        """One landed receive CQE: a segment's data is read and its
        buffer recycled; the last segment of a message completes it."""
        cqe = CqeRecord(CQE.unpack_from(handle.data)
                        + (handle.trace_ctx, None))
        if cqe.opcode == CQE_ERROR:     # a segment longer than its buffer
            self._recycle(cqe.wqe_counter)
            return
        driver = self.driver
        slot = cqe.wqe_counter % self.rq.entries
        buffer_addr = self._rx_buffers[slot]
        data = driver.memory.read_local(
            buffer_addr - driver.mem_base, cqe.byte_count
        )
        self._recycle(cqe.wqe_counter)
        self._assembly.append(data)
        if cqe.flags & CQE_FLAG_MSG_LAST:
            message = b"".join(self._assembly)
            self._assembly = []
            self.stats_messages_received += 1
            if cqe.trace_ctx is not None:
                self._spans.end_trace(cqe.trace_ctx, self.sim._now)
            self.messages.try_put((message, cqe))

    def _recycle(self, index: int) -> None:
        driver = self.driver
        buffer_addr = self._rx_buffers.pop(index % self.rq.entries)
        new_index = self.rq.pi
        self._rx_buffers[new_index % self.rq.entries] = buffer_addr
        driver.memory.write_local(
            self.rq.slot_addr(new_index) - driver.mem_base,
            RX_DESC.pack(buffer_addr, self.buffer_size, 0))
        self.rq.post(1)


class SoftwareDriver:
    """Host-resident driver instance for one NIC."""

    def __init__(self, sim: Simulator, fabric, nic: Nic,
                 memory: HostMemory, mem_base: int, nic_bar_base: int,
                 core: Optional[CpuCore] = None, name: str = "cpu"):
        self.sim = sim
        self.fabric = fabric
        self.nic = nic
        self.memory = memory
        self.mem_base = mem_base
        self.nic_bar_base = nic_bar_base
        self.core = core
        self.cpu_port = HostCpuPort(name)
        fabric.attach(self.cpu_port)
        self.allocator = BumpAllocator(mem_base + (1 << 20), (1 << 30))

    # -- PCIe initiators ---------------------------------------------------

    def ring_doorbell(self, qpn: int, pi: int, trace_ctx=None) -> None:
        self.fabric.post_write(
            self.cpu_port, self.nic_bar_base + qpn * DOORBELL_STRIDE,
            pi.to_bytes(4, "big"),
            trace_ctx=trace_ctx, trace_stage="pcie.doorbell",
            on_done=POSTED,
        )

    # -- factories ----------------------------------------------------------

    def create_eth_qp(self, vport: int, **kwargs) -> EthQueuePair:
        return EthQueuePair(self, vport, **kwargs)

    def create_rc_endpoint(self, vport: int, local_mac, local_ip,
                           **kwargs) -> RcEndpoint:
        return RcEndpoint(self, vport, local_mac, local_ip, **kwargs)

    # -- memory accounting (Table 3's software column, measured) ------------

    def memory_footprint(self) -> Dict[str, int]:
        """Bytes the driver has allocated for NIC communication."""
        return {"allocated": self.allocator.used}
