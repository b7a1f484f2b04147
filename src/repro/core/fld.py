"""FlexDriver top level: the on-accelerator NIC data-plane driver (§5).

One :class:`FlexDriver` is a PCIe endpoint exposing the BAR of
:mod:`repro.core.bar`; it composes the Tx and Rx ring managers, the
accelerator-facing streams, the credit interface and the error channel.

Data flow:

* **transmit** — the accelerator calls :meth:`send_then` (credits permitting);
  the Tx manager buffers the payload on-die and rings the NIC; the NIC's
  PCIe reads of descriptors and data arrive at :meth:`handle_read` and are
  answered from compressed state on the fly.
* **receive** — the NIC DMA-writes packet data and CQEs into the BAR
  (:meth:`handle_write`); FLD decodes the CQE, streams the packet with
  metadata to the accelerator after its pipeline latency, and recycles
  buffers/descriptors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Tuple

from ..nic.wqe import (
    CQE,
    CQE_ERROR,
    CQE_RECV_COMPLETION,
    CQE_SEND_COMPLETION,
    CQE_SIZE,
    CqeRecord,
    OP_ETH_SEND,
)
from ..pcie import POSTED, PcieEndpoint, PcieError
from ..sim import Simulator
from ..sim.resources import DELIVERY
from ..telemetry.profile import owner_tag
from .axis import AxisMetadata, AxisStream
from .bar import (CQ_REGION, CQ_SPAN, FLD_BAR_SIZE, PI_REGION,
                  RX_BUFFER_REGION, TX_DATA_REGION, TX_DATA_SPAN,
                  TX_RING_REGION, TX_RING_SPAN)
from .buffers import BufferPool
from .descriptors import COMPRESSED_CQE_SIZE
from .errors import ErrorReporter, FldError
from .rx import RxError, RxRingManager
from .tx import TxRingManager


@dataclass
class FldConfig:
    """FLD sizing, defaulting to the prototype of §6: two transmit
    queues, 256 KiB transmit and receive buffers, a 4096-entry shared
    descriptor pool, logic at 250 MHz."""

    tx_buffer_bytes: int = 256 * 1024
    rx_buffer_bytes: int = 256 * 1024
    chunk_size: int = 256
    descriptor_pool_size: int = 4096
    clock_hz: float = 250e6
    # End-to-end latency through FLD's internal pipeline, each direction
    # (~50 FPGA cycles of decode/steering/SRAM access).
    pipeline_latency: float = 200e-9
    rx_stream_depth: int = 256
    cq_entries: int = 1024          # per completion ring, for accounting

    def cycles(self, count: float) -> float:
        return count / self.clock_hz


class FlexDriver(PcieEndpoint):
    """The FLD hardware module."""

    # CQ index space: transmit CQs at 0..15, receive CQs at 16+.
    RX_CQ_BASE = 16

    def __init__(self, sim: Simulator, fabric, name: str = "fld",
                 config: Optional[FldConfig] = None, bar_base: int = 0,
                 link_config=None):
        super().__init__(name)
        self.sim = sim
        self.config = config or FldConfig()
        self.bar_base = bar_base
        fabric.attach(self, link_config)
        tx_pool = BufferPool(self.config.tx_buffer_bytes,
                             self.config.chunk_size, name=f"{name}.txpool")
        self.tx = TxRingManager(
            sim, tx_pool, self.config.descriptor_pool_size,
            mmio_writer=self._mmio_write, bar_base=bar_base,
        )
        self.rx = RxRingManager(
            sim, self.config.rx_buffer_bytes,
            mmio_writer=self._mmio_write, emit=self._emit_rx,
        )
        self.rx_stream = AxisStream(sim, f"{name}.rx_stream",
                                    depth=self.config.rx_stream_depth)
        self.errors = ErrorReporter(sim)
        # cq index -> ("tx", _) or ("rx", binding_id)
        self._cq_route: Dict[int, Tuple[str, int]] = {}
        # Match-action layer (repro.prog): the engine is created lazily
        # at first program attach — an FLD that never loads a program
        # never pays for one.  vport_tx_routes maps an eswitch vPort to
        # the tx queue bound for it, resolving redirect verdicts.
        self.prog = None
        self.vport_tx_routes: Dict[int, int] = {}
        # Chunks and descriptor slots promised to sends that passed the
        # resource check but whose pipeline-latency submission has not
        # landed yet: a send holds one slot however many chunks it spans.
        self._pending_chunks = 0
        self._pending_sends = 0
        self.stats_cqe_writes = 0
        self.stats_tx_packets = 0
        self.stats_rx_stream_pushes = 0
        # Counts and probes are sampled only at export time (§5.2's
        # translation tables and pools cost nothing to watch).
        tele = sim.telemetry
        self._tracer = tele.tracer
        self._spans = tele.spans
        # Profiler stage tags: the tx and rx engines account separately.
        # FLD's own continuations are the rx engine's; a send's submit
        # files under the tx engine (``_Submit``).
        prof = sim.profiler
        self._ptag_tx = f"{name}.tx"
        self.profile_tag = f"{name}.rx"
        if prof.enabled:
            prof.declare(self._ptag_tx, "fld.tx")
            prof.declare(self.profile_tag, "fld.rx")
        if tele.enabled:
            tele.register_counters(f"fld.{name}", lambda: {
                "tx.packets": self.stats_tx_packets,
                "tx.bytes": self.stats_tx_bytes,
                "cqe_writes": self.stats_cqe_writes,
                "rx.stream_pushes": self.stats_rx_stream_pushes,
            })
            tele.register_probe(f"fld.{name}.xlt.descriptors",
                                self.tx.descriptors.cuckoo_stats)
            tele.register_probe(f"fld.{name}.xlt.data",
                                self.tx.data_xlt.cuckoo_stats)
            tele.register_probe(f"fld.{name}.tx", lambda: {
                "wqe_reads": self.tx.stats_wqe_reads,
                "data_read_bytes": self.tx.stats_data_read_bytes,
                "free_chunks": self.tx.buffers.free_chunks,
                "free_descriptor_slots": self.tx.descriptors.free_slots,
            })
            tele.register_probe(f"fld.{name}.rx", lambda: {
                "cqes": self.rx.stats_cqes,
                "sram_writes": self.rx.stats_sram_writes,
            })

    @property
    def stats_tx_bytes(self) -> int:
        """Payload bytes submitted, as an egress program left them."""
        return self.tx.stats_tx_bytes

    # ------------------------------------------------------------------
    # Configuration (called by the FLD runtime library, §5.3)
    # ------------------------------------------------------------------

    def bind_tx_queue(self, queue_id: int, qpn: int, entries: int,
                      doorbell_addr: int, mmio_addr: int, cq_index: int,
                      use_mmio: bool = True, opcode: int = OP_ETH_SEND,
                      credits: Optional[int] = None,
                      vport: Optional[int] = None) -> None:
        self.tx.add_queue(queue_id, qpn, entries, doorbell_addr, mmio_addr,
                          use_mmio=use_mmio, credits=credits, opcode=opcode)
        self._cq_route[cq_index] = ("tx", queue_id)
        if vport is not None:
            self.vport_tx_routes[vport] = queue_id

    def bind_rx_queue(self, binding_id: int, cq_index: int,
                      ring_entries: int, strides_per_buffer: int,
                      stride_size: int, rq_doorbell_addr: int) -> int:
        """Returns the BAR offset of the binding's buffer slice."""
        offset = self.rx.add_binding(
            binding_id, ring_entries, strides_per_buffer, stride_size,
            rq_doorbell_addr,
        )
        self._cq_route[cq_index] = ("rx", binding_id)
        return RX_BUFFER_REGION + offset

    def unbind_tx_queue(self, queue_id: int) -> None:
        """Tear down a tx queue binding and its CQE route."""
        self.tx.remove_queue(queue_id)
        for cq_index, route in list(self._cq_route.items()):
            if route == ("tx", queue_id):
                del self._cq_route[cq_index]
        for vport, routed in list(self.vport_tx_routes.items()):
            if routed == queue_id:
                del self.vport_tx_routes[vport]

    def prog_engine(self):
        """The match-action engine, created on first use (firmware-only)."""
        if self.prog is None:
            from ..prog.engine import ProgEngine
            self.prog = ProgEngine(self)
        return self.prog

    def unbind_rx_queue(self, binding_id: int) -> None:
        """Tear down an rx binding, releasing its SRAM slice."""
        self.rx.remove_binding(binding_id)
        for cq_index, route in list(self._cq_route.items()):
            if route == ("rx", binding_id):
                del self._cq_route[cq_index]

    # ------------------------------------------------------------------
    # Accelerator-facing interface (§5.5)
    # ------------------------------------------------------------------

    def try_send(self, data: bytes, meta: AxisMetadata) -> bool:
        """Non-blocking transmit; False when the queue has no credit or
        ring slot, or the pools cannot cover the packet.

        Drop-capable accelerators use this directly (§5.5 lets them shed
        load); others use :meth:`send_then` to wait for credit.
        """
        tx = self.tx
        state = tx.queue(meta.queue_id)
        length = len(data)
        needed = -(-length // tx.buffers.chunk_size) or 1
        if not (state.pi - state.ci < state.entries
                and len(tx.buffers._free) - self._pending_chunks >= needed
                and len(tx.descriptors._free) > self._pending_sends
                and tx.credits.try_consume(meta.queue_id, 1)):
            return False
        self._pending_chunks += needed
        self._pending_sends += 1
        self.sim.call_later(self.config.pipeline_latency,
                            _Submit((self, data, meta, needed, length,
                                     self.sim._now)).land)
        return True

    def send_then(self, data: bytes, meta: AxisMetadata, func,
                  arg=None) -> None:
        """Wait for a credit, then transmit; ``func(arg)`` runs once the
        pipeline has taken the packet.

        The caller is held only for the pipeline's *occupancy* (the
        datapath is 512 bits wide at the FLD clock, §9's 100 Gbps
        figure); the pipeline *latency* to the doorbell is modelled
        without blocking, so back-to-back sends stream at line rate.

        The chain — credit, buffers, occupancy — holds the *sender*, so
        its waits are a :class:`_Send`'s, which files under the owner of
        ``func``.
        """
        entry = _Send((self, data, meta, func, arg, self.sim._now,
                       len(data)))
        if self.tx.credits.try_consume(meta.queue_id, 1):
            entry.credited()
        else:
            self.tx.credits.wait(meta.queue_id, 1, _Send.credited, entry)

    # ------------------------------------------------------------------
    # PCIe BAR handlers
    # ------------------------------------------------------------------

    def handle_read(self, offset: int, length: int) -> bytes:
        """A NIC read of the virtual tx ring (WQEs generated from the
        compressed pool) or of a queue's virtual data window (gathered
        through the data translation table)."""
        tx = self.tx
        if offset < TX_DATA_REGION:
            offset -= TX_RING_REGION
            return tx.handle_ring_read(offset // TX_RING_SPAN,
                                       offset % TX_RING_SPAN, length)
        if offset < RX_BUFFER_REGION:
            offset -= TX_DATA_REGION
            tx.stats_data_read_bytes += length
            return tx.data_xlt.read_virtual(offset // TX_DATA_SPAN,
                                            offset % TX_DATA_SPAN, length)
        raise PcieError(f"{self.name}: unreadable BAR offset {offset:#x}")

    def handle_write(self, offset: int, data: bytes) -> None:
        """A NIC write: packet data into receive SRAM, a CQE, or a
        producer-index mirror (accepted, uninterpreted)."""
        if RX_BUFFER_REGION <= offset < CQ_REGION:
            rx = self.rx
            offset -= RX_BUFFER_REGION
            end = offset + len(data)
            if end > rx.capacity_bytes:
                raise RxError(f"rx buffer write beyond SRAM: {offset:#x}")
            rx._sram[offset:end] = data
            rx.stats_sram_writes += 1
            return
        if CQ_REGION <= offset < PI_REGION:
            self._on_cqe_write((offset - CQ_REGION) // CQ_SPAN, data)
            return
        if PI_REGION <= offset < FLD_BAR_SIZE:
            return
        raise PcieError(f"{self.name}: unwritable BAR offset {offset:#x}")

    def install_rx_fastpath(self, cq, cq_index: int) -> None:
        """Fuse the NIC's rx-CQE delivery with the rx pipeline hop.

        The CQE's PCIe arrival event and the rx engine's
        pipeline-latency push collapse into one.  The NIC hands over the
        CQE write's :class:`~repro.pcie.fabric.DeferredWrite`; its bytes
        are the ones that will land, and they are decoded at issue time
        (the packet data's write has already delivered — the NIC posts
        the CQE from that write's completion callback, so the receive
        SRAM holds the bytes).  A single event at arrival + pipeline
        latency pushes the packet onto the stream, and — when a buffer
        closes — recycle doorbells issue from one continuation at the
        CQE's arrival instant.
        """
        cq.fused_rx = partial(self._rx_cqe_fused, cq_index)

    def _rx_cqe_fused(self, cq_index: int, handle) -> None:
        cqe = CqeRecord(CQE.unpack_from(handle.data)
                        + (handle.trace_ctx, None))
        route = self._cq_route.get(cq_index)
        if (route is None or route[0] != "rx"
                or cqe.opcode != CQE_RECV_COMPLETION
                or self.rx.prog_hook is not None):
            # Rare/slow cases (unbound ring, error CQEs, match-action
            # programs): land the write in its own event at its
            # arrival; _on_cqe_write handles it from the bytes.
            self.sim.call_later(handle[0][DELIVERY] - self.sim._now,
                                self._rx_cqe_arrive, handle)
            return
        self.stats_cqe_writes += 1
        recycles: list = []
        self.rx.deliver(
            route[1], cqe, partial(self._emit_rx_fused, handle),
            lambda addr, payload: recycles.append((addr, payload)),
            handle.frame)
        if recycles:
            # Recycle doorbells must be *issued* at the CQE's arrival
            # instant, not merely keyed there: an early reservation
            # carries an early sequence number, which reorders
            # same-instant ties on the NIC side (observable when the
            # receive inbox is dropping).  Buffers close on a fraction
            # of CQEs under MPRQ, so this event is the exception, not
            # the per-packet cost.
            self.sim.call_later(handle[0][DELIVERY] - self.sim._now,
                                handle.post_on_arrival, (self, recycles))

    def _rx_cqe_arrive(self, handle) -> None:
        """Fallback continuation: land a deferred CQE write as the
        fabric's own delivery event would."""
        sim = self.sim
        if handle[0][DELIVERY] > sim._now:
            sim.call_later(handle[0][DELIVERY] - sim._now,
                           self._rx_cqe_arrive, handle)
            return
        handle.commit()

    def _emit_rx_fused(self, handle, data: bytes, meta: AxisMetadata) -> None:
        self.stats_rx_stream_pushes += 1
        sim = self.sim
        done = handle[0][DELIVERY] + self.config.pipeline_latency
        sim.call_later(done - sim._now, self._rx_push_fused,
                       (handle, data, meta))

    def _rx_push_fused(self, entry) -> None:
        handle, data, meta = entry
        sim = self.sim
        done = handle[0][DELIVERY] + self.config.pipeline_latency
        if done > sim._now:
            # Shared-lane arbitration repaired the CQE's arrival after
            # this continuation was scheduled; fire again on time.
            sim.call_later(done - sim._now, self._rx_push_fused, entry)
            return
        handle.retire()
        ctx = meta.trace_ctx
        if ctx is not None:
            self._spans.record(ctx, "fld.rx", handle[0][DELIVERY], sim._now)
            meta.trace_enqueued = sim._now
        self.rx_stream.push(data, meta)

    def _on_cqe_write(self, cq_index: int, data: bytes) -> None:
        if len(data) < CQE_SIZE:
            raise PcieError(f"{self.name}: short CQE write ({len(data)} B)")
        self.stats_cqe_writes += 1
        # The trace context rides the CQE's write TLP side band: the 64 B
        # on the wire carry no room for it.
        cqe = CqeRecord(CQE.unpack_from(data)
                        + (self.fabric.inbound_trace_ctx, None))
        route = self._cq_route.get(cq_index)
        if route is None:
            self.errors.report(FldError.CQE_ERROR, cq_index,
                               detail="CQE on unbound completion ring")
            return
        if cqe.opcode == CQE_ERROR:
            self.errors.report(FldError.CQE_ERROR, cq_index, cqe.syndrome)
            return
        kind, binding = route
        if kind == "tx":
            if cqe.opcode == CQE_SEND_COMPLETION:
                self.tx.on_send_completion(cqe.qpn, cqe.wqe_counter)
        else:
            if cqe.opcode == CQE_RECV_COMPLETION:
                self.rx.on_recv_completion(binding, cqe)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _mmio_write(self, address: int, data: bytes) -> None:
        # The tx manager parks the submission's trace context out-of-band
        # (the writer signature is frozen); rx recycle doorbells leave it
        # None and go untraced.
        self.fabric.post_write(self, address, data,
                               trace_ctx=self.tx.outbound_trace_ctx,
                               trace_stage="pcie.doorbell", on_done=POSTED)

    def _emit_rx(self, data: bytes, meta: AxisMetadata) -> None:
        self.stats_rx_stream_pushes += 1
        self.sim.call_later(self.config.pipeline_latency, self._rx_push,
                            (data, meta, self.sim._now))

    def _rx_push(self, entry) -> None:
        data, meta, started = entry
        ctx = meta.trace_ctx
        if ctx is not None:
            now = self.sim._now
            self._spans.record(ctx, "fld.rx", started, now)
            meta.trace_enqueued = now
        self.rx_stream.push(data, meta)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def on_die_memory(self) -> Dict[str, int]:
        """Bytes of on-die SRAM in use, by component (cf. Table 3)."""
        memory = {}
        memory.update(self.tx.memory_bytes())
        memory.update(self.rx.memory_bytes())
        memory["cq_storage"] = (
            len(self._cq_route) * self.config.cq_entries
            * COMPRESSED_CQE_SIZE
        )
        memory["total"] = sum(memory.values())
        return memory


# -- a send's records: the stages of send_then/try_send, each filing
# under whoever the stage holds.  Each computes its own bookkeeping: the
# payload is measured once when the send starts and its chunk count once
# at admission, and both ride the record to the submit; a delay of n FLD
# cycles is ``n / clock_hz`` (``FldConfig.cycles``' float, with no
# frame).


class _Send(tuple):
    """``(fld, data, meta, func, arg, started, length[, needed])``: a
    send that holds its sender, so its waits file under the owner of the
    sender's continuation ``func``."""

    __slots__ = ()

    @property
    def profile_tag(self) -> str:
        return owner_tag(self[3])

    def credited(self) -> None:
        """Admission: wait until the pools cover the packet — its
        chunks and one descriptor slot — beyond what earlier admitted
        sends have promised, then hold the sender for the pipeline's
        occupancy."""
        fld, data, meta, func, arg, wait_started, length = self
        sim = fld.sim
        tx = fld.tx
        needed = -(-length // tx.buffers.chunk_size) or 1
        if not (len(tx.buffers._free) - fld._pending_chunks >= needed
                and len(tx.descriptors._free) > fld._pending_sends):
            # Buffers or descriptor slots are short: look again shortly.
            sim.call_later(16 / fld.config.clock_hz, self.credited)
            return
        now = sim._now
        if meta.trace_ctx is not None and now > wait_started:
            fld._spans.record(meta.trace_ctx, "fld.tx", wait_started, now,
                              kind="queue")
        fld._pending_chunks += needed
        fld._pending_sends += 1
        sim.call_later((length // 64 or 1) / fld.config.clock_hz,
                       _Send((fld, data, meta, func, arg, now, length,
                              needed)).occupied)

    def occupied(self) -> None:
        """The sender is free: the submit lands one pipeline latency
        from now, and ``func(arg)`` resumes the sender."""
        fld, data, meta, func, arg, started, length, needed = self
        fld.sim.call_later(fld.config.pipeline_latency,
                           _Submit((fld, data, meta, needed, length,
                                    started)).land)
        func(arg)


class _Submit(tuple):
    """``(fld, data, meta, needed, length, started)``: a send in FLD's
    tx pipeline, filed under the tx engine."""

    __slots__ = ()

    @property
    def profile_tag(self) -> str:
        return self[0]._ptag_tx

    def land(self) -> None:
        fld, data, meta, needed, length, started = self
        fld._pending_chunks -= needed
        fld._pending_sends -= 1
        if meta.trace_ctx is not None:
            fld._spans.record(meta.trace_ctx, "fld.tx", started,
                              fld.sim._now)
        if fld.tx.submit(meta.queue_id, data, meta, needed, length) is None:
            return  # an egress program dropped it; credit already refunded
        fld.stats_tx_packets += 1
        tracer = fld._tracer
        if tracer.enabled:
            tracer.instant(f"fld.{fld.name}", f"txq{meta.queue_id}",
                           "submit", fld.sim._now, {"bytes": length})
