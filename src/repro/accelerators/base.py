"""Accelerator framework: fixed-function engines behind FLD's streams.

An :class:`Accelerator` pulls packets (data + metadata) from FLD's
receive stream with one or more parallel *processing units* — modelling
the replicated engine blocks of the paper's examples (8 ZUC cores, 8
HMAC units) behind a front-end load balancer — transforms them, and
pushes results back through FLD's credit-guarded transmit path.

Subclasses implement :meth:`process` (the function) and
:meth:`processing_time` (the per-packet latency of one unit).  The
units and the front end are flat stages parked on plain stores
(:class:`_Unit`, :class:`~repro.sim.Pump`) — no process, no event.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from ..core import AxisMetadata, FlexDriver
from ..sim import Pump, Simulator, Store

Output = Tuple[bytes, AxisMetadata]


class Accelerator:
    """Base class for FLD-attached fixed-function accelerators."""

    def __init__(self, sim: Simulator, fld: FlexDriver, units: int = 1,
                 name: str = "accel", tx_queue: int = 0,
                 reassemble: bool = False, source=None):
        if units < 1:
            raise ValueError("need at least one processing unit")
        self.sim = sim
        self.fld = fld
        self.units = units
        self.name = name
        self.tx_queue = tx_queue
        self.stats_processed = 0
        self.stats_bytes = 0
        self.stats_dropped = 0
        self.stats_errors = 0
        self._spans = sim.telemetry.spans
        # Per-function throughput accounting: the component name flows
        # into the metric labels, so an N-tenant testbed reads one
        # counter pair per accelerator function.
        if sim.telemetry.enabled:
            sim.telemetry.register_counters(f"accel.{name}", lambda: {
                "packets": self.stats_processed,
                "bytes": self.stats_bytes,
            })
        # ``source`` overrides the input stream: a per-function Store a
        # demultiplexer fills when several functions share one FLD
        # (see repro.topology.build).  Default: FLD's raw rx stream.
        self._upstream = source if source is not None else fld.rx_stream
        unit_source = self._upstream
        if reassemble:
            # Front-end load balancer (the paper's ZUC/IoT designs): a
            # single stage reassembles multi-segment messages — required
            # because the shared MPRQ interleaves segments of different
            # queues (§6) — then hands whole messages to the units.
            unit_source = self._messages = Store(sim, name=f"{name}.frontend")
            self._assembly = {}
            Pump(sim, self._upstream, self._reassemble, f"{name}.fe")
        for unit in range(units):
            _Unit(self, unit_source, f"{name}.unit{unit}")

    def _reassemble(self, item) -> None:
        data, meta = item
        key = (meta.queue_id, meta.src_qpn, meta.context_id)
        if meta.msg_last and key not in self._assembly:
            # A one-segment message: to the units as it came.
            self._messages.try_put(item)
            return
        parts = self._assembly.setdefault(key, [])
        parts.append(data)
        if meta.msg_last:
            del self._assembly[key]
            self._messages.try_put((b"".join(parts), meta))

    # -- override points -----------------------------------------------------

    def process(self, data: bytes, meta: AxisMetadata) -> Iterable[Output]:
        """Transform one input packet into zero or more outputs."""
        raise NotImplementedError

    def processing_time(self, data: bytes, meta: AxisMetadata) -> float:
        """Seconds one unit spends on this packet (default: one cycle/16B,
        a 128-bit datapath at the FLD clock)."""
        cycles = max(1, len(data) // 16)
        return self.fld.config.cycles(cycles)

    # -- the engine ------------------------------------------------------------

    def _emit(self, data: bytes, meta: AxisMetadata, sent) -> None:
        """Transmit one output; ``sent(True)`` once FLD has taken it
        (``sent(False)`` for an output shed instead)."""
        self.fld.send_then(data, meta, sent, True)

    # -- helpers ------------------------------------------------------------------

    def reply_meta(self, meta: AxisMetadata,
                   queue_id: Optional[int] = None) -> AxisMetadata:
        """Metadata for a response: same context (resume table + tenant)."""
        return AxisMetadata(
            queue_id=self.tx_queue if queue_id is None else queue_id,
            context_id=meta.context_id,
            trace_ctx=meta.trace_ctx,
        )


class DroppingAccelerator(Accelerator):
    """A variant that sheds load instead of waiting for credits (§5.5).

    Appropriate for inline accelerators that must never stall the NIC:
    when the transmit queue has no credit the packet is dropped and
    counted, mirroring 'selectively drop exceeding traffic on their own'.
    """

    def _emit(self, data: bytes, meta: AxisMetadata, sent) -> None:
        sent(self.fld.try_send(data, meta))


class _Unit:
    """One processing unit, as continuations with a serial loop's event
    structure: take a packet from the input stream (parking when it is
    empty), one processing-time event, then the outputs one at a time
    through the accelerator's ``_emit`` — each held for FLD's credit
    and pipeline occupancy — and back to the stream."""

    __slots__ = ("accel", "source", "profile_tag", "_outputs")

    def __init__(self, accel: Accelerator, source, profile_tag: str):
        self.accel = accel
        self.source = source
        self.profile_tag = profile_tag
        self._outputs = iter(())
        # Arm via a zero-delay step: the unit must not observe traffic
        # before the simulation runs.
        accel.sim.call_later(0.0, self._step)

    def _step(self, taken: Optional[bool] = None) -> None:
        """Count an output FLD shed (``taken`` is ``False``), emit the
        next one or, with none pending, take the next packet."""
        accel = self.accel
        if taken is False:
            accel.stats_dropped += 1
        for out_data, out_meta in self._outputs:
            if out_meta.queue_id is None:
                out_meta.queue_id = accel.tx_queue
            accel._emit(out_data, out_meta, self._step)
            return
        item = self.source.pop_or_park(self._begin)
        if item is not None:
            self._begin(item)

    def _begin(self, item) -> None:
        data, meta = item
        accel = self.accel
        sim = accel.sim
        ctx = meta.trace_ctx
        if ctx is not None and sim._now > meta.trace_enqueued:
            # The wait on the input stream is accel queueing.
            accel._spans.record(ctx, "accel", meta.trace_enqueued, sim._now,
                                kind="queue")
        sim.call_later(accel.processing_time(data, meta), self._service,
                       (data, meta, sim._now))

    def _service(self, entry) -> None:
        data, meta, started = entry
        accel = self.accel
        try:
            outputs = list(accel.process(data, meta))
        except Exception:
            accel.stats_errors += 1
        else:
            self._outputs = iter(outputs)
            accel.stats_processed += 1
            accel.stats_bytes += len(data)
            ctx = meta.trace_ctx
            if ctx is not None:
                accel._spans.record(ctx, "accel", started, accel.sim._now)
                for _data, out_meta in outputs:
                    if out_meta.trace_ctx is None:
                        out_meta.trace_ctx = ctx
        self._step()
