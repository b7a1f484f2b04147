"""Accelerator framework: fixed-function engines behind FLD's streams.

An :class:`Accelerator` pulls packets (data + metadata) from FLD's
receive stream with one or more parallel *processing units* — modelling
the replicated engine blocks of the paper's examples (8 ZUC cores, 8
HMAC units) behind a front-end load balancer — transforms them, and
pushes results back through FLD's credit-guarded transmit path.

Subclasses implement :meth:`process` (the function) and
:meth:`processing_time` (the per-packet latency of one unit).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..core import AxisMetadata, FlexDriver
from ..sim import Simulator

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
        self.stats_emitted = 0
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
        if reassemble:
            # Front-end load balancer (the paper's ZUC/IoT designs): a
            # single stage reassembles multi-segment messages — required
            # because the shared MPRQ interleaves segments of different
            # queues (§6) — then hands whole messages to the units.
            from ..sim import Store
            self._messages = Store(sim, name=f"{name}.frontend")
            self._assembly = {}
            sim.spawn(self._front_end(), name=f"{name}.fe")
            self._source = self._messages.get
        else:
            self._source = self._upstream.get
        for unit in range(units):
            sim.spawn(self._unit_worker(unit), name=f"{name}.unit{unit}")

    def _front_end(self):
        while True:
            data, meta = yield self._upstream.get()
            key = (meta.queue_id, meta.src_qpn, meta.context_id)
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

    def _trace_dequeue(self, meta: AxisMetadata) -> None:
        """Attribute the wait on the input stream as accel queueing."""
        if meta.trace_ctx is not None and self.sim._now > meta.trace_enqueued:
            self._spans.record(meta.trace_ctx, "accel", meta.trace_enqueued,
                               self.sim._now, kind="queue")

    def _trace_service(self, meta: AxisMetadata, started: float,
                       outputs: List[Output]) -> None:
        if meta.trace_ctx is None:
            return
        self._spans.record(meta.trace_ctx, "accel", started, self.sim._now)
        for _data, out_meta in outputs:
            if out_meta.trace_ctx is None:
                out_meta.trace_ctx = meta.trace_ctx

    def _unit_worker(self, unit: int):
        while True:
            data, meta = yield self._source()
            self._trace_dequeue(meta)
            started = self.sim._now
            yield self.sim.timeout(self.processing_time(data, meta))
            try:
                outputs = list(self.process(data, meta))
            except Exception:
                self.stats_errors += 1
                continue
            self.stats_processed += 1
            self.stats_bytes += len(data)
            self._trace_service(meta, started, outputs)
            for out_data, out_meta in outputs:
                if out_meta.queue_id is None:
                    out_meta.queue_id = self.tx_queue
                yield from self.fld.send(out_data, out_meta)
                self.stats_emitted += 1

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

    def _unit_worker(self, unit: int):
        while True:
            data, meta = yield self._source()
            self._trace_dequeue(meta)
            started = self.sim._now
            yield self.sim.timeout(self.processing_time(data, meta))
            try:
                outputs = list(self.process(data, meta))
            except Exception:
                self.stats_errors += 1
                continue
            self.stats_processed += 1
            self.stats_bytes += len(data)
            self._trace_service(meta, started, outputs)
            for out_data, out_meta in outputs:
                if out_meta.queue_id is None:
                    out_meta.queue_id = self.tx_queue
                if self.fld.try_send(out_data, out_meta):
                    self.stats_emitted += 1
                else:
                    self.stats_dropped += 1
