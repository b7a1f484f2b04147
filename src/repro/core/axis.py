"""The FLD<->accelerator interface: AXI4-Stream-like buses + credits (§5.5).

Two streams carry packets with sideband metadata:

* **rx stream** (FLD -> accelerator): the accelerator must *not*
  backpressure it (§5.5) — a slow accelerator must drop or flow-control at
  the application layer.  We model this with a bounded store whose
  overflow counts as accelerator-inflicted drops.

* **tx stream** (accelerator -> FLD): guarded by the per-queue *credit
  interface* — a credit covers one descriptor slot plus the buffer chunks
  a packet needs, so the accelerator can apportion resources between its
  queues and FLD buffers can never overflow.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim import Simulator, Store


class AxisMetadata:
    """Sideband metadata accompanying each packet on the streams.

    On receive it carries the completion-derived fields (§5.5): context
    ID, offload flags (checksum ok...), RSS hash, message position, and
    the receiving NIC's layout of a frame FLD read back unchanged.  On
    transmit the accelerator sets the queue and context (the context's
    upper bits select the FLD-E resume table, §5.3).
    """

    __slots__ = ("queue_id", "context_id", "flags", "rss_hash", "msg_first",
                 "msg_last", "signaled", "src_qpn", "trace_ctx",
                 "trace_enqueued", "prog_skip", "layout")

    def __init__(self, queue_id: int = 0, context_id: int = 0,
                 flags: int = 0, rss_hash: int = 0, msg_first: bool = True,
                 msg_last: bool = True, signaled: bool = True,
                 src_qpn: int = 0, trace_ctx=None, layout=None):
        self.queue_id = queue_id
        self.context_id = context_id
        self.flags = flags
        self.rss_hash = rss_hash
        self.msg_first = msg_first
        self.msg_last = msg_last
        self.signaled = signaled
        # The NIC queue (QP) the packet arrived on — from the CQE's QPN
        # field; FLD-R accelerators route replies by it when several QPs
        # share one receive queue (§6).
        self.src_qpn = src_qpn
        # Sim-only span sideband (repro.telemetry.spans): the packet's
        # trace handle and the time it entered the stream it rides on
        # (lets the consumer split queueing from service time).
        self.trace_ctx = trace_ctx
        self.trace_enqueued = 0.0
        # Set on packets a match-action program already redirected, so
        # the egress hook runs a program at most once per packet (no
        # redirect ping-pong between attached programs).
        self.prog_skip = False
        self.layout = layout

    def __repr__(self) -> str:
        return (
            f"AxisMetadata(q={self.queue_id}, ctx={self.context_id:#x}, "
            f"flags={self.flags:#x})"
        )


class AxisStream:
    """A unidirectional packet stream (data bytes + metadata).

    The consumer side is the underlying store's: ``pop_or_park(func)``
    returns the next ``(data, metadata)`` pair or leaves ``func`` parked
    for it (what the accelerator stages use).
    """

    def __init__(self, sim: Simulator, name: str,
                 depth: Optional[int] = None):
        self.sim = sim
        self.name = name
        self._store = Store(sim, capacity=depth, name=name)
        self.pop_or_park = self._store.pop_or_park

    def push(self, data: bytes, meta: AxisMetadata) -> bool:
        """Non-blocking enqueue; False = overflow drop."""
        return self._store.try_put((data, meta))

    def __len__(self) -> int:
        return len(self._store)

    @property
    def stats_dropped(self) -> int:
        return self._store.stats_dropped


class CreditInterface:
    """Per-queue transmit credits (§5.5).

    A queue's credit pool reflects its share of descriptor slots and data
    chunks; the accelerator consumes credits when pushing and FLD returns
    them when the NIC's completion frees the resources.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._credits: Dict[int, int] = {}
        self._capacity: Dict[int, int] = {}
        self._waiters: Dict[int, list] = {}   # queue -> [(amount, func, arg)]
        self.stats_waits = 0

    def configure(self, queue_id: int, credits: int) -> None:
        self._credits[queue_id] = credits
        self._capacity[queue_id] = credits
        self._waiters.setdefault(queue_id, [])

    def remove(self, queue_id: int) -> None:
        """Drop a queue's credit pool (its tx queue was destroyed)."""
        self._credits.pop(queue_id, None)
        self._capacity.pop(queue_id, None)
        self._waiters.pop(queue_id, None)

    def available(self, queue_id: int) -> int:
        return self._credits.get(queue_id, 0)

    def capacity(self, queue_id: int) -> int:
        return self._capacity.get(queue_id, 0)

    def try_consume(self, queue_id: int, amount: int = 1) -> bool:
        if self._credits.get(queue_id, 0) >= amount:
            self._credits[queue_id] -= amount
            return True
        return False

    def wait(self, queue_id: int, amount: int, func, arg=None) -> None:
        """Park ``func(arg)`` until a refund covers ``amount`` credits
        (consumed on the waiter's behalf, in FIFO order).  For callers
        whose :meth:`try_consume` just failed."""
        self.stats_waits += 1
        self._waiters[queue_id].append((amount, func, arg))

    def refund(self, queue_id: int, amount: int = 1) -> None:
        if queue_id not in self._credits:
            raise KeyError(f"unknown queue {queue_id}")
        # Serve waiters from the uncapped balance first; only the final
        # idle balance is clamped to the configured capacity.
        self._credits[queue_id] += amount
        waiters = self._waiters[queue_id]
        while waiters and self._credits[queue_id] >= waiters[0][0]:
            amount_needed, func, arg = waiters.pop(0)
            self._credits[queue_id] -= amount_needed
            func(arg)
        self._credits[queue_id] = min(self._capacity[queue_id],
                                      self._credits[queue_id])
