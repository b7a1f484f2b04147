"""The Event-only ``Store``, kept as the reference for the store machine.

This is ``repro.sim.engine.Store`` as it stood before parked
continuations: every getter and every blocked putter is an
:class:`~repro.sim.Event`, ``get()``/``put()`` build one per call and
``_deliver`` fires it.  The class body is copied verbatim, so
``tests/sim/test_store_machine.py`` can hold the rebuilt ``Store`` to
the same deliveries, drops, admissions and telemetry samples.  Two
lines are not as they stood.  ``_expire_holds`` re-armed its wake
without looking at ``_hold_wake``, so a putter that put again from its
admission callback left two wakes pending for one deadline.  A
duplicate wake is a fault of the reference, not behaviour to preserve;
it is fixed here and in ``Store`` alike, so the machine's event-count
equality keeps meaning one wake per deadline.  And the depth gauge is
taken from the registry (``Telemetry`` hands out no gauge since
``Store`` publishes its depth as a pulled level); it is still pushed
here, at every depth change, which is what the machine holds the pulled
level to.  It is a reference implementation: do not optimise it.
"""

from collections import deque
from typing import Any, Optional

from repro.sim import Event, Simulator


class OracleStore:
    """An unbounded (or bounded) FIFO channel between processes.

    ``put`` succeeds immediately when below capacity; ``get`` blocks the
    calling process until an item is available.  Items are delivered in
    insertion order, one per waiting getter, preserving getter arrival
    order.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = ""):
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: deque = deque()
        self._getters: deque = deque()
        self._putters: deque = deque()  # (event, item) waiting for space
        self._held_until: deque = deque()  # hold_slot() deadlines, ascending
        self._hold_wake = False            # an _expire_holds wake is pending
        self.stats_put = 0
        self.stats_dropped = 0
        self.stats_max_depth = 0
        # Depth gauge and queue-wait histogram only exist when telemetry
        # is live; disabled simulations pay a single None check per
        # delivery.  The wait histogram is what splits queueing from
        # service time in latency attribution reports.
        if sim.telemetry.enabled and name:
            self._depth_gauge = sim.telemetry.metrics.gauge(
                f"store.{name}.depth")
            self._wait_hist = sim.telemetry.histogram(f"store.{name}.wait")
            self._enqueued: deque = deque()
        else:
            self._depth_gauge = None
            self._wait_hist = None

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        if self.capacity is None:
            return False
        held = self._held_until
        if held:
            now = self.sim._now
            while held and held[0] <= now:
                held.popleft()
        return len(self._items) + len(held) >= self.capacity

    def hold_slot(self, until: float) -> None:
        """Count one slot against ``capacity`` until time ``until``.

        For consumers that pop an item ahead of the schedule a reference
        pipeline would follow (fused stages): the slot stays occupied
        from the producers' point of view until the instant the
        reference consumer would have popped, so puts block — and
        blocked putters are admitted — at exactly the reference times.
        Holds expire lazily (``is_full`` purges past deadlines); a wake
        is scheduled only when a put actually blocks against one, so an
        uncontended hold costs no event at all.  Callers must take
        holds in nondecreasing deadline order.
        """
        self._held_until.append(until)

    def _expire_holds(self) -> None:
        self._hold_wake = False
        self._admit_waiting_putter()
        if self._putters and self._held_until and not self._hold_wake:
            self._hold_wake = True
            self.sim.schedule_at(self._held_until[0], self._expire_holds)

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns ``False`` (drops) when full."""
        if self.is_full and not self._getters:
            self.stats_dropped += 1
            return False
        self._deliver(item)
        return True

    def put(self, item: Any) -> Event:
        """Blocking put; the returned event fires when the item is queued."""
        event = Event(self.sim)
        if self.is_full and not self._getters:
            self._putters.append((event, item))
            if self._held_until and not self._hold_wake:
                # Blocked at least partly against a virtual hold: no
                # pop will happen at its deadline, so schedule the
                # admission check ourselves.
                self._hold_wake = True
                self.sim.schedule_at(self._held_until[0],
                                     self._expire_holds)
        else:
            self._deliver(item)
            event.succeed(item)
        return event

    def get(self) -> Event:
        """An event that fires with the next item."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
            if self._wait_hist is not None:
                self._wait_hist.observe(
                    self.sim._now - self._enqueued.popleft())
            self._admit_waiting_putter()
            if self._depth_gauge is not None:
                self._depth_gauge.set(len(self._items))
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; returns ``None`` when empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        if self._wait_hist is not None:
            self._wait_hist.observe(self.sim._now - self._enqueued.popleft())
        self._admit_waiting_putter()
        if self._depth_gauge is not None:
            self._depth_gauge.set(len(self._items))
        return item

    def _deliver(self, item: Any) -> None:
        self.stats_put += 1
        getters = self._getters
        if getters:
            getters.popleft().succeed(item)
            if self._wait_hist is not None:
                self._wait_hist.observe(0.0)
                self._depth_gauge.set(len(self._items))
        else:
            items = self._items
            items.append(item)
            depth = len(items)
            if depth > self.stats_max_depth:
                self.stats_max_depth = depth
            if self._wait_hist is not None:
                self._enqueued.append(self.sim._now)
                self._depth_gauge.set(depth)

    def _admit_waiting_putter(self) -> None:
        if self._putters and not self.is_full:
            event, item = self._putters.popleft()
            self._deliver(item)
            event.succeed(item)
