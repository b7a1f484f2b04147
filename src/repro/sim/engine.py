"""Discrete-event simulation engine.

The simulator advances a virtual clock from one scheduled entry to the
next.  Time is measured in **seconds** (floats); bandwidth in **bits
per second**.  PCIe links, NIC pipelines, accelerator units and host
CPU threads are stages that hand work to each other through
:class:`Store` queues and delay through the scheduler.

An entry is ``(time, seq, func, arg)``, dispatched strictly by
``(time, seq)``, and comes in two kinds:

* a *plain continuation* (:meth:`Simulator.call_later` / ``schedule`` /
  ``schedule_at``): the run loop calls ``func`` directly, nothing else
  is allocated.  Every per-packet stage waits this way;
* an *Event timeout* (:meth:`Simulator.timeout`) firing an
  :class:`Event`, which generator processes (:class:`Process`) yield
  on.  Processes are for code that is a script rather than a stage:
  experiment drivers, teardown, tests.

Stages rendezvous through :class:`Store`'s parked continuations: a
consumer that finds a store empty leaves a plain callable there and the
put that delivers the next item calls it, in the putter's frame.
:class:`Pump` is the stock consumer stage: a store, a handler, no
process.  A wait for anything else parks the same way, where the
condition changes; :class:`PollWait` is the form for a wait the model
quantises to a poll period.  Under the profiler each dispatch files
under its callable's owner (``func.__self__.profile_tag``, see
:func:`~repro.telemetry.profile.owner_tag`), so a stage's continuations
attribute to it wherever they were pushed from: a continuation pushed
on a stage's behalf is a bound method of that stage, or of an object
that resolves its tag through a callable it carries (an :class:`Event`
through its waiter, a :class:`PollWait` through ``func``).

Scheduling is one tier: every push, zero-delay or timed, relative or
absolute, goes on one binary heap, and :meth:`Simulator.run` is one
loop that peeks the top, stops at the horizon, pops and dispatches.
``seq`` is globally monotonic, so entries due at one instant dispatch
in push order (``tests/sim/test_lockstep`` checks the loop against a
naive heap).  ``run`` refuses the two times the clock could never
leave: an entry at infinite time and ``until=inf``.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def proc(sim):
...     yield sim.timeout(1.0)
...     log.append(sim.now)
>>> _ = sim.spawn(proc(sim))
>>> sim.run()
1.0
>>> log
[1.0]
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from typing import Any, Callable, Generator, List, Optional

from ..telemetry import NULL_TELEMETRY
from ..telemetry.profile import NULL_PROFILER, owner_tag

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Sentinel ``arg`` for heap entries whose callable takes no argument.
_NO_ARG = object()

#: ``run``'s horizon with no ``until``: an entry past it is at ``inf``.
_LAST_TIME = sys.float_info.max


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; :meth:`succeed` schedules all waiting
    processes to resume with ``value``.  Events may only fire once.

    Nearly every event has zero or one waiter, so the first callback sits
    in a dedicated slot (``_cb``) and only the rare second waiter allocates
    the overflow list (``_cbs``).
    """

    __slots__ = ("sim", "_value", "_fired", "_cb", "_cbs")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._value: Any = None
        self._fired = False
        self._cb: Optional[Callable[["Event"], None]] = None
        self._cbs: Optional[List[Callable[["Event"], None]]] = None

    @property
    def profile_tag(self) -> Optional[str]:
        # A timeout's firing is its waiter's work: it files under the
        # owner of the first callback (a process's resume).
        cb = self._cb
        return None if cb is None else owner_tag(cb)

    def succeed(self, value: Any = None) -> "Event":
        if self._fired:
            raise SimulationError("event fired twice")
        self._fired = True
        self._value = value
        # Snapshot-and-clear before invoking: callbacks registered *during*
        # firing see ``fired`` and run immediately from add_callback, which
        # interleaves them exactly as the old list-snapshot loop did.
        cb = self._cb
        if cb is not None:
            self._cb = None
            cb(self)
            cbs = self._cbs
            if cbs is not None:
                self._cbs = None
                for extra in cbs:
                    extra(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self._fired:
            callback(self)
        elif self._cb is None:
            self._cb = callback
        elif self._cbs is None:
            self._cbs = [callback]
        else:
            self._cbs.append(callback)


class Process:
    """A running generator-based simulation process.

    Wraps a generator that yields :class:`Event` objects.  The process
    itself is an event that fires (with the generator's return value) when
    the generator finishes, so processes can wait for each other::

        result = yield sim.spawn(worker(sim))
    """

    __slots__ = ("sim", "_gen", "_done", "name", "_resume", "profile_tag")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self._gen = gen
        self._done = Event(sim)
        self.name = name or getattr(gen, "__name__", "process")
        self.profile_tag = self.name
        # One bound method reused for every yield; a per-yield lambda would
        # allocate a closure each time the process blocks.
        self._resume = self._on_event

    def _on_event(self, event: Event) -> None:
        self._step(event._value)

    def _step(self, value: Any = None) -> None:
        # Trampoline: when the yielded event has already fired, resume the
        # generator in this same frame instead of recursing — long chains
        # of ready events (busy stores, cached DMA) would otherwise
        # overflow the Python stack.
        send = self._gen.send
        while True:
            try:
                target = send(value)
            except StopIteration as stop:
                sim = self.sim
                sim.stats_finished += 1
                tracer = sim.telemetry.tracer
                if tracer.enabled:
                    tracer.instant("sim", "processes", f"finish:{self.name}",
                                   sim.now)
                self._done.succeed(stop.value)
                return
            if target.__class__ is not Event:
                if isinstance(target, Process):
                    target = target._done
                elif not isinstance(target, Event):
                    raise SimulationError(
                        f"process {self.name!r} yielded {target!r}; "
                        "expected an Event"
                    )
            if target._fired:
                value = target._value
                continue
            target.add_callback(self._resume)
            return


class Simulator:
    """The event loop: one heap of ``(time, seq, func, arg)`` entries.

    There is one set of scheduling entry points, each a push onto the
    heap, and one run loop, which pops an entry at a time up to its
    horizon and refuses, leaving it queued, an entry at infinite time or
    one past ``max_events``.  With a live profiler
    (``Telemetry(profile=True)`` or an explicit ``profiler=``)
    :meth:`run` hands each ``func`` to it before the dispatch, and the
    profiler files the event under ``func``'s owner; a push never looks
    at the profiler.  With the default
    :data:`~repro.telemetry.profile.NULL_PROFILER` each dispatch pays
    one ``is None`` test; the ``(time, seq)`` schedule is the same
    either way.
    """

    def __init__(self, telemetry=None, profiler=None):
        self._now = 0.0
        self._queue: List = []
        self._seq = 0
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        if profiler is None:
            profiler = getattr(self.telemetry, "profiler", NULL_PROFILER)
        self.profiler = profiler
        self._prof = profiler if profiler.enabled else None
        self.stats_events = 0
        self.stats_spawned = 0
        self.stats_finished = 0
        if self.telemetry.enabled:
            self.telemetry.register_counters("sim", lambda: {
                "events.processed": self.stats_events,
                "processes.spawned": self.stats_spawned,
                "processes.finished": self.stats_finished,
            })

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action()`` after ``delay`` seconds of virtual time."""
        if not delay >= 0:     # negative, or NaN
            raise SimulationError(f"delay {delay}: must be >= 0")
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (self._now + delay, seq, action, _NO_ARG))

    def schedule_at(self, time: float, action: Callable[[], None]) -> None:
        """Run ``action()`` at absolute time ``time`` (>= now).

        For callers that resolved a future occurrence *now* (cut-through
        deliveries, fused pipeline stages, parked waits): the entry is
        pushed as a relative one is, and dispatches by ``(time, seq)``.
        """
        if not time >= self._now:
            raise SimulationError(
                f"schedule_at({time}) before now ({self._now})")
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (time, seq, action, _NO_ARG))

    def call_later(self, delay: float, func: Callable[[Any], None],
                   arg: Any) -> None:
        """Run ``func(arg)`` after ``delay`` seconds of virtual time.

        The one-argument twin of :meth:`schedule`; hot callers use it to
        avoid allocating a closure per scheduled call.
        """
        if not delay >= 0:     # negative, or NaN
            raise SimulationError(f"delay {delay}: must be >= 0")
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (self._now + delay, seq, func, arg))

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires ``delay`` seconds from now."""
        if not delay >= 0:     # negative, or NaN
            raise SimulationError(f"delay {delay}: must be >= 0")
        event = Event(self)
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (self._now + delay, seq, event.succeed, value))
        return event

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a generator as a process on the next event-loop pass."""
        process = Process(self, gen, name)
        self.stats_spawned += 1
        tracer = self.telemetry.tracer
        if tracer.enabled:
            tracer.instant("sim", "processes", f"spawn:{process.name}",
                           self._now)
        self.schedule(0.0, process._step)
        return process

    # -- execution -------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Dispatch entries by ``(time, seq)`` until the heap drains or its
        top lies past ``until``; returns the clock, which is then
        ``until`` if given.

        One loop: peek the top, stop at the horizon (``until``, else the
        largest finite time), pop, count, dispatch.  The clock never
        rewinds: an ``until`` already passed dispatches nothing.  Refused
        with :class:`SimulationError`, the entry left queued: an entry at
        infinite time (the clock would read ``inf`` for good), and the
        ``max_events + 1``-th of one run (a livelock).  ``until`` NaN or
        infinite is refused too.  An entry whose handler raises is
        counted in ``stats_events``.
        """
        if until is None:
            horizon = _LAST_TIME
        else:
            if not until <= _LAST_TIME:     # NaN, or infinite
                raise SimulationError(f"run(until={until})")
            if until < self._now:
                return self._now
            horizon = until
        prof = self._prof
        processed = 0
        queue = self._queue
        try:
            while queue:
                entry = queue[0]
                time = entry[0]
                if time > horizon:
                    if until is None:
                        raise SimulationError(
                            f"{entry[2]!r} scheduled at time {time}, "
                            "past every finite time")
                    break
                if processed == max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; likely a livelock")
                _heappop(queue)
                processed += 1
                self._now = time
                func = entry[2]
                arg = entry[3]
                if prof is not None:
                    prof.account(func, len(queue))
                if arg is _NO_ARG:
                    func()
                else:
                    func(arg)
            if until is not None:
                self._now = until
            return self._now
        finally:
            self.stats_events += processed
            if prof is not None:
                prof.end_run()


class Store:
    """An unbounded (or bounded) FIFO channel between stages.

    One wake mechanism, a *parked continuation*: a consumer that finds
    the store empty leaves a plain callable (:meth:`pop_or_park`) and the
    put that delivers the next item calls it with the item,
    synchronously, in the put's own frame; a producer that finds a
    bounded store full parks ``(func, item)`` the same way
    (:meth:`put_or_park`).  Items are delivered in insertion order, one
    per parked getter, in getter arrival order: the first waits in a
    slot, as :class:`Event`'s first callback does.  ``None`` is not an
    item (:meth:`pop_or_park` returns it to mean *parked*).  :meth:`get`
    and :meth:`put` wrap the mechanism in an :class:`Event` for
    generator processes; nothing on a per-packet path uses them.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = ""):
        if capacity is not None and not capacity >= 1:
            raise SimulationError(f"store capacity {capacity}: must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: deque = deque()
        self._depth = 0                    # len(_items)
        self._getter = None                # the first parked func(item)
        self._getters: deque = deque()     # the parked getters behind it
        self._putters: deque = deque()     # parked (func, item), no space yet
        self._held_until: deque = deque()  # live hold_slot() deadlines, ascending
        self._held = 0                     # len(_held_until)
        self._hold_wake = False            # an _expire_holds wake is pending
        self.stats_put = 0
        self.stats_dropped = 0
        self.stats_max_depth = 0
        # The depth gauge is pulled at export.  The queue-wait histogram
        # (queueing vs. service time in latency attribution) exists only
        # when telemetry is live: else one None check per delivery.
        if sim.telemetry.enabled and name:
            sim.telemetry.register_gauges(f"store.{name}", lambda: {
                "depth": (self._depth, self.stats_max_depth)})
            self._wait_hist = sim.telemetry.histogram(f"store.{name}.wait")
            self._enqueued: deque = deque()
        else:
            self._wait_hist = None

    def __len__(self) -> int:
        return self._depth

    def hold_slot(self, until: float) -> None:
        """Count one slot against ``capacity`` until time ``until``.

        For consumers that pop an item ahead of the schedule a reference
        pipeline would follow (fused stages): the slot stays occupied
        from the producers' point of view until the instant the
        reference consumer would have popped, so puts block — and
        blocked putters are admitted — at exactly the reference times.
        Holds expire lazily, purged by the fullness test of a put and of
        an admission; a wake is scheduled only when a put blocks, or the
        pop that empties the store is refused an admission, against one,
        and at most one is pending, so an
        uncontended hold costs no event at all.  An unbounded store has
        no slot to hold.  Deadlines must be nondecreasing: the purge
        stops at the first live one.
        """
        if self.capacity is not None:
            held = self._held_until
            if not until >= (held[-1] if held else 0.0):
                raise SimulationError(f"hold_slot({until}) out of order")
            held.append(until)
            self._held += 1

    def _expire_holds(self) -> None:
        self._hold_wake = False
        self._admit_waiting_putter()
        # The putter just admitted may have put again from its callback
        # and armed the next wake already.
        if self._putters and self._held and not self._hold_wake:
            self._hold_wake = True
            self.sim.schedule_at(self._held_until[0], self._expire_holds)

    def put_or_park(self, item: Any,
                    func: Optional[Callable[[Any], None]] = None) -> bool:
        """Put ``item`` now (``True``), or, when the store is full, park
        ``(func, item)`` until a slot frees — ``func(item)`` runs at the
        instant the item goes in — or, with no ``func``, drop it
        (``False`` either way).
        """
        if item is None:
            raise SimulationError("None is not a store item")
        getter = self._getter
        if getter is not None:     # straight through: never refused
            getters = self._getters
            self._getter = getters.popleft() if getters else None
            self.stats_put += 1
            getter(item)
            wait = self._wait_hist
            if wait is not None:
                # observe(0.0) in place: the sum of waits is unchanged.
                wait.count += 1
                wait.underflow += 1
                if wait.min is None or wait.min > 0.0:
                    wait.min = 0.0
                if wait.max is None or wait.max < 0.0:
                    wait.max = 0.0
            return True
        capacity = self.capacity
        if capacity is not None:
            # Past holds expire; items and live holds count against it.
            held = self._held
            if held:
                deadlines = self._held_until
                now = self.sim._now
                while held and deadlines[0] <= now:
                    deadlines.popleft()
                    held -= 1
                self._held = held
            if self._depth + held >= capacity:
                if func is None:
                    self.stats_dropped += 1
                    return False
                self._putters.append((func, item))
                if held and not self._hold_wake:
                    # Blocked at least partly against a virtual hold: no
                    # pop will happen at its deadline, so schedule the
                    # admission check ourselves.
                    self._hold_wake = True
                    self.sim.schedule_at(self._held_until[0], self._expire_holds)
                return False
        self.stats_put += 1
        self._items.append(item)
        depth = self._depth + 1
        self._depth = depth
        if depth > self.stats_max_depth:
            self.stats_max_depth = depth
        if self._wait_hist is not None:
            self._enqueued.append(self.sim._now)
        return True

    #: Non-blocking put: ``False`` (drops) when full.
    try_put = put_or_park

    def put(self, item: Any) -> Event:
        """Blocking put; the returned event fires when the item is queued."""
        event = Event(self.sim)
        if self.put_or_park(item, event.succeed):
            event.succeed(item)
        return event

    def pop_or_park(self, func: Callable[[Any], None]) -> Optional[Any]:
        """Return the next item, or park ``func`` (and return ``None``):
        the put that delivers the next item calls ``func(item)``."""
        if not self._depth:
            if self._getter is None:
                self._getter = func
            else:
                self._getters.append(func)
            return None
        item = self._items.popleft()
        self._depth -= 1
        if self._wait_hist is not None:
            self._wait_hist.observe(self.sim._now - self._enqueued.popleft())
        if self._putters:
            self._admit_waiting_putter()
        return item

    def get(self) -> Event:
        """An event that fires with the next item."""
        event = Event(self.sim)
        item = self.pop_or_park(event.succeed)
        if item is not None:
            event.succeed(item)
        return event

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; returns ``None`` when empty."""
        return self.pop_or_park(None) if self._depth else None

    def _admit_waiting_putter(self) -> None:
        # A free slot is admitted through put_or_park, whose test passes.
        putters = self._putters
        if not putters:
            return
        held = self._held
        if held:
            deadlines = self._held_until
            now = self.sim._now
            while held and deadlines[0] <= now:
                deadlines.popleft()
                held -= 1
            self._held = held
        if self._depth + held < self.capacity:
            func, item = putters.popleft()
            self.put_or_park(item)
            func(item)
        elif held and not self._depth and not self._hold_wake:
            # Refused against a live hold with nothing left to pop: no
            # pop can admit the putter, so its deadline does.
            self._hold_wake = True
            self.sim.schedule_at(self._held_until[0], self._expire_holds)


class Pump:
    """A flat consumer stage: hands each item of a :class:`Store` to
    ``handler``, in order, as a plain callback chain with no process.

    A handler that needs virtual time for an item returns ``False`` and
    calls :meth:`resume` itself when done; any other return value moves
    straight on to the next item.  Arming is deferred through a
    zero-delay scheduled step: the stage must not observe items before
    the simulation runs.  An owner whose handler schedules continuations
    carries ``profile_tag`` too.
    """

    __slots__ = ("source", "handler", "profile_tag")

    def __init__(self, sim: Simulator, source, handler, profile_tag: str):
        self.source = source    # anything with Store.pop_or_park
        self.handler = handler
        self.profile_tag = profile_tag
        sim.schedule(0.0, self.resume)

    def resume(self) -> None:
        self._on_item(self.source.pop_or_park(self._on_item))

    def _on_item(self, item) -> None:
        while item is not None and self.handler(item) is not False:
            item = self.source.pop_or_park(self._on_item)


class PollWait:
    """A poll loop that is parked instead of running.

    Stands for ``while not condition: yield sim.timeout(step)`` entered
    now with the condition false.  Whoever makes the condition true
    calls :meth:`wake`, once, and ``func(arg)`` runs at the instant the
    loop's next poll would have: the poll period stays in simulated time
    and the empty polls never reach the scheduler.  The poll instants
    are the sums the loop's timeouts would have formed (``now + step``,
    then that ``+ step``, ...), so a run reads the same floats as one
    that polled.  A change landing exactly on a poll instant is seen by
    that poll, as it was whenever the change had been scheduled more
    than a period ahead (a CQE in flight, a core's packet cost).  The
    wake files under ``func``'s owner, as its polls would have.
    """

    __slots__ = ("sim", "step", "func", "arg", "_poll")

    def __init__(self, sim: Simulator, step: float,
                 func: Callable[[Any], None], arg: Any = None):
        if not step > 0:
            raise SimulationError(f"poll step {step}: must be > 0")
        self.sim = sim
        self.step = step
        self.func = func
        self.arg = arg
        self._poll = sim._now + step

    @property
    def profile_tag(self) -> str:
        return owner_tag(self.func)

    def wake(self) -> None:
        sim = self.sim
        now = sim._now
        step = self.step
        poll = self._poll
        while poll < now:
            poll = poll + step
        sim.schedule_at(poll, self._fire)

    def _fire(self) -> None:
        self.func(self.arg)
