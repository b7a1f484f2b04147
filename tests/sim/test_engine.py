"""Unit tests for the discrete-event engine."""

import random

import pytest

from repro.experiments.setups import flde_echo_remote
from repro.sim import Event, PollWait, Pump, SimulationError, Simulator, Store
from repro.telemetry import Telemetry

NAN, INF = float("nan"), float("inf")


def test_timeout_advances_clock():
    sim = Simulator()
    times = []

    def proc(sim):
        yield sim.timeout(1.5)
        times.append(sim.now)
        yield sim.timeout(0.5)
        times.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert times == [1.5, 2.0]


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, lambda: order.append("c"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    sim = Simulator()
    order = []
    for tag in "abc":
        sim.schedule(1.0, lambda t=tag: order.append(t))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_early():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append(True))
    end = sim.run(until=2.0)
    assert end == 2.0
    assert not fired
    sim.run()
    assert fired


def test_run_until_a_passed_time_leaves_the_clock_and_the_queue():
    """The clock never rewinds, with entries pending or not: a horizon
    already passed dispatches nothing."""
    for pending in (True, False):
        sim = Simulator()
        fired = []
        if pending:
            sim.schedule(5.0, lambda: fired.append(sim.now))
        assert sim.run(until=2.0) == 2.0
        sim.schedule(0.0, lambda: fired.append(sim.now))
        assert sim.run(until=1.0) == 2.0
        assert sim.now == 2.0 and not fired
        sim.run()
        assert fired == ([2.0, 5.0] if pending else [2.0])


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


@pytest.mark.parametrize("push", [
    lambda sim: sim.schedule(NAN, lambda: None),
    lambda sim: sim.call_later(NAN, print, None),
    lambda sim: sim.timeout(NAN),
    lambda sim: sim.schedule_at(NAN, lambda: None),
    lambda sim: sim.run(until=NAN),
], ids=["schedule", "call_later", "timeout", "schedule_at", "run"])
def test_a_nan_time_is_refused(push):
    """A NaN compares false both ways: pushed, it dispatched ahead of
    every real entry with ``now`` reading NaN, and ``run(until=nan)``
    ran everything and returned NaN."""
    sim = Simulator()
    fired = []
    sim.call_later(0.5, fired.append, "real")
    with pytest.raises(SimulationError):
        push(sim)
    assert sim.run() == 0.5 and fired == ["real"]


@pytest.mark.parametrize("push, name", [
    (lambda sim: sim.timeout(INF), "Event.succeed"),
    (lambda sim: sim.call_later(INF, print, None), "print"),
    (lambda sim: PollWait(sim, INF, print).wake(), "PollWait._fire"),
], ids=["timeout", "call_later", "poll_wait"])
def test_an_entry_at_infinite_time_is_refused_and_stays_queued(push, name):
    """It used to run, and left the clock at ``inf``, where every later
    time read ``inf`` too.  A finite horizon stops short of it."""
    sim = Simulator()
    fired = []
    sim.call_later(0.5, fired.append, "real")
    push(sim)
    for _ in range(2):
        with pytest.raises(SimulationError, match=f"{name}.* at time inf"):
            sim.run()
        assert sim.now == 0.5 and fired == ["real"]
    assert sim.run(until=2.0) == 2.0 == sim.now


@pytest.mark.parametrize("pending", [False, True], ids=["empty", "pending"])
def test_an_infinite_horizon_is_refused(pending):
    """``run(until=inf)`` ran everything and set the clock to ``inf``,
    on an empty queue too."""
    sim = Simulator()
    fired = []
    if pending:
        sim.call_later(0.5, fired.append, "real")
    with pytest.raises(SimulationError, match="until=inf"):
        sim.run(until=INF)
    assert sim.now == 0.0 and not fired
    assert sim.run() == (0.5 if pending else 0.0)


def test_an_entry_whose_handler_raises_is_counted():
    """The engine and the profiler count the same dispatches: the
    entry that raised read 1 against the profiler's 2."""
    sim = Simulator(telemetry=Telemetry(trace=False, profile=True))

    def fail():
        raise ValueError("handler failed")
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, fail)
    with pytest.raises(ValueError):
        sim.run()
    assert sim.stats_events == sim.profiler.total_events == 2


def test_max_events_dispatches_at_most_that_many():
    """The guard refuses the sixth entry before popping it; it used to
    dispatch six, then raise.  The refused one stays queued."""
    sim = Simulator()
    ticks = []

    def tick():
        ticks.append(sim.now)
        sim.schedule(1.0, tick)
    sim.schedule(1.0, tick)
    with pytest.raises(SimulationError, match="exceeded 5 events"):
        sim.run(max_events=5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0] and sim.stats_events == 5
    assert sim.now == 5.0
    sim.run(until=6.0)
    assert ticks[-1] == 6.0 and sim.stats_events == 6


def test_process_return_value_via_done_event():
    sim = Simulator()
    results = []

    def worker(sim):
        yield sim.timeout(1.0)
        return 42

    def parent(sim):
        value = yield sim.spawn(worker(sim))
        results.append((sim.now, value))

    sim.spawn(parent(sim))
    sim.run()
    assert results == [(1.0, 42)]


def test_event_fires_once_only():
    sim = Simulator()
    event = Event(sim)
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_yielding_non_event_raises():
    sim = Simulator()

    def bad(sim):
        yield 17

    sim.spawn(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer(sim):
            item = yield store.get()
            got.append(item)

        store.try_put("x")
        sim.spawn(consumer(sim))
        sim.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer(sim):
            item = yield store.get()
            got.append((sim.now, item))

        def producer(sim):
            yield sim.timeout(2.0)
            store.try_put("y")

        sim.spawn(consumer(sim))
        sim.spawn(producer(sim))
        sim.run()
        assert got == [(2.0, "y")]

    def test_fifo_ordering(self):
        sim = Simulator()
        store = Store(sim)
        for i in range(5):
            store.try_put(i)
        got = []

        def consumer(sim):
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        sim.spawn(consumer(sim))
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_capacity_drop_on_try_put(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        assert store.try_put(1)
        assert store.try_put(2)
        assert not store.try_put(3)
        assert store.stats_dropped == 1
        assert len(store) == 2

    def test_blocking_put_waits_for_space(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        events = []

        def producer(sim):
            yield store.put("a")
            events.append(("a", sim.now))
            yield store.put("b")
            events.append(("b", sim.now))

        def consumer(sim):
            yield sim.timeout(5.0)
            item = yield store.get()
            events.append((item, sim.now, "got"))

        sim.spawn(producer(sim))
        sim.spawn(consumer(sim))
        sim.run()
        assert ("a", 0.0) in events
        assert ("b", 5.0) in events

    def test_try_get_empty_returns_none(self):
        sim = Simulator()
        store = Store(sim)
        assert store.try_get() is None

    def test_max_depth_tracking(self):
        sim = Simulator()
        store = Store(sim)
        for i in range(7):
            store.try_put(i)
        assert store.stats_max_depth == 7


@pytest.mark.parametrize("capacity", [0, -1, NAN])
def test_a_store_with_no_slot_is_refused(capacity):
    """It would refuse every put."""
    with pytest.raises(SimulationError, match="capacity"):
        Store(Simulator(), capacity=capacity)


def test_none_is_not_a_store_item():
    """``pop_or_park`` returns ``None`` to mean parked: a queued
    ``None`` stopped a ``Pump`` and stranded the items behind it."""
    sim = Simulator()
    store = Store(sim)
    seen = []
    Pump(sim, store, seen.append, "consumer")
    for put in (store.try_put, store.put_or_park, store.put):
        with pytest.raises(SimulationError, match="None"):
            put(None)
    for item in (1, 2):
        assert store.try_put(item)
    sim.run()
    assert seen == [1, 2] and len(store) == 0 and store.stats_put == 2


@pytest.mark.parametrize("late", [1.0, NAN])
def test_a_hold_deadline_out_of_order_is_refused(late):
    """The purge stops at the first live deadline: holds ``[5.0, 1.0]``
    on two slots, read at t=2, refused both puts with one slot free."""
    sim = Simulator()
    store = Store(sim, capacity=2)
    store.hold_slot(5.0)
    with pytest.raises(SimulationError, match="hold_slot"):
        store.hold_slot(late)
    sim.run(until=2.0)
    assert store.try_put("a") and not store.try_put("b")
    store.hold_slot(5.0)        # equal deadlines are in order


@pytest.mark.parametrize("step", [0.0, -1e-9, NAN])
def test_a_poll_wait_that_never_advances_is_refused(step):
    """``wake`` steps the poll instant up to now: a zero step looped
    forever."""
    with pytest.raises(SimulationError, match="step"):
        PollWait(Simulator(), step, print)


def test_parked_getters_are_served_in_arrival_order():
    """The first parked getter waits in the slot and the rest queue
    behind it; a getter that parks again from its own hand-off goes to
    the back."""
    sim = Simulator()
    store = Store(sim, capacity=2)
    got = []

    def getter(name, again=False):
        def take(item):
            got.append((name, item))
            if again:
                store.pop_or_park(getter(name))
        return take

    assert store.pop_or_park(getter("a", again=True)) is None
    assert store.pop_or_park(getter("b")) is None
    assert store.pop_or_park(getter("c")) is None
    for item in range(4):
        assert store.try_put(item)
    assert got == [("a", 0), ("b", 1), ("c", 2), ("a", 3)]
    assert len(store) == 0 and store.stats_max_depth == 0


class _Unread:
    """Hold deadlines no put may look at."""

    def _read(self, *_args):
        raise AssertionError("a put read the hold deadlines")

    __bool__ = __len__ = __getitem__ = __iter__ = _read

    def __getattr__(self, name):
        self._read()


def _refused(_item):
    raise AssertionError("the put was parked")


def test_fullness_is_asked_only_where_a_put_could_be_refused():
    """A put to an unbounded store, or to a full one with a getter
    parked (the item goes straight through), is never refused and reads
    no hold deadline."""
    sim = Simulator()
    unbounded = Store(sim)
    unbounded._held_until = _Unread()
    for item in range(3):
        assert unbounded.try_put(item)
        assert unbounded.put_or_park(item, _refused)
    assert list(unbounded._items) == [0, 0, 1, 1, 2, 2]

    full = Store(sim, capacity=1)
    full.hold_slot(1.0)
    assert not full.try_put("dropped")
    got = []
    assert full.pop_or_park(got.append) is None
    full._held_until = _Unread()
    assert full.try_put("a")
    assert full.pop_or_park(got.append) is None
    assert full.put_or_park("b", _refused)
    assert got == ["a", "b"] and full.stats_dropped == 1


def test_a_hold_on_an_unbounded_store_keeps_no_deadline():
    sim = Simulator()
    store = Store(sim)
    for until in range(10_000):
        store.hold_slot(float(until))
    assert not store._held_until
    assert store.try_put("item")


def test_a_backpressured_send_queue_wakes_once_per_deadline(monkeypatch):
    """256 back-to-back 64 B frames against the 32-deep ``dma_window``:
    the fetch stage is parked on the window for most of the burst and
    every slot the transmit stage pops early is a hold.
    ``_expire_holds`` dispatches at most once per instant per store,
    only at hold deadlines, and no more often than deadlines pass while
    (or at the instant) a putter is parked: 232 wakes against 234 such
    deadlines, where the re-arm that did not look for a pending wake
    dispatched 24767 — every deadline inheriting its predecessor's
    duplicates and adding one."""
    wakes = []          # (store, now)
    deadlines = {}      # store -> hold deadlines
    parked = {}         # store -> [(parked_at, admitted_at or None)]

    expire_holds = Store._expire_holds
    hold_slot = Store.hold_slot
    put_or_park = Store.put_or_park

    def counting_expire(store):
        wakes.append((store, store.sim.now))
        expire_holds(store)

    def recording_hold(store, until):
        deadlines.setdefault(store, set()).add(until)
        hold_slot(store, until)

    def recording_put(store, item, func=None):
        # An admission puts its item again with no continuation; the
        # store has room for it then, so it is never parked here.
        spans = parked.setdefault(store, [])

        def admitted(admitted_item):
            spans[-1][1] = store.sim.now
            func(admitted_item)

        if put_or_park(store, item, admitted):
            return True
        spans.append([store.sim.now, None])
        return False

    monkeypatch.setattr(Store, "_expire_holds", counting_expire)
    monkeypatch.setattr(Store, "hold_slot", recording_hold)
    monkeypatch.setattr(Store, "put_or_park", recording_put)

    random.seed(7)
    sim = Simulator()
    loadgen = flde_echo_remote(sim).loadgen

    def drive():
        yield from loadgen.run_open_loop([64] * 256)
        yield from loadgen.drain()

    sim.spawn(drive())
    sim.run()
    assert loadgen.stats_sent == 256

    assert wakes and len(set(wakes)) == len(wakes)
    passed_while_parked = 0
    for store, held in deadlines.items():
        spans = parked.get(store, ())
        passed_while_parked += sum(
            any(start <= deadline and (end is None or deadline <= end)
                for start, end in spans)
            for deadline in held)
    assert all(now in deadlines[store] for store, now in wakes)
    assert len(wakes) <= passed_while_parked
