"""Stateful oracle for ``Store``: parked continuations replay Events.

``Store`` wakes its consumers and blocked producers through one
mechanism, a parked callable called in the deliverer's frame.  The
reference it must replay is the store it replaced
(``tests/sim/store_oracle.py``): an :class:`~repro.sim.Event` per
getter and per blocked putter, fired by ``_deliver``.  The machine
drives both with the same random interleaving — ``try_put``/``put``,
``try_get``/``get``, the flat workers' ``pop_or_park``/``put_or_park``
(against the ``try_get`` + ``get().add_callback`` and ``put()`` +
``add_callback`` idioms they replaced), a producer that puts again from
its admission callback, ``hold_slot``, a hold taken just before a pop,
a second and third parked getter (the first waits in ``Store``'s slot,
the rest in its overflow queue), a getter parked behind holds that fill
the store, and time — on bounded and unbounded stores, and after every
step holds the two sides
to the same log: who got which item when, which put was admitted when,
the drop and depth counters, how many getters are parked, the
scheduler's event count (hold-expiry wakes) and the exported depth
gauge and wait histogram — the level
``Store`` publishes as a pulled ``(value, peak)`` against the gauge the
reference pushes at every depth change, and the wait histogram its
hand-offs fold in place against the one the reference fills through
``observe``.
"""

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.sim import Simulator, Store
from repro.telemetry import Telemetry

from .store_oracle import OracleStore

GAP = st.floats(0.0, 2.0, allow_nan=False)


class _Side:
    """One store, its simulator and everything observable about it."""

    def __init__(self, store_class, capacity):
        self.sim = Simulator(telemetry=Telemetry(trace=False))
        self.store = store_class(self.sim, capacity=capacity, name="s")
        self.log = []

    def note(self, what, *detail):
        self.log.append((self.sim.now, what) + detail)

    def exported(self):
        """The store's depth gauge and wait histogram as exported."""
        export = self.sim.telemetry.metrics.to_dict()
        return (export["gauges"]["store.s.depth"],
                export["histograms"]["store.s.wait"])

    def state(self):
        store = self.store
        return (self.log, len(store), store.stats_put, store.stats_dropped,
                store.stats_max_depth, self.parked_getters(),
                len(store._putters), self.sim.now, self.sim.stats_events,
                self.exported())

    # -- operations both stores spell the same way ----------------------

    def try_put(self, item):
        self.note("try_put", item, self.store.try_put(item))

    def try_get(self):
        self.note("try_get", self.store.try_get())

    def put(self, item):
        self.store.put(item).add_callback(
            lambda event: self.note("admitted", event._value))

    def get(self, who):
        self.store.get().add_callback(
            lambda event: self.note("got", who, event._value))


class _Parked(_Side):
    """The flat workers' side: plain callables on the new store."""

    def __init__(self, capacity):
        super().__init__(Store, capacity)

    def parked_getters(self):
        store = self.store
        return (store._getter is not None) + len(store._getters)

    def worker_get(self, who):
        def got(item):
            self.note("got", who, item)
        item = self.store.pop_or_park(got)
        if item is not None:
            got(item)

    def worker_put(self, item):
        def admitted(admitted_item):
            self.note("admitted", admitted_item)
        if self.store.put_or_park(item, admitted):
            admitted(item)

    def worker_put_again(self, item, following):
        def admitted(admitted_item):
            self.note("admitted", admitted_item)
            self.worker_put(following)
        if self.store.put_or_park(item, admitted):
            admitted(item)


class _Evented(_Side):
    """The same workers as they were written against the Event store."""

    def __init__(self, capacity):
        super().__init__(OracleStore, capacity)

    def parked_getters(self):
        return len(self.store._getters)

    def worker_get(self, who):
        item = self.store.try_get()
        if item is None:
            self.get(who)
        else:
            self.note("got", who, item)

    worker_put = _Side.put

    def worker_put_again(self, item, following):
        def admitted(event):
            self.note("admitted", event._value)
            self.put(following)
        self.store.put(item).add_callback(admitted)


class StoreMachine(RuleBasedStateMachine):
    @initialize(capacity=st.sampled_from([None, 1, 2, 3]))
    def build(self, capacity):
        self.capacity = capacity
        self.sides = (_Parked(capacity), _Evented(capacity))
        self.items = 0
        self.getters = 0
        self.last_hold = 0.0

    def _both(self, operation, *args):
        for side in self.sides:
            getattr(side, operation)(*args)

    def _item(self):
        self.items += 1
        return self.items

    def _getter(self):
        self.getters += 1
        return self.getters

    # -- rules ------------------------------------------------------------

    @rule()
    def try_put(self):
        self._both("try_put", self._item())

    @rule()
    def put(self):
        self._both("put", self._item())

    @rule()
    def worker_put(self):
        self._both("worker_put", self._item())

    @rule()
    def worker_put_again(self):
        """A producer that puts its next item from the callback that
        admits this one, as a send queue's fetch stage does
        (``_put_admitted`` → ``_drain``).  Admitted by a
        hold-expiry wake, its second put parks against the next hold
        and arms that wake from inside ``_expire_holds`` — the one path
        on which a store could arm two wakes for one deadline."""
        self._both("worker_put_again", self._item(), self._item())

    @rule()
    def try_get(self):
        self._both("try_get")

    @rule()
    def get(self):
        self._both("get", self._getter())

    @rule()
    def worker_get(self):
        self._both("worker_get", self._getter())

    @rule(getters=st.integers(2, 3))
    def worker_gets(self, getters):
        """Consumers that share one store, as an accelerator's units
        share its front end: on an empty store the first parks in the
        slot and the rest queue behind it, to be served in order."""
        for _ in range(getters):
            self._both("worker_get", self._getter())

    @precondition(lambda self: self.capacity is not None)
    @rule(ahead=GAP)
    def hold_slot(self, ahead):
        """A fused consumer keeps its popped slot occupied a while;
        deadlines are taken in nondecreasing order."""
        until = max(self.last_hold, self.sides[0].sim.now + ahead)
        self.last_hold = until
        for side in self.sides:
            side.store.hold_slot(until)

    @precondition(lambda self: self.capacity is not None)
    @rule(ahead=GAP)
    def hold_then_pop(self, ahead):
        """A fused consumer holds the slot of the item it pops next, as
        a send queue's transmit stage does (``_pull``): a putter parked
        on a store full of items is refused against the live hold, and
        once a pop has emptied the store it must be admitted when the
        hold expires."""
        self.hold_slot(ahead)
        self._both("try_get")

    @precondition(lambda self: self.capacity is not None
                  and not len(self.sides[0].store))
    @rule(ahead=GAP)
    def getter_behind_holds(self, ahead):
        """Holds fill an empty store and a consumer parks on it: a put
        then goes straight through to the getter, never refused."""
        for _ in range(self.capacity):
            self.hold_slot(ahead)
        self._both("worker_get", self._getter())

    @rule(dt=GAP)
    def advance(self, dt):
        until = self.sides[0].sim.now + dt
        for side in self.sides:
            side.sim.run(until=until)

    # -- the oracle ---------------------------------------------------------

    @invariant()
    def parked_continuations_replay_the_event_store(self):
        parked, evented = self.sides
        assert parked.state() == evented.state()


TestStoreMachine = StoreMachine.TestCase


def test_a_putter_that_puts_again_arms_one_wake_per_deadline():
    """The machine's shrunk counterexample for a store whose
    ``_expire_holds`` re-arms without looking at ``_hold_wake``, run
    here at any depth: two holds fill the store, the putter admitted at
    the first deadline parks its next item against the second, and each
    deadline costs one wake (the second cost two)."""
    for side in (_Parked(2), _Evented(2)):
        side.store.hold_slot(0.5)
        side.store.hold_slot(1.0)
        side.worker_put_again(1, 2)
        side.sim.run()
        assert side.log == [(0.5, "admitted", 1), (1.0, "admitted", 2)]
        assert side.exported()[0] == {"value": 2, "peak": 2}
        assert side.sim.stats_events == 2


def test_a_putter_refused_against_a_hold_is_admitted_at_its_deadline():
    """The machine's ``hold_then_pop`` path at any depth: a putter parks
    on a store full of items (no hold, so no wake), and a consumer
    holding a slot before each pop empties the store; each admission the
    pops try is refused against the live holds.  With nothing left to
    pop, the putter is admitted at the holds' deadline, by one wake;
    before the fix it stayed parked for good."""
    for side in (_Parked(2), _Evented(2)):
        side.try_put(1)
        side.try_put(2)
        side.worker_put(3)
        for _ in range(2):
            side.store.hold_slot(0.5)
            side.try_get()
        side.sim.run()
        assert side.log[-1] == (0.5, "admitted", 3)
        assert len(side.store) == 1 and not side.store._putters
        assert side.sim.stats_events == 1
