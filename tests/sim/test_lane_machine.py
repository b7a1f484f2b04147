"""Stateful oracle for one reservation lane.

A :class:`~repro.sim.Link` resolves occupancy at issue time and repairs
it when a later-issued message arrives earlier.  The reference it must
replay is the model it replaced: one event per arrival, dispatched in
``(arrival, seq)`` order, each starting at ``max(arrival, busy_until)``.
The machine drives every arm of the lane — settling by the clock,
in-order append, out-of-order repair, one-entry trains, a wedge that
splits a train back into chunks, time running past pending arrivals
with nobody retiring them, and the single and batched ``retire`` the
clock-less benchmark rows still call — and after every step recomputes
that reference from the whole issue history.

The protocol the callers keep is the machine's too: arrivals are never
before ``now``, ``seq`` is monotonic in issue order, and a handle that
is retired at all is retired at (or after) its delivery instant,
earliest delivery first.  A handle nobody retires stays readable: its
times are final once the clock has passed its arrival.
"""

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.sim import Link, Simulator

LATENCY = 0.25
BITS = st.integers(1, 4000)
GAP = st.floats(0.0, 4.0, allow_nan=False)
FRACTION = st.floats(0.0, 1.0, allow_nan=False, exclude_max=True)


def lane_depth(link: Link) -> int:
    """Entries the link still holds, whatever lists it keeps them in."""
    return max((len(value) for value in vars(link).values()
                if isinstance(value, list)), default=0)


class LaneMachine(RuleBasedStateMachine):
    @initialize(rate=st.sampled_from([1000.0, 3333.0, None]))
    def build(self, rate):
        self.sim = Simulator()
        self.rate = rate
        self.link = Link(self.sim, rate, latency=LATENCY)
        self.seq = 0
        #: Every chunk ever issued: (arrival, seq, bits).
        self.history = []
        #: Unretired handles: (handle, seqs of its chunks).
        self.live = []
        #: The instant of the last issue — lanes settle when touched —
        #: and the chunks it issued.
        self.touched_at = 0.0
        self.last_issue = ()

    # -- helpers ----------------------------------------------------------

    def _issue(self, bits, arrival):
        handle = self.link.reserve(bits, arrival, self.seq)
        self.history.append((arrival, self.seq, bits))
        self.live.append((handle, (self.seq,)))
        self.touched_at, self.last_issue = self.sim.now, (self.seq,)
        self.seq += 1

    def _issue_train(self, bits_list, arrivals):
        handle = self.link.reserve_train(bits_list, arrivals, self.seq)
        seqs = tuple(range(self.seq, self.seq + len(bits_list)))
        self.history.extend(zip(arrivals, seqs, bits_list))
        self.live.append((handle, seqs))
        self.touched_at, self.last_issue = self.sim.now, seqs
        self.seq += len(bits_list)

    def _reference(self):
        """seq -> (start, finish) under one event per arrival."""
        times = {}
        busy = 0.0
        for arrival, seq, bits in sorted(self.history):
            start = arrival if arrival > busy else busy
            busy = start if self.rate is None else start + bits / self.rate
            times[seq] = (start, busy)
        return times, busy

    def _pending_arrivals(self):
        """Arrivals of live chunks keyed after ``now``."""
        now = self.sim.now
        live_seqs = {seq for _handle, seqs in self.live for seq in seqs}
        return sorted(arrival for arrival, seq, _bits in self.history
                      if seq in live_seqs and arrival > now)

    def _pending_trains(self):
        """(first, last) arrival of live trains a wedge can still split."""
        now = self.sim.now
        arrival_of = {seq: arrival for arrival, seq, _bits in self.history}
        spans = []
        for _handle, seqs in self.live:
            first, last = arrival_of[seqs[0]], arrival_of[seqs[-1]]
            if len(seqs) > 1 and last > first and last > now:
                spans.append((max(first, now), last))
        return spans

    def _earliest(self, count):
        # Equal deliveries (an infinite-rate lane) retire in key order.
        self.live.sort(key=lambda entry: (entry[0].delivery, entry[1][-1]))
        batch, self.live = self.live[:count], self.live[count:]
        return [handle for handle, _seqs in batch]

    # -- rules ------------------------------------------------------------

    @rule(bits=BITS)
    def reserve_now(self, bits):
        self._issue(bits, self.sim.now)

    @rule(bits=BITS, ahead=GAP)
    def reserve_ahead(self, bits, ahead):
        self._issue(bits, self.sim.now + ahead)

    @precondition(lambda self: self._pending_arrivals())
    @rule(bits=BITS, data=st.data(), back=FRACTION)
    def reserve_before_pending(self, bits, data, back):
        """Issued later, arrives earlier: everything behind it repairs."""
        target = data.draw(st.sampled_from(self._pending_arrivals()))
        now = self.sim.now
        self._issue(bits, now + (target - now) * back)

    @rule(chunks=st.lists(st.tuples(BITS, GAP), min_size=2, max_size=4),
          ahead=GAP)
    def reserve_train(self, chunks, ahead):
        arrivals = []
        arrival = self.sim.now + ahead
        for _bits, gap in chunks:
            arrival += gap / 4
            arrivals.append(arrival)
        self._issue_train([bits for bits, _gap in chunks], arrivals)

    @precondition(lambda self: self._pending_trains())
    @rule(bits=BITS, data=st.data(), into=FRACTION)
    def wedge_into_train(self, bits, data, into):
        """Keyed between a pending train's chunks: the train splits."""
        first, last = data.draw(st.sampled_from(self._pending_trains()))
        self._issue(bits, first + (last - first) * into)

    @precondition(lambda self: self.live)
    @rule()
    def retire_earliest(self):
        (handle,) = self._earliest(1)
        self.sim.run(until=handle.delivery)
        self.link.retire(handle)

    @precondition(lambda self: len(self.live) >= 2)
    @rule(count=st.integers(2, 4))
    def retire_burst(self, count):
        """One aggregate delivery event retires a burst in one prune."""
        burst = self._earliest(count)
        self.sim.run(until=burst[-1].delivery)
        self.link.retire(burst[-1], burst[:-1])

    @rule(dt=GAP)
    def advance(self, dt):
        self.sim.run(until=self.sim.now + dt)

    @precondition(lambda self: self._pending_arrivals())
    @rule(data=st.data())
    def advance_past_pending(self, data):
        """The clock passes pending arrivals and nothing is retired: the
        fabric's life since lanes settle by the clock."""
        target = data.draw(st.sampled_from(self._pending_arrivals()))
        self.sim.run(until=target)

    # -- the oracle ---------------------------------------------------------

    @invariant()
    def lane_replays_the_per_arrival_model(self):
        times, busy = self._reference()
        link = self.link
        for handle, seqs in self.live:
            start, finish = times[seqs[-1]]
            assert handle.delivery == finish + LATENCY
            if len(seqs) == 1:
                assert (handle.start, handle.finish) == (start, finish)
        assert link.busy_until == busy
        assert link.queue_delay() == max(0.0, busy - self.sim.now)
        assert link.stats_messages == len(self.history)
        assert link.stats_bits == sum(bits for _a, _s, bits in self.history)
        # No retired prefix survives its prune: the lane holds nothing
        # keyed before the earliest chunk that is still live.
        live_seqs = {seq for _handle, seqs in self.live for seq in seqs}
        keys = sorted((arrival, seq) for arrival, seq, _b in self.history)
        first_live = next((index for index, key in enumerate(keys)
                           if key[1] in live_seqs), len(keys))
        assert lane_depth(link) <= len(keys) - first_live
        # Nor does a settled one, retired or not: once the lane has been
        # touched at ``now`` it holds at most the unretired chunks keyed
        # after that instant (every chunk of a train that ends after it:
        # a wedge may have split the train since), plus what that very
        # issue put in.
        arrival_of = {seq: arrival for arrival, seq, _b in self.history}
        pending = sum(len(seqs) for _handle, seqs in self.live
                      if seqs != self.last_issue
                      and arrival_of[seqs[-1]] > self.touched_at)
        assert lane_depth(link) <= pending + len(self.last_issue)


TestLaneMachine = LaneMachine.TestCase
