"""Unit tests for links and token buckets."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pcie.tlp import COMPLETION_HEADER, DLLP_FRAMING, MEM_REQUEST_HEADER
from repro.sim import DuplexLink, Link, Simulator, Store, TokenBucket
from repro.telemetry import Telemetry

from .test_lane_machine import lane_depth


class TestLink:
    def test_serialization_delay(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1000.0)  # 1000 bits/s
        arrivals = []
        link.connect(lambda msg: arrivals.append((sim.now, msg)))
        link.send("m", bits=500)
        sim.run()
        assert arrivals == [(0.5, "m")]

    def test_negative_latency_is_refused_at_construction(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="latency"):
            Link(sim, rate_bps=1000.0, latency=-1e-6)
        with pytest.raises(ValueError, match="latency"):
            DuplexLink(sim, rate_bps=1000.0, latency=-1e-6)

    def test_a_nan_latency_or_rate_is_refused_at_construction(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="latency"):
            Link(sim, rate_bps=1000.0, latency=float("nan"))
        with pytest.raises(ValueError, match="rate_bps"):
            Link(sim, rate_bps=float("nan"))
        with pytest.raises(ValueError, match="rate_bps"):
            TokenBucket(sim, rate_bps=float("nan"), burst_bits=1.0)

    def test_propagation_latency_added(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1000.0, latency=0.25)
        arrivals = []
        link.connect(lambda msg: arrivals.append(sim.now))
        link.send("m", bits=500)
        sim.run()
        assert arrivals == [0.75]

    def test_back_to_back_messages_queue(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1000.0)
        arrivals = []
        link.connect(lambda msg: arrivals.append((sim.now, msg)))
        link.send("a", bits=1000)
        link.send("b", bits=1000)
        sim.run()
        assert arrivals == [(1.0, "a"), (2.0, "b")]

    def test_infinite_rate_link(self):
        sim = Simulator()
        link = Link(sim, rate_bps=None, latency=0.1)
        arrivals = []
        link.connect(lambda msg: arrivals.append(sim.now))
        link.send("a", bits=1e9)
        sim.run()
        assert arrivals == [0.1]

    def test_delivery_preserves_order(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1e6)
        arrivals = []
        link.connect(arrivals.append)
        for i in range(10):
            link.send(i, bits=100)
        sim.run()
        assert arrivals == list(range(10))

    def test_queue_delay_reports_backlog(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1000.0)
        link.connect(lambda m: None)
        link.send("a", bits=2000)
        assert link.queue_delay() == pytest.approx(2.0)

    def test_send_without_sink_raises(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1000.0)
        with pytest.raises(RuntimeError):
            link.send("a", bits=1)

    def test_stats_accumulate(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1e9)
        link.connect(lambda m: None)
        link.send("a", bits=100)
        link.send("b", bits=200)
        assert link.stats_bits == 300
        assert link.stats_messages == 2

    @pytest.mark.parametrize("arrival", [1.5, float("nan"), float("inf")],
                             ids=["before-now", "nan", "inf"])
    def test_send_refuses_an_arrival_outside_now_to_inf(self, arrival):
        """Refused before it counts the message or reserves the lane."""
        sim = Simulator()
        link = Link(sim, rate_bps=1000.0, name="wire")
        link.connect(lambda m: None)
        sim.run(until=2.0)
        link.send("pending", bits=1000, arrival=3.0)

        def state():
            return (link.stats_bits, link.stats_messages, link.busy_until,
                    list(link._lane), len(sim._queue))
        before = state()
        with pytest.raises(ValueError, match=r"'wire': arrival .* is not "
                                             r"in \[now 2.0, inf\)"):
            link.send("refused", bits=100, arrival=arrival)
        assert state() == before

    def test_idle_gap_resets_busy_window(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1000.0)
        arrivals = []
        link.connect(lambda m: arrivals.append(sim.now))
        link.send("a", bits=1000)

        def later(sim):
            yield sim.timeout(10.0)
            link.send("b", bits=1000)

        sim.spawn(later(sim))
        sim.run()
        assert arrivals == [1.0, 11.0]


class TestLaneTraceRecords:
    """Chrome-trace occupancy spans are written when a reservation is
    delivered, from its final start/finish."""

    def _link(self):
        telemetry = Telemetry(trace=True)
        sim = Simulator(telemetry=telemetry)
        link = Link(sim, rate_bps=1000.0, name="lane")
        link.trace_name = "Tlp"
        return sim, link, telemetry.tracer

    @staticmethod
    def _spans(tracer):
        return [(e["name"], round(e["ts"] / 1e6, 9),
                 round(e["dur"] / 1e6, 9))
                for e in tracer.events if e["ph"] == "X"]

    def test_nothing_is_written_before_retire(self):
        _sim, link, tracer = self._link()
        record = link.reserve(1000, 5.0, 0)
        assert self._spans(tracer) == []
        link.retire(record)
        assert self._spans(tracer) == [("Tlp", 5.0, 1.0)]

    def test_repaired_reservation_is_traced_at_its_final_time(self):
        _sim, link, tracer = self._link()
        late = link.reserve(1000, 5.0, 0)       # issued first
        early = link.reserve(2000, 4.5, 1)      # arrives first: late moves
        assert late.start == 6.5
        link.retire(early)
        link.retire(late)
        assert self._spans(tracer) == [("Tlp", 4.5, 2.0), ("Tlp", 6.5, 1.0)]

    def test_sent_message_is_traced_on_delivery(self):
        sim, link, tracer = self._link()
        link.connect(lambda message: None)
        link.send("m", bits=500)
        assert self._spans(tracer) == []
        sim.run()
        assert self._spans(tracer) == [("Tlp", 0.0, 0.5)]

    @pytest.mark.parametrize("materialize", [False, True])
    def test_train_is_traced_chunk_by_chunk(self, materialize):
        _sim, link, tracer = self._link()
        train = link.reserve_train([1000, 1000], [1.0, 3.0], 0)
        expected = [("Tlp", 1.0, 1.0), ("Tlp", 3.0, 1.0)]
        if materialize:
            # A message keyed between the chunks splits the train.
            wedge = link.reserve(500, 2.0, 2)
            link.retire(wedge)
            expected.insert(0, ("Tlp", 2.0, 0.5))
        link.retire(train)
        assert self._spans(tracer) == expected

    def test_retire_with_train_prunes_once(self):
        _sim, link, tracer = self._link()
        records = [link.reserve(1000, float(t), t) for t in (1, 2, 3)]
        link.retire(records[-1], records[:-1])
        assert lane_depth(link) == 0
        assert link.busy_until == link.queue_delay() == 4.0
        assert len(self._spans(tracer)) == 3


class TestDuplexLink:
    def test_independent_directions(self):
        sim = Simulator()
        duplex = DuplexLink(sim, rate_bps=1000.0)
        tx_arrivals, rx_arrivals = [], []
        duplex.tx.connect(lambda m: tx_arrivals.append(sim.now))
        duplex.rx.connect(lambda m: rx_arrivals.append(sim.now))
        duplex.tx.send("a", bits=1000)
        duplex.rx.send("b", bits=1000)
        sim.run()
        # Both finish at t=1: no contention between directions.
        assert tx_arrivals == [1.0]
        assert rx_arrivals == [1.0]


class TestLanesSettleByTheClock:
    """An entry is pending until the clock passes its arrival key; the
    next reserve folds the settled prefix, nobody has to retire it."""

    def test_prefix_folds_on_the_next_reserve(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1000.0, latency=0.25)
        first, second, third = (link.reserve(1000, float(t), t)
                                for t in (1, 2, 3))
        assert lane_depth(link) == 3
        sim.run(until=2.5)
        assert lane_depth(link) == 3        # time alone touches nothing
        fourth = link.reserve(1000, 10.0, 3)
        assert lane_depth(link) == 2        # the entries keyed 3 and 10
        # Folded records keep the times their owners read at delivery.
        assert (first.start, first.finish, first.delivery) == (1.0, 2.0, 2.25)
        assert (second.start, second.finish) == (2.0, 3.0)
        assert (third.start, third.finish) == (3.0, 4.0)
        assert (fourth.start, fourth.finish) == (10.0, 11.0)
        assert link.busy_until == 11.0

    def test_an_entry_keyed_exactly_at_now_is_settled(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1000.0)
        link.reserve(1000, 2.0, 0)
        sim.run(until=2.0)
        later = link.reserve(500, 2.0, 1)   # same instant, issued after
        assert (later.start, later.finish) == (3.0, 3.5)
        assert lane_depth(link) == 0        # final as computed

    def test_out_of_order_insert_after_a_fold_seeds_from_the_floor(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1000.0)
        early = link.reserve(2000, 1.0, 0)      # occupies 1.0 - 3.0
        late = link.reserve(1000, 5.0, 1)       # 5.0 - 6.0, still pending
        sim.run(until=2.0)
        # Keyed at now, ahead of ``late``: ``early`` folds first, so the
        # insert lands at the lane's head and starts from the busy floor
        # the fold left (3.0), not from its own arrival.
        wedge = link.reserve(1000, 2.0, 2)
        assert early.finish == 3.0
        assert (wedge.start, wedge.finish) == (3.0, 4.0)
        assert (late.start, late.finish) == (5.0, 6.0)
        # The wedge is itself settled: the next one folds it and queues
        # behind it, and now ``late`` has to move.
        second = link.reserve(1500, 2.0, 3)
        assert (second.start, second.finish) == (4.0, 5.5)
        assert (late.start, late.finish) == (5.5, 6.5)
        assert lane_depth(link) == 2

    def test_a_lane_that_only_carries_trains_settles_too(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1000.0)
        for round_ in range(50):
            base = sim.now + 1.0
            link.reserve_train([100, 100], [base, base + 0.5], 2 * round_)
            sim.run(until=base + 1.0)
        assert lane_depth(link) <= 1


class TestRetire:
    """The method the clock-less benchmark rows still call."""

    def test_a_burst_settles_through_its_latest_key_in_any_order(self):
        # Two deliveries that round to the same instant sort by seq, so
        # the record handed over last need not be the latest-keyed one.
        sim = Simulator()
        link = Link(sim, rate_bps=1000.0)
        first, second, third = (link.reserve(1000, float(t), t)
                                for t in (1, 2, 3))
        beyond = link.reserve(1000, 9.0, 3)
        link.retire(first, [third, second])
        assert lane_depth(link) == 1            # only ``beyond`` pends
        assert link.busy_until == 10.0
        wedge = link.reserve(1000, 3.5, 4)      # queues behind ``third``
        assert (wedge.start, wedge.finish) == (4.0, 5.0)
        assert (beyond.start, beyond.finish) == (9.0, 10.0)

    def test_retiring_a_settled_record_is_a_no_op(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1000.0)
        early = link.reserve(1000, 1.0, 0)
        late = link.reserve(1000, 5.0, 1)
        sim.run(until=2.0)
        link.reserve(1000, 6.0, 2)              # folds ``early``
        link.retire(early)
        assert lane_depth(link) == 2
        assert (late.start, late.finish) == (5.0, 6.0)


class TestRepairCost:
    """An out-of-order insert replays the lane behind it only as far as
    it moved anything: the first record that still finishes when it did
    ends the replay."""

    def _lane(self, gap):
        sim = Simulator()
        link = Link(sim, rate_bps=1000.0, latency=0.25)
        # 200 future-keyed entries, each busy for one second.
        pending = [link.reserve(1000, 10.0 + gap * index, index)
                   for index in range(200)]
        return link, pending

    def test_a_write_ahead_of_spaced_entries_replays_at_most_two(self):
        link, pending = self._lane(gap=2.0)
        before = [(r.start, r.finish, r.delivery) for r in pending]
        head = link.reserve(500, 1.0, 200)
        assert (head.start, head.finish) == (1.0, 1.5)
        assert [(r.start, r.finish, r.delivery) for r in pending] == before
        assert link.stats_repairs == 1
        assert link.stats_replayed <= 2        # 200 before the early stop

    def test_a_write_that_pushes_entries_replays_just_those(self):
        link, pending = self._lane(gap=2.0)
        # Arrives at 9.5 and holds the lane for 3 s: the entries keyed
        # 10, 12 and 14 move, the one keyed 16 starts on time again.
        link.reserve(3000, 9.5, 200)
        assert [(r.start, r.finish) for r in pending[:4]] == [
            (12.5, 13.5), (13.5, 14.5), (14.5, 15.5), (16.0, 17.0)]
        assert link.stats_replayed == 4

    def test_back_to_back_entries_all_move(self):
        link, pending = self._lane(gap=1.0)
        link.reserve(500, 1.0, 200)             # absorbed by the gap ahead
        assert link.stats_replayed == 1
        link.reserve(500, 9.75, 201)            # 9.75 - 10.25: all shift
        assert link.stats_replayed == 1 + 200
        assert [r.start for r in pending[:3]] == [10.25, 11.25, 12.25]
        assert pending[-1].finish == 10.25 + 200
        assert link.stats_repairs == 2


class TestTokenBucket:
    def test_initial_burst_available(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate_bps=1000.0, burst_bits=500.0)
        assert bucket.try_consume(500.0)
        assert not bucket.try_consume(1.0)

    def test_refill_over_time(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate_bps=1000.0, burst_bits=500.0)
        bucket.try_consume(500.0)

        def check(sim):
            yield sim.timeout(0.25)
            bucket._refill()
            assert bucket._tokens == pytest.approx(250.0)
            assert bucket.try_consume(250.0)

        sim.spawn(check(sim))
        sim.run()

    def test_delay_for_reports_wait(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate_bps=1000.0, burst_bits=100.0)
        bucket.try_consume(100.0)
        assert bucket.delay_for(500.0) == pytest.approx(0.5)

    def test_tokens_capped_at_burst(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate_bps=1e9, burst_bits=100.0)

        def check(sim):
            yield sim.timeout(10.0)
            bucket._refill()
            assert bucket._tokens == pytest.approx(100.0)

        sim.spawn(check(sim))
        sim.run()

    def test_invalid_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TokenBucket(sim, rate_bps=0.0, burst_bits=1.0)


class _Slices:
    """A tracer stand-in: the occupancy slices a lane writes."""

    def __init__(self):
        self.slices = []

    def complete(self, _process, _lane, _name, start, finish, args):
        self.slices.append((start, finish, args["bits"]))


ISSUES = st.lists(st.tuples(
    st.integers(1, 1024),       # bytes the transaction carries
    st.floats(0.0, 3.0),        # the first chunk's key ahead of now
    st.floats(0.0, 1.0),        # spacing of the chunks' keys
    st.floats(0.0, 2.0)),       # time to run after the issue
    min_size=1, max_size=24)

#: A PCIe train's TLPs, as ``PcieFabric._train`` cuts them: header bits
#: and the payload bytes each TLP carries (MPS for a write, RCB for a
#: read's completions; a 64 B RCB makes long completion trains).
TRAIN_KINDS = {
    "write": ((MEM_REQUEST_HEADER + DLLP_FRAMING) * 8, 256),
    "completion": ((COMPLETION_HEADER + DLLP_FRAMING) * 8, 64),
}


@pytest.mark.parametrize("kind", sorted(TRAIN_KINDS))
class TestAWriteTrainIsItsChunks:
    """A train — a posted write's requests or a read's completions — is
    one lane entry standing for what its chunks reserved one by one
    would be: every chunk's times, the trace slices, the bits, messages,
    repairs and replayed records of the lane all come out the same,
    through settling, out-of-order inserts before a train and wedges
    that split one."""

    @given(issues=ISSUES, rate=st.sampled_from([1000.0, 3333.0, None]))
    def test_same_lane_as_the_chunks_reserved_one_by_one(self, kind, issues,
                                                          rate):
        header, size = TRAIN_KINDS[kind]
        sim = Simulator()
        trains, chunks = (Link(sim, rate, latency=0.25) for _ in range(2))
        trains._tracer, chunks._tracer = _Slices(), _Slices()
        seq = 0
        issued = []
        for length, ahead, spacing, gap in issues:
            count = (length - 1) // size + 1
            bits_list = ([header + size * 8] * (count - 1)
                         + [header + (length - (count - 1) * size) * 8])
            arrivals = [sim.now + ahead + j * spacing for j in range(count)]
            if count == 1:
                handle = trains.reserve(bits_list[0], arrivals[0], seq)
            else:
                handle = trains.reserve_train(bits_list, arrivals, seq)
            issued.append((handle, [
                chunks.reserve(bits, arrival, seq + j) for j, (bits, arrival)
                in enumerate(zip(bits_list, arrivals))]))
            seq += len(bits_list)
            sim.run(until=sim.now + gap)
        assert [(lane.stats_bits, lane.stats_messages, lane.busy_until,
                 lane.stats_repairs, lane.stats_replayed)
                for lane in (trains, chunks)] == [
            (chunks.stats_bits, chunks.stats_messages, chunks.busy_until,
             chunks.stats_repairs, chunks.stats_replayed)] * 2
        for handle, records in issued:
            last = records[-1]
            assert (handle.start, handle.finish, handle.delivery) == (
                last.start, last.finish, last.delivery)
            trains.trace_occupancy(handle)
            for record in records:
                chunks.trace_occupancy(record)
        assert trains._tracer.slices == chunks._tracer.slices
