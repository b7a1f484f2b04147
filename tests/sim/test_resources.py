"""Unit tests for links and token buckets."""

import pytest

from repro.sim import DuplexLink, Link, Simulator, Store, TokenBucket
from repro.telemetry import Telemetry


class TestLink:
    def test_serialization_delay(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1000.0)  # 1000 bits/s
        arrivals = []
        link.connect(lambda msg: arrivals.append((sim.now, msg)))
        link.send("m", bits=500)
        sim.run()
        assert arrivals == [(0.5, "m")]

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
    """Chrome-trace occupancy spans are written when a reservation
    retires, from its final start/finish."""

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
        assert all(record.done for record in records)
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
            assert bucket.tokens == pytest.approx(250.0)
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
            assert bucket.tokens == pytest.approx(100.0)

        sim.spawn(check(sim))
        sim.run()

    def test_invalid_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TokenBucket(sim, rate_bps=0.0, burst_bits=1.0)
