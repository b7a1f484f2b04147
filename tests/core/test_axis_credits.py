"""Unit tests for the AXI-stream interface and credit machinery (§5.5)."""

import pytest

from repro.core import AxisMetadata, AxisStream, CreditInterface
from repro.sim import Simulator


class TestAxisStream:
    def test_a_parked_consumer_takes_the_next_push(self):
        sim = Simulator()
        stream = AxisStream(sim, "s")
        got = []
        assert stream.pop_or_park(got.append) is None
        stream.push(b"abc", AxisMetadata(queue_id=3))
        [(data, meta)] = got
        assert (data, meta.queue_id) == (b"abc", 3)

    def test_bounded_stream_drops_on_overflow(self):
        """The no-backpressure rule: a slow accelerator loses packets."""
        sim = Simulator()
        stream = AxisStream(sim, "s", depth=2)
        assert stream.push(b"1", AxisMetadata())
        assert stream.push(b"2", AxisMetadata())
        assert not stream.push(b"3", AxisMetadata())
        assert stream.stats_dropped == 1
        assert stream._store.stats_put == 2

    def test_fifo_order(self):
        sim = Simulator()
        stream = AxisStream(sim, "s")
        for i in range(5):
            stream.push(bytes([i]), AxisMetadata())
        got = [stream.pop_or_park(None)[0][0] for _ in range(5)]
        assert got == [0, 1, 2, 3, 4]


class TestAxisMetadata:
    def test_defaults(self):
        meta = AxisMetadata()
        assert meta.queue_id == 0
        assert meta.msg_first and meta.msg_last
        assert meta.signaled

    def test_repr_mentions_queue_and_context(self):
        meta = AxisMetadata(queue_id=2, context_id=0xAB)
        assert "q=2" in repr(meta) and "0xab" in repr(meta)


class TestCreditInterface:
    def test_consume_and_refund(self):
        sim = Simulator()
        credits = CreditInterface(sim)
        credits.configure(0, 4)
        assert credits.available(0) == 4
        assert credits.try_consume(0, 3)
        assert not credits.try_consume(0, 2)
        credits.refund(0, 2)
        assert credits.available(0) == 3

    def test_refund_capped_at_capacity(self):
        sim = Simulator()
        credits = CreditInterface(sim)
        credits.configure(0, 4)
        credits.refund(0, 10)
        assert credits.available(0) == 4

    def test_a_waiter_is_served_by_the_refund_that_covers_it(self):
        sim = Simulator()
        credits = CreditInterface(sim)
        credits.configure(0, 1)
        served = []
        assert credits.try_consume(0)
        assert not credits.try_consume(0)
        credits.wait(0, 1, served.append, "second")
        assert served == []
        credits.refund(0, 1)
        # The refund's credit went to the waiter, not to the balance.
        assert served == ["second"]
        assert credits.available(0) == 0
        assert credits.stats_waits == 1

    def test_per_queue_isolation(self):
        sim = Simulator()
        credits = CreditInterface(sim)
        credits.configure(0, 2)
        credits.configure(1, 5)
        credits.try_consume(0, 2)
        assert credits.available(1) == 5

    def test_refund_unknown_queue_raises(self):
        sim = Simulator()
        credits = CreditInterface(sim)
        with pytest.raises(KeyError):
            credits.refund(9)

    def test_waiters_fifo(self):
        sim = Simulator()
        credits = CreditInterface(sim)
        credits.configure(0, 0)
        order = []
        credits.wait(0, 1, order.append, "a")
        credits.wait(0, 1, order.append, "b")
        credits.refund(0, 1)
        assert order == ["a"]
        credits.refund(0, 1)
        assert order == ["a", "b"]
