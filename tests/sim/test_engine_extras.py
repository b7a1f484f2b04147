"""Additional engine semantics: process composition, trampolining."""

import pytest

from repro.sim import SimulationError, Simulator, Store


class TestProcessComposition:
    def test_a_finished_process_counts(self):
        sim = Simulator()

        def worker(sim):
            yield sim.timeout(1.0)

        sim.spawn(worker(sim))
        assert sim.stats_finished == 0
        sim.run()
        assert sim.stats_finished == 1

    def test_a_process_waits_on_processes(self):
        sim = Simulator()
        results = []

        def worker(sim, delay, value):
            yield sim.timeout(delay)
            return value

        def parent(sim):
            a = sim.spawn(worker(sim, 1.0, "a"))
            b = sim.spawn(worker(sim, 2.0, "b"))
            values = [(yield a), (yield b)]
            results.append((sim.now, values))

        sim.spawn(parent(sim))
        sim.run()
        assert results == [(2.0, ["a", "b"])]

    def test_deep_ready_chain_does_not_overflow(self):
        """The trampoline: thousands of already-fired yields in one
        process must not recurse."""
        sim = Simulator()
        store = Store(sim)
        for i in range(20_000):
            store.try_put(i)
        total = []

        def consumer(sim):
            for _ in range(20_000):
                value = yield store.get()
                total.append(value)

        sim.spawn(consumer(sim))
        sim.run()
        assert len(total) == 20_000

    def test_exception_in_process_propagates(self):
        sim = Simulator()

        def bad(sim):
            yield sim.timeout(1.0)
            raise RuntimeError("boom")

        sim.spawn(bad(sim))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()

    def test_run_is_resumable_after_until(self):
        sim = Simulator()
        fired = []
        sim.call_later(1.0, lambda: fired.append(1))
        sim.call_later(3.0, lambda: fired.append(3))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 3]
        assert sim.now == 3.0

    def test_event_loop_livelock_guard(self):
        sim = Simulator()

        def spinner(sim):
            while True:
                yield sim.timeout(0)

        sim.spawn(spinner(sim))
        with pytest.raises(SimulationError, match="livelock"):
            sim.run(max_events=10_000)
