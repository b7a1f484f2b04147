#!/usr/bin/env python
"""Standalone event-engine microbenchmark (no pytest needed).

Measures raw dispatch throughput of the scheduler's one heap in
isolation — no NIC, no PCIe model, just the engine — so scheduler
changes can be judged without the datapath's noise on top.  Five
workloads, each dispatching a known number of events:

* ``ready``  — an in-order continuation stream (monotone
  ``schedule_at`` deadlines), the cut-through fabric's pattern: each
  push replaces the entry being dispatched, in a heap of one;
* ``heap``   — interleaved out-of-order timers, the worst case: each
  push and pop sifts through a deep heap;
* ``store``  — producer/consumer pairs over bounded :class:`Store`
  objects, the blocking-handoff pattern the NIC pipeline stages use;
* ``generator`` and ``flat`` — one tick a dispatch, as a generator
  process and as a continuation chain.

Output is a JSON report (schema 2) with events/sec per workload and,
per dispatch, the heap *holds* (a handler's first push, which replaces
the entry it was dispatched from in one ``heapreplace``) and the plain
``heappush`` pushes, counted by spies on both.  A continuation chain
is all holds (``ready``, ``flat``, ``generator``); timers scheduled
ahead of the run are all pushes (``heap``).  A dispatch is one the
engine counted (``Simulator.stats_events``).  The report is a
diagnostic artifact (uploaded from CI), not a committed baseline:
wall-clock on shared runners is too noisy to gate on, unlike the
deterministic per-packet counts ``benchmarks/perf`` reports.

Usage::

    python benchmarks/bench_engine.py [--events N] [-o out.json]
"""

import argparse
import json
import os
import sys
import time

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.sim import Simulator, Store  # noqa: E402
from repro.sim import engine as _engine  # noqa: E402

TICK = 1e-9


def _measure(sim, work):
    """Time ``work()`` with the scheduler's ``heappush`` and
    ``heapreplace`` counted; ``(dispatches, wall, pushes, holds)``."""
    counts = {"_heappush": 0, "_heapreplace": 0}
    originals = {name: getattr(_engine, name) for name in counts}

    def spy(name):
        original = originals[name]

        def counted(heap, entry):
            counts[name] += 1
            return original(heap, entry)
        return counted

    for name in counts:
        setattr(_engine, name, spy(name))
    try:
        started = time.perf_counter()
        work()
        wall = time.perf_counter() - started
    finally:
        for name, original in originals.items():
            setattr(_engine, name, original)
    return (sim.stats_events, wall, counts["_heappush"],
            counts["_heapreplace"])


def bench_ready(events):
    """In-order continuation stream: the schedule_at fast path."""
    sim = Simulator()
    state = {"left": events}

    def hop():
        if state["left"] > 0:
            state["left"] -= 1
            sim.schedule_at(sim.now + TICK, hop)

    sim.schedule_at(0.0, hop)
    return _measure(sim, sim.run)


def bench_heap(events):
    """Out-of-order timers: successive deadlines alternate earlier and
    later, so pushes sift through the heap rather than append."""
    sim = Simulator()

    def noop():
        pass

    # Two interleaved arithmetic deadline streams with incommensurate
    # strides: successive schedules alternate earlier/later without
    # needing a random source.  The heap cost is paid at schedule time,
    # so the spies and the clock cover the scheduling loop as well as
    # the drain.
    def work():
        for i in range(events):
            if i % 2:
                sim.call_later(1.0 + (i % 1000) * 3e-6, noop)
            else:
                sim.call_later(2.0 - (i % 1000) * 2e-6, noop)
        sim.run()

    return _measure(sim, work)


def bench_store(events, pairs=4):
    """Blocking producer/consumer handoffs over bounded stores."""
    sim = Simulator()
    per_pair = events // pairs

    def producer(store):
        for i in range(per_pair):
            yield store.put(i)

    def consumer(store):
        for _ in range(per_pair):
            yield store.get()
            yield sim.timeout(TICK)

    for p in range(pairs):
        store = Store(sim, capacity=8, name=f"bench{p}")
        sim.spawn(producer(store), name=f"prod{p}")
        sim.spawn(consumer(store), name=f"cons{p}")
    return _measure(sim, sim.run)


def bench_generator(events):
    """One generator process resuming once per tick — the steady-state
    worker shape the flattened datapath replaces: every dispatch pays a
    timeout Event, a Process resume and a generator frame switch."""
    sim = Simulator()

    def worker():
        for _ in range(events):
            yield sim.timeout(TICK)

    sim.spawn(worker())
    return _measure(sim, sim.run)


def bench_flat(events):
    """The same once-per-tick cadence as ``generator``, dispatched as a
    flat continuation chain via ``call_later`` — no Event, no Process,
    no frame switch.  The generator/flat events-per-second ratio is the
    per-dispatch saving the flattened hot datapath banks."""
    sim = Simulator()
    state = {"left": events}

    def hop(_arg):
        if state["left"] > 0:
            state["left"] -= 1
            sim.call_later(TICK, hop, None)

    sim.call_later(0.0, hop, None)
    return _measure(sim, sim.run)


WORKLOADS = [("ready", bench_ready), ("heap", bench_heap),
             ("store", bench_store), ("generator", bench_generator),
             ("flat", bench_flat)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=200_000,
                        help="approximate dispatches per workload "
                             "(default: 200000)")
    parser.add_argument("-o", "--output", default=None,
                        help="JSON output path (default: stdout only)")
    args = parser.parse_args(argv)

    rows = []
    for name, fn in WORKLOADS:
        dispatched, wall, pushes, holds = fn(args.events)
        rows.append({
            "workload": name,
            "dispatched": dispatched,
            "wall_seconds": wall,
            "events_per_second": dispatched / wall if wall else None,
            "heap_pushes": pushes,
            "heap_holds": holds,
            "pushes_per_dispatch": pushes / dispatched,
            "holds_per_dispatch": holds / dispatched,
        })
        print(f"{name:>9}: {dispatched} dispatches in {wall:.3f}s "
              f"({dispatched / wall:,.0f} ev/s; a dispatch: "
              f"{holds / dispatched:.2f} holds, "
              f"{pushes / dispatched:.2f} pushes)")

    report = {"bench": "engine_dispatch", "schema": 2,
              "events": args.events, "rows": rows}
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"-> {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
