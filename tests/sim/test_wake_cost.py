"""Deterministic cost gates: a wake that finds nothing is not an event.

A waiter parks where its condition changes and is woken once, so the
two experiment families that used to spend most of their events on
empty wakes pay for the wakes that matter:

* the Table 6 closed loop costs one ``app`` event a round trip — the
  wake at the poll that first counts the response — where the 200 ns
  poll loop cost 24.2, each a ``timeout`` Event and a generator step;
* a send queue backpressured against its ``dma_window`` wakes once per
  hold deadline that passes while its fetch stage is parked, where a
  re-arm that did not look for a pending wake cost ~9 times that on the
  sec. 8.1.1 trace and ~100 times on a burst of small frames.

Counts repeat to the digit, so a wait that goes back to polling, or a
second wake armed for one deadline, fails here, in tier-1, and not only
in ``benchmarks/perf``'s ``echo_rtt`` and ``forward_imc`` rows.
"""

import cProfile
import pstats
import random

from repro.experiments.setups import flde_echo_remote
from repro.host import LoadGenerator
from repro.sim import Event, Process, Simulator, Store
from repro.telemetry import Telemetry

from .test_rendezvous_cost import GENERATOR_SEND

WARM = 16
ROUND_TRIPS = 64


def calls_of(stats, func):
    code = func.__code__
    entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return entry[1] if entry else 0


def test_a_round_trip_is_one_app_event_no_event_object_no_generator_step():
    """24.2 ``app`` events, 24.2 ``Event.__init__`` and 24.2 generator
    ``send``s a round trip when ``run_closed_loop`` polled its window
    every 200 ns; one ``app`` event now, and over the whole burst two
    ``Event``s, one ``Process`` and two ``send``s, all of them the
    burst's own ``drive`` script (its spawn is the one ``app`` event
    that is not a round trip's)."""
    random.seed(7)
    telemetry = Telemetry(trace=False, profile=True)
    sim = Simulator(telemetry=telemetry)
    warm = flde_echo_remote(sim).loadgen

    def burst(loadgen, count):
        def drive():
            yield from loadgen.run_closed_loop(64, count, window=1)
        sim.spawn(drive())
        sim.run()

    def app_events():
        return telemetry.profiler.stage_counts().get("app", 0)

    burst(warm, WARM)
    # The loop counts responses from its generator's first: a fresh one.
    loadgen = LoadGenerator(sim, warm.qp, warm.flow)
    before = app_events()
    profile = cProfile.Profile()
    profile.runcall(burst, loadgen, ROUND_TRIPS)
    assert loadgen.stats_received == ROUND_TRIPS
    assert app_events() - before == ROUND_TRIPS + 1

    stats = pstats.Stats(profile).stats
    assert calls_of(stats, Simulator.timeout) == 0
    assert calls_of(stats, Event.__init__) == 2
    assert calls_of(stats, Process.__init__) == 1
    sends = [key for key in stats if key[2] == GENERATOR_SEND]
    stepped = {key[2] for key, entry in stats.items()
               if any(caller in entry[4] for caller in sends)}
    assert stepped == {"drive"}
    assert sum(stats[key][1] for key in sends) == 2


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

    def recording_put(store, item, func):
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
