"""Deterministic cost gate: what it costs to watch a packet.

Function calls under ``cProfile`` repeat to the digit, so a recorder
that goes back to looking its trace up by id, building spans through a
Python ``__init__`` or resolving histograms by name on every sample
fails here, in tier-1, and not only in ``benchmarks/perf``'s
``echo_small_spans`` row.  Shaped like ``tests/nic/test_rx_cost.py``: a
warmed burst, only the steady state profiled — here the same paced 64 B
burst through ``flde_echo_remote`` with every packet traced and with
telemetry off.
"""

import cProfile
import pstats
import random

from repro.experiments.setups import flde_echo_remote
from repro.sim import Simulator
from repro.telemetry import Span, Telemetry

WARM = 32
FRAMES = 128
RATE_PPS = 12.8e6       # 64 B frames at 9 Gb/s wire-equivalent

#: Calls the recorder's hot path used to make once per span, boundary or
#: sample, by profile name; none may be charged to it in steady state.
PER_SAMPLE_BUILTINS = (
    "<built-in method builtins.max>", "<built-in method builtins.min>",
    "<built-in method builtins.isinstance>",
    "<method 'add' of 'set' objects>")
RECORDER = ("telemetry/spans.py", "telemetry/metrics.py")

#: Instrument frames the watched datapath no longer makes, by
#: ``(file, function)`` of the callee -> ``(file, function)`` of callers
#: that may not reach it (``None``: no caller may).  Levels are pulled
#: at export, a finished trace and a hand-off fold their samples in
#: place, and the fabric stamps a TLP's span end itself.
GONE = {
    ("telemetry/metrics.py", "set"): None,
    ("telemetry/metrics.py", "observe"): (("telemetry/spans.py", "end_trace"),
                                          ("sim/engine.py", "_deliver")),
    ("telemetry/spans.py", "exit"): (("pcie/fabric.py", None),),
}


def profiled_burst(telemetry):
    random.seed(7)
    sim = Simulator(telemetry=telemetry)
    loadgen = flde_echo_remote(sim).loadgen

    def burst(count):
        def drive():
            yield from loadgen.run_open_loop([64] * count,
                                             rate_pps=RATE_PPS)
            yield from loadgen.drain()
        sim.spawn(drive())
        sim.run()

    burst(WARM)     # routes, frame template, every histogram by name
    profile = cProfile.Profile()
    profile.runcall(burst, FRAMES)
    assert loadgen.stats_received == WARM + FRAMES
    return pstats.Stats(profile)


def _called_from(caller, site):
    filename, name = site
    return caller[0].endswith(filename) and name in (None, caller[2])


def test_watching_a_packet_costs_under_105_calls():
    """458.4 calls a packet off, 553.5 traced here: 95.1 calls a packet
    to watch it.  It was 147.3 while every named ``Store`` and queue
    pushed a ``Gauge.set`` per level change, every finished trace called
    ``Histogram.observe`` per stage, a hand-off observed its zero wait
    and the fabric closed a TLP's span through ``SpanRecorder.exit``;
    450.8 when every span was a ``Span.__init__`` plus a trace lookup
    and every trace a quadratic search.  The bound is on the
    difference, which is the recorder's own work: a ratio drifts up
    whenever the untraced datapath gets cheaper."""
    off = profiled_burst(None).total_calls / FRAMES
    telemetry = Telemetry(trace=False, spans=True)
    traced_stats = profiled_burst(telemetry)
    traced = traced_stats.total_calls / FRAMES
    assert len(telemetry.spans.finished_traces()) == WARM + FRAMES
    assert traced - off <= 105, (off, traced)

    for (filename, _line, name), entry in traced_stats.stats.items():
        for (callee_file, callee), banned in GONE.items():
            if filename.endswith(callee_file) and name == callee:
                callers = [caller for caller in entry[4]
                           if banned is None or any(
                               _called_from(caller, site)
                               for site in banned)]
                assert not callers, (name, callers)
        # Histograms are resolved by name once per recorder (and once
        # per named Store, at construction): never in steady state.
        assert not (filename.endswith("telemetry/metrics.py")
                    and name in ("_get", "histogram")), name
        if name in PER_SAMPLE_BUILTINS:
            callers = [caller for caller in entry[4]
                       if caller[0].endswith(RECORDER)]
            assert not callers, (name, callers)


def test_a_span_is_filled_in_the_recorders_frame():
    assert "__init__" not in vars(Span)

