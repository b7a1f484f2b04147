"""What a finished trace keeps: its span table, not an object a span.

A traced 64 B FLD-E echo records about 24 spans a packet.  Kept as one
``Span`` object each (with its id int and time floats) they held ~3.5 KB
a trace and 27 objects the garbage collector tracks; as a trace's
columns they hold ~1 KB and one (the trace).  The test runs a 512-frame
traced echo, then drops the recorder's traces and measures what that
frees.
"""

import gc
import random
import tracemalloc

from repro.experiments.setups import flde_echo_remote
from repro.sim import Simulator
from repro.telemetry import Telemetry

FRAMES = 512
RATE_PPS = 12.8e6       # 64 B at 9 Gb/s on the wire
MAX_BYTES_A_TRACE = 1200


def _traced_echo(count):
    random.seed(7)
    telemetry = Telemetry(trace=False, spans=True)
    sim = Simulator(telemetry=telemetry)
    loadgen = flde_echo_remote(sim).loadgen

    def drive():
        yield from loadgen.run_open_loop([64] * count, rate_pps=RATE_PPS)
        yield from loadgen.drain()
    sim.spawn(drive())
    sim.run()
    return telemetry.spans


def test_a_finished_trace_keeps_its_table_and_no_object_a_span():
    _traced_echo(8)     # stage names, frame templates, lazy imports
    gc.collect()
    tracemalloc.start()
    try:
        recorder = _traced_echo(FRAMES)
        traces = len(recorder.finished_traces())
        spans = sum(len(trace.spans) for trace in recorder.traces)
        gc.collect()
        held_bytes = tracemalloc.get_traced_memory()[0]
        held_objects = len(gc.get_objects())
        recorder._traces.clear()
        gc.collect()
        freed_bytes = held_bytes - tracemalloc.get_traced_memory()[0]
        freed_objects = held_objects - len(gc.get_objects())
    finally:
        tracemalloc.stop()
    assert traces == FRAMES and len(recorder) == 0
    assert spans >= 20 * traces
    assert freed_bytes / traces <= MAX_BYTES_A_TRACE, (
        f"{freed_bytes / traces:.0f} B a trace")
    # The trace itself is the one tracked object it keeps.
    assert freed_objects <= traces, (
        f"{freed_objects / traces:.2f} tracked objects a trace")
