"""Deterministic cost gate: a received frame keeps its parse.

The NIC that steers a received frame hands its layout to the consumer
with the frame's completion, so an echoed frame is parsed only where
its bytes become a packet a NIC steers: each NIC's transmit path, twice
an echo.  The FLD echo unit and the load generator reuse the receiving
NIC's parse.  Function calls under ``cProfile`` repeat to the digit;
shaped like ``tests/nic/test_descriptor_cost.py``: a warmed paced 64 B
burst through ``flde_echo_remote``, only the steady state profiled.
"""

import cProfile
import pstats
import random

from repro.experiments.setups import flde_echo_remote
from repro.sim import Simulator

WARM = 32
FRAMES = 128
RATE_PPS = 12.8e6       # 64 B frames at 9 Gb/s wire-equivalent

#: (file, function) pairs no echoed frame may reach: a whole-frame
#: parse into a packet, or a checksum helper chain.
NEVER = {
    ("parse.py", "parse_frame"), ("checksum.py", "internet_checksum"),
    ("packet.py", "size"),
}


def profiled_echo():
    random.seed(7)
    sim = Simulator()
    loadgen = flde_echo_remote(sim).loadgen

    def burst(count):
        def drive():
            yield from loadgen.run_open_loop([64] * count, rate_pps=RATE_PPS)
            yield from loadgen.drain()
        sim.spawn(drive())
        sim.run()

    burst(WARM)     # routes, frame template, descriptor prefetch
    profile = cProfile.Profile()
    profile.runcall(burst, FRAMES)
    assert loadgen.stats_received == WARM + FRAMES
    return pstats.Stats(profile)


def calls(stats, filename, function):
    return sum(ncalls for (name, _line, func), (_prim, ncalls, *_rest)
               in stats.stats.items()
               if name.endswith(filename) and func == function)


def test_only_the_transmitting_nics_parse():
    stats = profiled_echo()
    assert calls(stats, "net/parse.py", "parse_layout") <= 2 * FRAMES


def test_no_whole_frame_parse_or_checksum_chain_runs():
    stats = profiled_echo()
    seen = {(filename.rsplit("/", 1)[-1], name)
            for filename, _line, name in stats.stats}
    assert not seen & NEVER


def test_calls_per_echoed_frame():
    """458.4 calls a frame here (496.4 before FLD's per-packet
    bookkeeping folded, ``tests/core/test_fld_cost.py``; 524.4 before
    steering was one pass, ``tests/nic/test_steering_cost.py``); 562.4
    when the echo unit and the load generator each parsed the frame
    again and the frame helpers chained (``parse_frame``, ``size``,
    ``internet_checksum``/``_folded_sum``)."""
    assert profiled_echo().total_calls / FRAMES <= 528
