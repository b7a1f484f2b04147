"""Deterministic cost gate: a descriptor on the datapath is its bytes.

Every WQE and CQE an echoed frame needs is written with one ``pack`` of
its layout and read with one ``unpack_from`` of the bytes that landed, so
no codec function (``TxWqe``/``Cqe``/``RxDesc``, the FLD's compressed
formats) runs per packet.  Function calls under ``cProfile`` repeat to
the digit; shaped like ``tests/nic/test_rx_cost.py``: a warmed paced
64 B burst through ``flde_echo_remote``, only the steady state profiled.
"""

import cProfile
import pstats
import random

from repro.experiments.setups import flde_echo_remote
from repro.sim import Simulator

WARM = 32
FRAMES = 128
RATE_PPS = 12.8e6       # 64 B frames at 9 Gb/s wire-equivalent

#: The descriptor codecs' modules.
CODECS = ("nic/wqe.py", "core/descriptors.py")


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


def test_no_codec_runs_per_packet():
    stats = profiled_echo()
    codec_calls = sorted(
        f"{filename.rsplit('/', 2)[-1]}:{name}"
        for filename, _line, name in stats.stats
        if filename.endswith(CODECS))
    assert not codec_calls


def test_calls_per_echoed_frame():
    """562.4 calls a frame here; 591.6 when each descriptor went object
    to bytes to object through the codecs (26 calls a frame of
    ``__init__``/``pack``/``unpack``/``compress``/``expand``)."""
    assert profiled_echo().total_calls / FRAMES <= 566
