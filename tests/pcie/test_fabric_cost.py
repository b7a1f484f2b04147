"""Deterministic cost gate for the per-TLP path.

Function calls under ``cProfile`` repeat to the digit, so a regression
in the fabric's per-transaction work shows here, in tier-1, and not only
in ``benchmarks/perf``'s ``fabric_write``/``fabric_read`` micro rows,
whose shape this copies: bursts of 64 B transactions with ``on_done``
callbacks on a local node, the simulator run dry after each burst.
"""

import cProfile
import pstats

import pytest

from repro.sim import Simulator
from repro.testbed import HOST_MEM_BASE, make_local_node

BURST = 16
OPS = 256
PAYLOAD = bytes(range(64))


def _nothing(_data=None):
    pass


def _write(fabric, nic, address):
    fabric.post_write(nic, address, data=PAYLOAD, on_done=_nothing)


def _read(fabric, nic, address):
    fabric.read(nic, address, 64, on_done=_nothing)


# Measured 14.07 and 18.07; 17.07 and 31.07 while every delivery retired
# its lane entries, memory checked bounds in a frame of its own and a
# one-CplD completion was built as a train.
@pytest.mark.parametrize("issue,ceiling", [(_write, 15), (_read, 19)])
def test_warmed_transaction_cost(issue, ceiling):
    sim = Simulator()
    node = make_local_node(sim)
    fabric, nic = node.fabric, node.nic

    def bursts(ops):
        for base in range(0, ops, BURST):
            for slot in range(BURST):
                issue(fabric, nic, HOST_MEM_BASE + 64 * (base + slot))
            sim.run()

    bursts(BURST)       # first use of the window resolves the route
    profile = cProfile.Profile()
    profile.runcall(bursts, OPS)
    stats = pstats.Stats(profile)
    assert stats.total_calls / OPS <= ceiling
    # The steady state neither decodes an address nor searches a lane,
    # nobody retires a lane entry (lanes settle by the clock), memory
    # tests its bounds in the handler's own frame, a 64 B completion is
    # not chunked, and no fabric or lane object is built through a
    # Python __init__.
    for filename, _line, name in stats.stats:
        assert name not in ("decode", "port_of", "retire", "_check",
                            "completion_chunks")
        assert "bisect" not in name
        assert not (name == "__init__"
                    and filename.endswith(("fabric.py", "resources.py")))
