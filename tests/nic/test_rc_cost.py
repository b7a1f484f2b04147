"""Deterministic cost gate: an RC segment is its bytes.

The RC engine packs each segment's BTH (and a WRITE's RETH) and each
ACK's BTH+AETH with one ``struct.Struct.pack``, and reads a received
BTH with one ``unpack_from`` whose opcode indexes a class table built
at import; no ``Bth``/``Aeth``/``Reth`` object is made and no function
of ``net/roce.py`` runs per request.  A request here is a 512 B FLD-R
echo across the wire: a data segment each way and an ACK for each.
Shaped like ``tests/nic/test_steering_cost.py``: a warmed burst, only
the steady state profiled.
"""

import cProfile
import pstats
import random

import pytest

from repro.experiments.setups import fldr_echo
from repro.sim import Simulator

from ..net.test_frame_cost import calls

WARM = 16
REQUESTS = 64
SIZE = 512


def profiled_requests():
    random.seed(7)
    sim = Simulator()
    setup = fldr_echo(sim)
    connection = setup.connection

    def burst(count):
        replies = []

        def drive():
            for _ in range(count):
                connection.post(bytes(SIZE))
            for _ in range(count):
                message, _cqe = yield connection.responses.get()
                replies.append(message)
        sim.spawn(drive())
        sim.run()
        assert replies == [bytes(SIZE)] * count

    burst(WARM)     # QP frame heads, routes, descriptor prefetch
    profile = cProfile.Profile()
    profile.runcall(burst, REQUESTS)
    assert setup.client.nic.rdma.stats_retransmits == 0
    return pstats.Stats(profile)


@pytest.fixture(scope="module")
def stats():
    return profiled_requests()


def test_no_roce_function_runs_per_request(stats):
    seen = {name for filename, _line, name in stats.stats
            if filename.endswith("net/roce.py")}
    assert not seen


def test_one_bth_read_per_segment_received(stats):
    # Two data segments and two ACKs a request, each read once.
    assert calls(stats, "nic/rdma.py", "on_ingress") == 4 * REQUESTS
    assert calls(stats, "nic/rdma.py", "_frame") == 4 * REQUESTS


def test_calls_per_request(stats):
    """681.3 calls a request here; 732.3 when each segment built a
    ``Bth`` (and a WRITE_FIRST a ``Reth``), each ACK a ``Bth`` and an
    ``Aeth``, each received frame ran ``Bth.unpack`` and asked its
    ``is_*`` properties, and ``on_ingress``/``_segment_payload`` were
    frames of their own."""
    assert stats.total_calls / REQUESTS <= 690
