"""FLD-R echo with two units: every response is its request, in order.

A message longer than the RDMA MTU reaches the echo as several
segments.  The echo's front end reassembles them and hands each unit a
whole message.  When each unit reassembled the segments it happened to
take, a short last segment could finish on one unit before the first
segment finished on the other: the echo answered with the last segment
alone and left a partial assembly behind.
"""

import pytest

from repro.experiments.setups import fldr_echo
from repro.sim import Simulator

MESSAGES = 40


def message(index, size):
    """``size`` bytes no other message of the run starts with or ends in."""
    return bytes((index * 7 + offset) % 251 for offset in range(size))


@pytest.mark.parametrize("local", [False, True], ids=["remote", "local"])
@pytest.mark.parametrize("size", [1025, 2049])
def test_two_units_echo_each_multi_segment_message_whole(local, size):
    sim = Simulator()
    setup = fldr_echo(sim, local=local, units=2)
    requests = [message(index, size) for index in range(MESSAGES)]
    responses = []

    def drive():
        for request in requests:
            setup.connection.post(request)
        for _ in requests:
            responses.append((yield setup.connection.responses.get())[0])

    sim.spawn(drive())
    sim.run(until=0.05)
    assert responses == requests
    assert setup.accel._assembly == {}
