"""A frame longer than its receive buffer completes its descriptor in
error, as a ConnectX local length error does.

The NIC has already taken the descriptor when it finds the frame does
not fit, so it must still write a CQE for it: a ``CQE_ERROR`` with the
local-length syndrome.  Software then reposts the buffer and delivers
nothing.  Without the CQE the slot is never reposted and every such
frame shrinks the ring for good, until a frame that fits finds no
descriptor at all.
"""

import pytest

from repro.net import Flow
from repro.net.parse import parse_frame
from repro.sim import Simulator
from repro.testbed import make_local_node, make_remote_pair

MAC = "02:00:00:00:00:99"
RING = 4
BUFFER = 128


def frame(size):
    return Flow("02:00:00:00:00:01", MAC, "10.0.0.1", "10.0.0.2",
                7000, 7001).make_sized_packet(size).to_bytes()


@pytest.mark.parametrize("served_by_core", [False, True],
                         ids=["notify-store", "fused"])
def test_oversize_frames_leave_the_ring_whole(served_by_core):
    sim = Simulator()
    node = make_local_node(sim)
    if not served_by_core:
        node.driver.core = None
    node.add_vport_for_mac(2, MAC)
    qp = node.driver.create_eth_qp(2, rq_entries=RING, buffer_size=BUFFER)
    assert (qp.rx_cq.fused_rx is not None) == served_by_core
    qp.post_rx_buffers(RING)
    got = []
    qp.on_receive = lambda data, cqe: got.append(data)
    nic = node.nic
    small = frame(64)
    for data in [frame(256)] * (RING + 1) + [small]:
        nic.eswitch.ingress_from_wire(parse_frame(data))
        sim.run()
    assert got == [small]
    assert nic.stats_rx_dropped_oversize == RING + 1
    assert nic.stats_rx_dropped_no_desc == 0
    assert qp.rq.pi - qp.rq.ci == RING      # every slot reposted


def test_rc_segments_longer_than_their_buffer_are_recycled():
    """The same on an RC endpoint's receive queue: each oversize
    segment's buffer is recycled and no message is assembled from it."""
    sim = Simulator()
    client, server = make_remote_pair(sim)
    client.add_vport_for_mac(1, "02:00:00:00:00:01")
    server.add_vport_for_mac(1, MAC)
    cep = client.driver.create_rc_endpoint(1, "02:00:00:00:00:01",
                                           "10.0.0.1")
    sep = server.driver.create_rc_endpoint(1, MAC, "10.0.0.2",
                                           rq_entries=RING,
                                           buffer_size=BUFFER)
    cep.post_rx_buffers(RING)
    sep.post_rx_buffers(RING)
    cep.connect(MAC, "10.0.0.2", sep.qpn)
    sep.connect("02:00:00:00:00:01", "10.0.0.1", cep.qpn)
    got = []

    def drive():
        for message in [bytes(2 * BUFFER)] * (RING + 1) + [b"fits"]:
            yield cep.post_send(message)
        got.append((yield sep.messages.get())[0])

    sim.spawn(drive())
    sim.run(until=0.01)
    assert got == [b"fits"]
    assert server.nic.stats_rx_dropped_oversize == RING + 1
    assert server.nic.stats_rx_dropped_no_desc == 0
