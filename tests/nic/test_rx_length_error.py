"""A frame longer than its receive buffer completes its descriptor in
error, as a ConnectX local length error does.

The NIC has already taken the descriptor when it finds the frame does
not fit, so it must still write a CQE for it: a ``CQE_ERROR`` with the
local-length syndrome.  Software then reposts the buffer and delivers
nothing.  Without the CQE the slot is never reposted and every such
frame shrinks the ring for good, until a frame that fits finds no
descriptor at all.

A multi-packet receive queue (MPRQ) finds a frame longer than a whole
buffer before it places it: no stride and no descriptor are taken, so
there is nothing to complete, and the frame is only counted.
"""

import pytest

from repro.experiments.setups import CLIENT_MAC, remote_spec
from repro.net import Flow
from repro.net.parse import parse_frame
from repro.sim import Simulator
from repro.testbed import make_local_node, make_remote_pair
from repro.topology import AccelFnSpec, FldSpec, HostQpSpec, VportSpec
from repro.topology.build import build

MAC = "02:00:00:00:00:99"
RING = 4
BUFFER = 128


def frame(size):
    return Flow("02:00:00:00:00:01", MAC, "10.0.0.1", "10.0.0.2",
                7000, 7001).make_sized_packet(size).to_bytes()


@pytest.mark.parametrize("served_by_core", [False, True],
                         ids=["coreless", "core"])
def test_oversize_frames_leave_the_ring_whole(served_by_core):
    sim = Simulator()
    node = make_local_node(sim)
    if not served_by_core:
        node.driver.core = None
    node.add_vport_for_mac(2, MAC)
    qp = node.driver.create_eth_qp(2, rq_entries=RING, buffer_size=BUFFER)
    # One dispatcher, with or without a core to work the frames.
    assert qp.rx_cq.fused_rx == qp._rx_fused
    assert (qp.core is not None) == served_by_core
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


@pytest.mark.parametrize("served_by_core", [False, True],
                         ids=["coreless", "core"])
def test_an_oversize_frame_completes_after_the_frames_before_it(
        served_by_core):
    """Back to back, frames that fit and frames that do not: each error
    CQE waits behind the CQEs of the frames before it (which wait for
    their data writes), so completions arrive in ring order and the
    driver reposts every slot it was given."""
    sim = Simulator()
    node = make_local_node(sim)
    if not served_by_core:
        node.driver.core = None
    node.add_vport_for_mac(2, MAC)
    qp = node.driver.create_eth_qp(2, rq_entries=RING, buffer_size=BUFFER)
    qp.post_rx_buffers(RING)
    got = []
    qp.on_receive = lambda data, cqe: got.append(data)
    nic = node.nic
    small = [frame(64) for _ in range(3)]
    for data in [small[0], frame(256), small[1], frame(256)]:  # RING
        nic.eswitch.ingress_from_wire(parse_frame(data))
    sim.run()
    nic.eswitch.ingress_from_wire(parse_frame(small[2]))
    sim.run()
    assert got == small
    assert nic.stats_rx_dropped_oversize == 2
    assert nic.stats_rx_dropped_no_desc == 0
    assert qp.rq.pi - qp.rq.ci == RING


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


def test_mprq_frames_longer_than_a_buffer_take_no_stride():
    """An FLD function's MPRQ with two 256 B strides (a 512 B buffer):
    a 1500 B frame between two 64 B ones is dropped as oversize, takes
    no stride and writes no CQE, and the run carries on.  (At 64 tenants
    ``scale-tenants`` gives each function one 2 KiB stride, so a jumbo
    frame meets the same check.)"""
    sim = Simulator()
    testbed = build(sim, remote_spec(
        "mprq-oversize",
        vports=[VportSpec(node="client", vport=1, mac=CLIENT_MAC),
                VportSpec(node="server", vport=2, mac=MAC)],
        flds=[FldSpec(node="server")],
        accel_fns=[AccelFnSpec(name="echo", fld="server.fld", kind="echo",
                               vport=2, rx_strides=2, rx_stride_size=256)],
        host_qps=[HostQpSpec(name="client", node="client", vport=1)]))
    nic = testbed.node("server").nic
    fn = testbed.accel("echo")
    for size in (64, 1500, 64):
        nic.eswitch.ingress_from_wire(parse_frame(frame(size)))
        sim.run()
    assert fn.accel.stats_processed == 2
    assert nic.stats_rx_dropped_oversize == 1
    assert nic.stats_rx_dropped_no_desc == 0
    assert fn.rq.stats_packets == 2
    assert fn.rq.stats_wasted_strides == 0
    assert fn.rq.cq.stats_cqes == 2
