"""A host queue closes with CQEs in flight: nothing raises or leaks.

A CQE lands in its consumer, so one that lands after its CQ was
destroyed must reach none: the receive dispatcher forgets the CQEs it
had planned, a send completion finds its queue closed, and the NIC drops
a doorbell that was still in flight.  The testbed then quiesces clean.
"""

from repro.net import Flow
from repro.sim import Simulator
from repro.telemetry import Telemetry
from repro.telemetry.audit import audit_spans
from repro.topology import LinkSpec, NodeSpec, TopologySpec, build

CLIENT_MAC = "02:00:00:00:00:01"
SERVER_MAC = "02:00:00:00:00:02"
FRAMES = 32


def pair(sim):
    testbed = build(sim, TopologySpec(
        name="pair", nodes=[NodeSpec(name="client"), NodeSpec(name="server")],
        links=[LinkSpec(a="client", b="server")]))
    client, server = testbed.node("client"), testbed.node("server")
    client.add_vport_for_mac(1, CLIENT_MAC)
    server.add_vport_for_mac(1, SERVER_MAC)
    return testbed, client, server


def until(sim, condition):
    while not condition():
        assert sim.run(until=sim.now + 1e-8) < 0.01


def test_eth_queue_pairs_close_with_cqes_in_flight():
    telemetry = Telemetry(trace=False, spans=True)
    sim = Simulator(telemetry=telemetry)
    testbed, client, server = pair(sim)
    sender = client.driver.create_eth_qp(1, signal_interval=1)
    receiver = server.driver.create_eth_qp(1)
    receiver.post_rx_buffers(64)
    got = []
    receiver.on_receive = lambda data, _cqe: got.append(data)
    flow = Flow(CLIENT_MAC, SERVER_MAC, "10.0.0.1", "10.0.0.2", 1, 2)
    for index in range(FRAMES):
        sender.send(flow.make_packet(bytes([index]) * 64,
                                     fill_checksums=False).to_bytes(),
                    trace_ctx=telemetry.spans.start_trace(index, sim.now))
    # A send completion issued but not landed, and a receive CQE planned
    # by the dispatcher but not yet delivered.
    until(sim, lambda: receiver._fused_queue
          and sender.tx_cq.stats_cqes > sender._tx_completed)
    pending = len(receiver._fused_queue)
    sender.send(flow.make_packet(b"late", fill_checksums=False).to_bytes())
    free = sender.tx_free
    sender.close()          # with its last doorbell still in flight
    receiver.close()
    sim.run()
    assert len(got) == receiver.stats_rx < FRAMES
    assert not receiver._fused_queue and pending
    assert client.nic.stats_dropped_doorbells == 1
    assert sender.tx_free == free   # no completion retired after close
    assert testbed.quiesce() == []
    assert telemetry.spans.pending_stashes() == []
    assert audit_spans(telemetry.spans, expect_complete=False) == []


def test_rc_endpoints_close_with_cqes_in_flight():
    sim = Simulator()
    testbed, client, server = pair(sim)
    cep = client.driver.create_rc_endpoint(1, CLIENT_MAC, "10.0.0.1")
    sep = server.driver.create_rc_endpoint(1, SERVER_MAC, "10.0.0.2")
    cep.post_rx_buffers(64)
    sep.post_rx_buffers(64)
    cep.connect(SERVER_MAC, "10.0.0.2", sep.qpn)
    sep.connect(CLIENT_MAC, "10.0.0.1", cep.qpn)
    acked = []
    for index in range(6):
        cep.post_send(bytes([index]) * 3000).add_callback(acked.append)
    until(sim, lambda: sep._fused_queue)
    cep.close()             # its send completions still to come
    sep.close()
    sim.run()
    assert sep.stats_messages_received < 6
    assert acked == []
    assert testbed.quiesce() == []
