"""A send the host refuses for its size takes no send queue slot.

Each SQ slot owns one transmit buffer; a frame, message or write longer
than that buffer raises ``ValueError`` before the slot is taken.  So the
next good send rings the very next index: the NIC fetches no empty WQE
behind a hole, and no neighbouring slot's in-flight buffer is
overwritten.
"""

import pytest

from repro.net import Flow
from repro.sim import Simulator
from repro.testbed import make_local_node, make_remote_pair

CLIENT_MAC = "02:00:00:00:00:01"
SERVER_MAC = "02:00:00:00:00:02"
#: An RC endpoint's SQ slot buffer at its default ``buffer_size``.
RC_SLOT = 16 * 1024


def eth_pair(buffer_size=2048):
    """A sending queue pair and a sink for its frames on one node."""
    sim = Simulator()
    node = make_local_node(sim)
    node.add_vport_for_mac(1, CLIENT_MAC)
    node.add_vport_for_mac(2, SERVER_MAC)
    sink = node.driver.create_eth_qp(vport=2)
    sink.post_rx_buffers(8)
    return sim, sink, node.driver.create_eth_qp(vport=1,
                                                buffer_size=buffer_size)


def leaves_once(sim, sink, qp, frame):
    """``frame`` is sent on the SQ's first index and arrives alone."""
    qp.send(frame)
    sim.run(until=0.01)
    assert qp.sq.pi == 1        # the doorbell rang index 0, no hole
    assert qp.stats_tx == 1
    assert sink.stats_rx == 1
    data, _cqe = sink.received.try_get()
    assert data == frame
    assert sink.received.try_get() is None


class TestEthQueuePair:
    def test_good_send_after_a_refused_one_leaves_once(self):
        sim, sink, qp = eth_pair(buffer_size=256)
        frame = Flow(CLIENT_MAC, SERVER_MAC, "1.1.1.1", "2.2.2.2", 1, 2
                     ).make_packet(b"w" * 64, fill_checksums=False
                                   ).to_bytes()
        with pytest.raises(ValueError):
            qp.send(bytes(257))
        leaves_once(sim, sink, qp, frame)

    @pytest.mark.parametrize("size", [0, 10, 13])
    def test_good_send_after_a_refused_runt_leaves_once(self, size):
        """A frame shorter than an Ethernet header is refused before it
        takes a slot, so the NIC never parses a runt."""
        sim, sink, qp = eth_pair()
        with pytest.raises(ValueError):
            qp.send(b"\x02" * size)
        assert qp.tx_free == qp.sq.entries
        header = bytes.fromhex("020000000002" "020000000001" "88b5")
        leaves_once(sim, sink, qp, header)


def rc_pair(sim):
    client, server = make_remote_pair(sim)
    client.add_vport_for_mac(1, CLIENT_MAC)
    server.add_vport_for_mac(1, SERVER_MAC)
    cep = client.driver.create_rc_endpoint(1, CLIENT_MAC, "10.0.0.1")
    sep = server.driver.create_rc_endpoint(1, SERVER_MAC, "10.0.0.2")
    cep.post_rx_buffers(16)
    sep.post_rx_buffers(16)
    cep.connect(SERVER_MAC, "10.0.0.2", sep.qpn)
    sep.connect(CLIENT_MAC, "10.0.0.1", cep.qpn)
    return client, cep, sep


class TestRcEndpoint:
    def test_slot_buffer_is_at_least_16_kib(self):
        _client, cep, _sep = rc_pair(Simulator())
        assert cep.tx_buffer_size == RC_SLOT

    def test_good_send_after_a_refused_one_leaves_once(self):
        sim = Simulator()
        client, cep, sep = rc_pair(sim)
        message = bytes(range(256)) * 3
        with pytest.raises(ValueError):
            cep.post_send(bytes(RC_SLOT + 1))
        cep.post_send(message)
        sim.run(until=0.01)
        assert cep.stats_messages_sent == 1
        assert client.nic.rdma.stats_segments_sent == 1
        assert client.nic.rdma.stats_retransmits == 0
        assert sep.stats_messages_received == 1
        received, _cqe = sep.messages.try_get()
        assert received == message

    def test_good_write_after_a_refused_one_lands_once(self):
        sim = Simulator()
        client, cep, sep = rc_pair(sim)
        addr, rkey, read = sep.register_mr(64 * 1024)
        data = b"one-sided" * 40
        with pytest.raises(ValueError):
            cep.post_write(bytes(RC_SLOT + 1), addr, rkey)
        cep.post_write(data, addr, rkey)
        sim.run(until=0.01)
        assert client.nic.rdma.stats_segments_sent == 1
        assert sep.qp.stats_writes_received == 1
        assert read(len(data) + 1) == data + b"\x00"
