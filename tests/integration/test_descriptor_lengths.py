"""A device reads a payload's length off its descriptor.

The NIC counts a sent WQE's bytes from the WQE's byte count, and FLD a
submitted payload's from the length it measured when the send started.
Each count must equal the bytes measured where they move: the data the
NIC's DMA reads returned, and the payload the FLD ring took after an
egress program rewrote it.
"""

from repro.core import AxisMetadata
from repro.net import Flow, PROTO_TCP
from repro.nic import OP_ETH_SEND, TxWqe
from repro.nic.device import WQE_MMIO_BASE, WQE_MMIO_STRIDE, _SqFlatPipeline
from repro.sim import Simulator
from repro.testbed import make_remote_pair

from .test_credits_ets import build as build_fld_server, frame, send_in_turn
from ..nic.test_flat_send_queues import rc_pair

CLIENT_MAC = "02:00:00:00:00:01"
SERVER_MAC = "02:00:00:00:00:02"


def spy_data_reads(monkeypatch):
    """Bytes each NIC's send-queue data reads returned, by NIC name."""
    returned = {}
    landed = _SqFlatPipeline._data_landed

    def spy(self, item, data):
        name = self.nic.name
        returned[name] = returned.get(name, 0) + len(data)
        landed(self, item, data)

    monkeypatch.setattr(_SqFlatPipeline, "_data_landed", spy)
    return returned


def test_ethernet_tx_bytes_are_the_data_reads(monkeypatch):
    """A plain frame, an LSO frame the NIC cuts into six, and a WQE of
    0 bytes: no data read, and no frame to send."""
    returned = spy_data_reads(monkeypatch)
    sim = Simulator()
    client, server = make_remote_pair(sim)
    client.add_vport_for_mac(1, CLIENT_MAC)
    server.add_vport_for_mac(1, SERVER_MAC)
    sender = client.driver.create_eth_qp(vport=1, buffer_size=16384)
    receiver = server.driver.create_eth_qp(vport=1)
    receiver.post_rx_buffers(64)
    udp = Flow(CLIENT_MAC, SERVER_MAC, "10.0.0.1", "10.0.0.2", 7000, 7001)
    tcp = Flow(CLIENT_MAC, SERVER_MAC, "10.0.0.1", "10.0.0.2", 5000, 5201,
               proto=PROTO_TCP)
    sender.send(udp.make_sized_packet(200).to_bytes())
    sender.send_tso(tcp.make_packet(bytes(8000)).to_bytes(), mss=1460)
    sim.run(until=1e-3)
    sq = sender.sq
    client.nic.handle_write(WQE_MMIO_BASE + sq.qpn * WQE_MMIO_STRIDE,
                            TxWqe(OP_ETH_SEND, sq.qpn, sq.pi, 0, 0).pack())
    sim.run(until=2e-3)

    nic = client.nic
    assert nic.stats_tx_wqes == 3 and nic.lso.stats_segments == 6
    assert nic.stats_tx_dropped_malformed == 1
    assert nic.stats_tx_bytes == returned[nic.name] == 200 + 8054


def test_rc_tx_bytes_are_the_data_reads(monkeypatch):
    """A three-segment RC message: one WQE, one data read."""
    returned = spy_data_reads(monkeypatch)
    sim = Simulator()
    _testbed, client, _server, cep, sep = rc_pair(sim)
    message = bytes(range(256)) * 12
    cep.post_send(message)
    sim.run(until=1e-3)

    assert sep.messages.try_get()[0] == message
    nic = client.nic
    assert nic.stats_tx_wqes == 1
    assert nic.stats_tx_bytes == returned[nic.name] == len(message)


def test_fld_tx_bytes_are_the_payloads_an_egress_program_left():
    """A program that resizes every payload: FLD counts the bytes its
    ring took, not the bytes the accelerator offered, and the NIC reads
    exactly those."""
    sim = Simulator()
    server, runtime, _slow_q, fast_q, counts = build_fld_server(sim)
    fld = runtime.fld
    taken = []

    def grow(queue_id, data, meta):
        out = data + bytes(queue_id + 10 + len(taken))
        taken.append(len(out))
        return out

    fld.tx.prog_hook = grow
    send_in_turn(fld, frame(300),
                 (AxisMetadata(queue_id=fast_q) for _ in range(5)))
    sim.run(until=1e-3)

    assert counts["fast"] == 5 and len(taken) == 5
    assert fld.stats_tx_packets == 5
    assert fld.stats_tx_bytes == sum(taken) != 5 * len(frame(300))
    assert server.nic.stats_tx_bytes == sum(taken)
