"""A WQE written by MMIO carries its index's low 16 bits only.

The NIC rings the queue at the first producer index at or past its own
that ends in ``wqe_index + 1``, so a send queue keeps going across the
16-bit wrap: its 65537th MMIO WQE is sent like the first, in order.
"""

from repro.net import Flow
from repro.nic import OP_ETH_SEND, TxWqe
from repro.nic.device import WQE_MMIO_BASE, WQE_MMIO_STRIDE
from repro.sim import Simulator
from repro.topology import LinkSpec, NodeSpec, TopologySpec, build

CLIENT_MAC = "02:00:00:00:00:01"
SERVER_MAC = "02:00:00:00:00:02"


def test_mmio_wqes_cross_the_16_bit_wrap_in_order():
    sim = Simulator()
    testbed = build(sim, TopologySpec(
        name="remote-pair",
        nodes=[NodeSpec(name="client"), NodeSpec(name="server")],
        links=[LinkSpec(a="client", b="server")]))
    client, server = testbed.node("client"), testbed.node("server")
    client.add_vport_for_mac(1, CLIENT_MAC)
    server.add_vport_for_mac(1, SERVER_MAC)
    sq = client.driver.create_eth_qp(1).sq
    receiver = server.driver.create_eth_qp(1)
    receiver.post_rx_buffers(8)
    got = []
    receiver.on_receive = lambda data, cqe: got.append(data)

    sq.pi = sq.ci = 0xFFFF
    frames = [Flow(CLIENT_MAC, SERVER_MAC, "10.0.0.1", "10.0.0.2", 7000,
                   7000 + i).make_sized_packet(64).to_bytes()
              for i in range(2)]
    driver = client.driver
    for index, frame in zip((0xFFFF, 0x10000), frames):
        addr = driver.allocator.alloc(len(frame))
        client.memory.write_local(addr - driver.mem_base, frame)
        client.nic.handle_write(
            WQE_MMIO_BASE + sq.qpn * WQE_MMIO_STRIDE,
            TxWqe(OP_ETH_SEND, sq.qpn, index, addr, len(frame)).pack())
    assert sq.pi == 0x10001
    sim.run(until=1e-3)
    assert sq.ci == 0x10001 and not sq.mmio_wqes
    assert got == frames
