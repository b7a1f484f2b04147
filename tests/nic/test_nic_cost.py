"""Deterministic cost gate: a NIC frame is one pass per direction.

A send pass (an MMIO WQE doorbell to the frame on the wire) is
``Nic.handle_write`` ringing the queue's doorbell, the fetch stage's
``_on_doorbell`` → ``_drain`` (which queues the WQE on the window and
launches its data read), the transmit stage's ``_handover`` (or
``_pull``) → ``_tx_send`` → ``_resolve_eth`` once the data lands, and
``EthernetPort.send_at``.  A receive pass (wire to data write and CQE)
is ``ESwitch.forward`` (which offers only a RoCE frame to the RC
transport) → ``_deliver_disposition`` (an rx list record into the
queue's inbox) → ``_begin`` → ``_service`` → ``_complete`` (length
check, data write, next inbox item) → ``_post_cqe`` (which advances the
CQ slot itself).  What they still call is the work: stores, fabric
writes, steering, ``Struct`` packs.  Shaped like
``tests/core/test_fld_cost.py``: warmed bursts of 64 B frames through
a local node's host queue, every frame profiled.
"""

import cProfile
import pstats

from repro.net import Flow
from repro.net.parse import parse_frame
from repro.nic import EthernetPort
from repro.sim import Simulator
from repro.testbed import make_local_node

NIC = "/repro/nic/"
MAC = "02:00:00:00:00:99"
PEER_MAC = "02:00:00:00:00:01"
BURST = 16
FRAMES = 128

#: Helpers whose work now happens in the stage that called them; a
#: device.py ``__init__`` in a warmed burst is a per-frame object.
FOLDED = {
    ("device.py", "_pre_rx_hook"), ("device.py", "_plain_finish"),
    ("device.py", "_tx_begin"), ("device.py", "_push"),
    ("device.py", "__init__"), ("queues.py", "next_slot"),
}


def frames(count, src=PEER_MAC, dst=MAC):
    flow = Flow(src, dst, "10.0.0.1", "10.0.0.2", 7000, 7001)
    return [flow.make_sized_packet(64).to_bytes() for _ in range(count)]


def profiled(per_frame, data, sim):
    """Stats over warmed bursts of ``data``: each frame handed to
    ``per_frame``, then the burst run to completion."""
    profile = cProfile.Profile()
    for start in range(0, len(data), BURST):
        if start:   # the first burst warms caches and lazy imports
            profile.enable()
        for frame in data[start:start + BURST]:
            per_frame(frame)
        sim.run()
        profile.disable()
    return pstats.Stats(profile)


def nic_calls(stats):
    """Calls of ``repro/nic`` functions, plus the builtins they call,
    per profiled frame."""
    total = 0
    for (filename, _line, _name), (_prim, ncalls, _tt, _ct, callers) \
            in stats.stats.items():
        if NIC in filename:
            total += ncalls
        elif filename == "~":
            total += sum(counts[1] for caller, counts in callers.items()
                         if NIC in caller[0])
    return total / (FRAMES - BURST)


def folded_helpers_run(stats):
    return {(filename.rsplit("/", 1)[-1], name)
            for filename, _line, name in stats.stats
            if NIC in filename} & FOLDED


def node_and_queue(**qp_options):
    sim = Simulator()
    node = make_local_node(sim)
    node.add_vport_for_mac(2, MAC)
    return sim, node, node.driver.create_eth_qp(2, **qp_options)


def send_pass():
    sim, node, qp = node_and_queue(use_mmio_wqe=True)
    peer = EthernetPort(sim, "peer")
    node.nic.port.connect(peer)
    wire = []
    peer.on_receive = wire.append
    data = frames(FRAMES, src=MAC, dst=PEER_MAC)   # out the uplink
    stats = profiled(qp.send, data, sim)
    assert [packet.raw for packet in wire] == data
    assert qp.sq.stats_wqe_fetches == 0     # every WQE came by MMIO
    return stats


def receive_pass():
    sim, node, qp = node_and_queue()
    qp.post_rx_buffers(FRAMES)
    got = []
    qp.on_receive = lambda data, cqe: got.append(data)
    ingress = node.nic.eswitch.ingress_from_wire
    data = frames(FRAMES)
    stats = profiled(lambda frame: ingress(parse_frame(frame)), data, sim)
    assert got == data
    return stats


def test_send_pass():
    """17.2 ``repro/nic`` calls a frame here (own frames and the
    builtins they call, the peer port's receive among them); 20.3 when
    the drain queued each WQE through ``_push``, the transmit stage
    began it in ``_tx_begin``, ``_resolve_eth`` appended its one verdict
    and the send CQE's slot came from ``CompletionQueue.next_slot``."""
    stats = send_pass()
    assert not folded_helpers_run(stats)
    assert nic_calls(stats) <= 18


def test_receive_pass():
    """16.4 ``repro/nic`` calls a frame here; 24.4 when the eSwitch
    asked ``Nic._pre_rx_hook`` about every frame, the rx item was an
    object built by ``__init__``, the inbox was looked up per frame,
    ``_plain_finish`` and ``_next`` were frames of their own, the frame
    length was read three times and the CQE's slot came from
    ``CompletionQueue.next_slot``."""
    stats = receive_pass()
    assert not folded_helpers_run(stats)
    assert nic_calls(stats) <= 17
