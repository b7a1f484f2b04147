"""Deterministic cost gate: a frame on the rx path is steered off its
layout, never re-parsed into header objects nor re-serialised.

Function calls under ``cProfile`` repeat to the digit, so a consumer
that goes back to ``find`` (and thaws every packet) fails here, in
tier-1, and not only in ``benchmarks/perf``'s ``net`` row.  Shaped like
``tests/pcie/test_fabric_cost.py``: warmed bursts, only the synchronous
per-frame work profiled.
"""

import cProfile
import pstats

from repro.core import AxisMetadata
from repro.experiments.setups import flde_echo_local
from repro.net import Flow
from repro.net.parse import parse_frame
from repro.sim import Simulator
from repro.testbed import make_local_node

MAC = "02:00:00:00:00:99"
BURST = 16
FRAMES = 128

#: (file, function) pairs that mean a frame was thawed, rebuilt or
#: re-packed on the way through.
OBJECT_PATH = {
    ("packet.py", "find"), ("packet.py", "append"), ("packet.py", "_thaw"),
    ("packet.py", "<genexpr>"), ("packet.py", "<listcomp>"),
    ("parse.py", "parse_headers"), ("ethernet.py", "unpack"),
    ("ip.py", "unpack"), ("udp.py", "unpack"), ("ip.py", "pack"),
}


def frames(count):
    flow = Flow("02:00:00:00:00:01", MAC, "10.0.0.1", "10.0.0.2", 7000, 7001)
    return [flow.make_sized_packet(64).to_bytes() for _ in range(count)]


def profiled(per_frame, data, between_bursts):
    """Calls per frame of ``per_frame`` over warmed bursts of ``data``."""
    profile = cProfile.Profile()
    for start in range(0, len(data), BURST):
        burst = data[start:start + BURST]
        if start:   # the first burst warms caches and lazy imports
            profile.enable()
        for frame in burst:
            per_frame(frame)
        profile.disable()
        between_bursts()
    stats = pstats.Stats(profile)
    seen = {(filename.rsplit("/", 1)[-1], name)
            for filename, _line, name in stats.stats}
    assert not seen & OBJECT_PATH
    return stats.total_calls / (len(data) - BURST)


def test_wire_to_receive_queue():
    """``parse_frame`` → FDB → vPort rx root → ``_deliver_disposition``
    (checksum validate, an rx list record into the queue's inbox):
    26.0 calls a frame here, 29.0 when the eSwitch asked the device's
    RoCE hook about every frame, the record was an object built by
    ``__init__`` and the inbox was looked up by queue number, 41.4 when
    each table hop and crossing chained its own frames, 94.4 when every
    stage looked its headers up again."""
    sim = Simulator()
    node = make_local_node(sim)
    node.add_vport_for_mac(2, MAC)
    qp = node.driver.create_eth_qp(2)
    qp.post_rx_buffers(FRAMES)
    got = []
    qp.on_receive = lambda data, cqe: got.append(data)
    ingress = node.nic.eswitch.ingress_from_wire
    data = frames(FRAMES)

    cost = profiled(lambda frame: ingress(parse_frame(frame)), data, sim.run)
    assert got == data
    assert cost <= 26


def test_echo_accelerator():
    """``EchoAccelerator.process``: parse once, byte-swap, hand the bytes
    on: 12.1 calls a frame here, 19.0 when the swap built a packet and
    re-parsed it, 60.0 through header objects."""
    sim = Simulator()
    accel = flde_echo_local(sim).accel
    meta = AxisMetadata()
    data = frames(FRAMES)
    echoed = []

    cost = profiled(
        lambda frame: echoed.extend(accel.process(frame, meta)), data,
        lambda: None)
    assert [len(out) for out, _meta in echoed] == [64] * FRAMES
    assert echoed[0][0][0:6] == data[0][6:12]
    assert cost <= 14
