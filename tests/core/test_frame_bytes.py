"""A received frame's consumers act on the bytes that landed.

The NIC writes each received frame over PCIe before its CQE.  Whatever
a consumer knows of the frame's layout must be the parse of the bytes
it reads back, not of the frame the NIC steered on: here a wrapped
``post_write`` sets the IPv4 MF flag in every receive payload write on
one node's fabric (into FLD SRAM on the server, into host memory on the
client), which makes the landed frame a fragment with no L4 header and
its payload right behind IPv4.  The echo must then leave the ports where
they are, and the load generator must read its sequence stamp where the
landed frame's payload starts.  Shaped like ``test_cqe_bytes.py``.  A
header-less packet, whose layout is no parse of its bytes, must reach
its consumer with no layout at all.
"""

import random
import struct

from repro.experiments.setups import cpu_echo_remote, flde_echo_remote
from repro.host.testpmd import swap_frame
from repro.net import Flow, Packet
from repro.net.parse import L4, PAYLOAD, parse_layout
from repro.nic import ESwitch, ForwardToVport
from repro.sim import Simulator
from repro.testbed import make_local_node

COUNT = 8
SIZE = 64
RATE_PPS = 1e6

#: The IPv4 flags/fragment-offset word of an untagged frame.
FLAGS_FRAG = slice(20, 22)
MORE_FRAGMENTS = b"\x20\x00"


def fragment_in_flight(fabric):
    """Every receive payload write on ``fabric`` lands with MF set."""
    original = fabric.post_write

    def post_write(requester, address, data=None, *args, **kwargs):
        if kwargs.get("trace_stage") == "pcie.dma_write":
            data = data[:FLAGS_FRAG.start] + MORE_FRAGMENTS \
                + data[FLAGS_FRAG.stop:]
        return original(requester, address, data, *args, **kwargs)

    fabric.post_write = post_write


def run(setup, sim):
    def drive():
        yield from setup.loadgen.run_open_loop([SIZE] * COUNT,
                                               rate_pps=RATE_PPS)
        yield from setup.loadgen.drain()

    sim.spawn(drive())
    sim.run()


def watch_echo(process):
    """Wrap an echo's per-frame step; returns the (landed, echoed) list."""
    seen = []

    def watched(data, *args):
        out = process(data, *args)
        seen.append((data, out))
        return out

    return seen, watched


def fld_echo(corrupt):
    random.seed(7)
    sim = Simulator()
    setup = flde_echo_remote(sim)
    if corrupt:
        fragment_in_flight(setup.server.fabric)
    accel = setup.accel
    seen, accel.process = watch_echo(
        lambda data, meta: list(type(accel).process(accel, data, meta)))
    run(setup, sim)
    return [(data, out[0][0]) for data, out in seen]


def cpu_echo(corrupt):
    random.seed(7)
    sim = Simulator()
    setup = cpu_echo_remote(sim, jitter=False)
    if corrupt:
        fragment_in_flight(setup.server.fabric)
    qp = setup.echo.qp
    landed = []
    on_receive = qp.on_receive

    def watch_receive(data, cqe):
        landed.append(data)
        on_receive(data, cqe)

    qp.on_receive = watch_receive
    echoed = []
    send = qp.send

    def watch_send(frame, *args, **kwargs):
        echoed.append(frame)
        return send(frame, *args, **kwargs)

    qp.send = watch_send
    run(setup, sim)
    return list(zip(landed, echoed))


def assert_swapped_as_landed(pairs):
    assert len(pairs) == COUNT
    for landed, echoed in pairs:
        assert echoed == swap_frame(landed, parse_layout(landed))


def test_an_untouched_echo_swaps_ports():
    for pairs in (fld_echo(False), cpu_echo(False)):
        assert_swapped_as_landed(pairs)
        landed, echoed = pairs[0]
        assert echoed[34:36] == landed[36:38]


def test_fld_echo_swaps_the_frame_that_landed_in_sram():
    pairs = fld_echo(True)
    assert all(parse_layout(landed)[L4] is None for landed, _ in pairs)
    assert_swapped_as_landed(pairs)
    landed, echoed = pairs[0]
    assert echoed[34:38] == landed[34:38]     # ports left in place


def test_cpu_echo_swaps_the_frame_that_landed_in_host_memory():
    pairs = cpu_echo(True)
    assert all(parse_layout(landed)[L4] is None for landed, _ in pairs)
    assert_swapped_as_landed(pairs)


def loadgen_rtts(corrupt):
    """The landed frames the client's load generator saw, and how many
    round trips it timed."""
    random.seed(7)
    sim = Simulator()
    setup = flde_echo_remote(sim)
    if corrupt:
        fragment_in_flight(setup.client.fabric)
    qp = setup.loadgen.qp
    landed = []
    on_receive = qp.on_receive

    def watch_receive(data, cqe):
        landed.append(data)
        on_receive(data, cqe)

    qp.on_receive = watch_receive
    sent = set(range(COUNT))
    run(setup, sim)
    return landed, len(setup.loadgen.latency), sent


def stamps_at_landed_payload(landed, sent):
    """How many landed frames carry a sent sequence number where their
    own parse puts the payload."""
    hits = 0
    for data in landed:
        at = parse_layout(data)[PAYLOAD]
        if len(data) - at >= 8 and struct.unpack_from("!Q", data, at)[0] \
                in sent:
            hits += 1
    return hits


def test_loadgen_reads_every_stamp_of_an_untouched_echo():
    landed, timed, sent = loadgen_rtts(False)
    assert len(landed) == COUNT
    assert timed == stamps_at_landed_payload(landed, sent) == COUNT


def test_a_header_less_payload_carries_no_layout():
    """A packet built with no headers is all payload (``NO_LAYERS``),
    which is no parse of its bytes: its CQE must carry no layout, so
    the consumer parses what landed."""
    sim = Simulator()
    node = make_local_node(sim)
    node.add_vport_for_mac(2, "02:00:00:00:00:99")
    node.nic.steering.table(ESwitch.FDB_ROOT).default_actions = [
        ForwardToVport(2)]
    qp = node.driver.create_eth_qp(2)
    qp.post_rx_buffers(4)
    got = []
    qp.on_receive = lambda data, cqe: got.append((data, cqe.layout))
    frame = Flow("02:00:00:00:00:01", "02:00:00:00:00:99", "10.0.0.1",
                 "10.0.0.2", 7000, 7001).make_sized_packet(64).to_bytes()
    node.nic.eswitch.ingress_from_wire(Packet(payload=frame))
    sim.run()
    assert got == [(frame, None)]


def test_loadgen_reads_the_stamp_where_the_landed_payload_starts():
    landed, timed, sent = loadgen_rtts(True)
    assert len(landed) == COUNT
    assert all(parse_layout(data)[L4] is None for data in landed)
    assert timed == stamps_at_landed_payload(landed, sent) == 0
