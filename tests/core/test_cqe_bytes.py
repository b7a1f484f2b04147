"""A CQE's consumers read the bytes that landed.

The NIC writes each receive CQE as 64 bytes over PCIe.  The fused
consumers, FLD's rx engine and a host queue served by a core, must act
on those bytes: a CQE whose ``byte_count`` or ``flow_tag`` changes in
flight must change what they deliver.  Here a wrapped
``post_write_deferred`` rewrites one field of every fused CQE write on
one node's fabric, and the echo is watched at the FLD's rx stream and at
the client's ``on_receive``.
"""

import random

from repro.experiments.setups import flde_echo_remote
from repro.sim import Simulator

COUNT = 8
SIZE = 64
RATE_PPS = 1e6

#: Field offsets in the 64 B CQE (see ``repro.nic.wqe.Cqe``).
BYTE_COUNT = slice(8, 12)
FLOW_TAG = slice(16, 20)


def rewrite_in_flight(fabric, field, rewrite):
    """Every fused CQE write on ``fabric`` lands with ``field`` (a u32)
    replaced by ``rewrite(value)``."""
    original = fabric.post_write_deferred

    def post_write_deferred(requester, address, data, *args, **kwargs):
        value = int.from_bytes(data[field], "big")
        data = (data[:field.start] + rewrite(value).to_bytes(4, "big")
                + data[field.stop:])
        return original(requester, address, data, *args, **kwargs)

    fabric.post_write_deferred = post_write_deferred


def echo(node=None, field=None, rewrite=None):
    """A short paced echo, CQEs rewritten on ``node``'s fabric: the
    (length, context_id) of each frame FLD streams to the accelerator
    and the length of each frame the client hands ``on_receive``."""
    random.seed(7)
    sim = Simulator()
    setup = flde_echo_remote(sim)
    if node is not None:
        rewrite_in_flight(getattr(setup, node).fabric, field, rewrite)
    streamed = []
    stream = setup.runtime.fld.rx_stream
    push = stream.push

    def watch_stream(data, meta):
        streamed.append((len(data), meta.context_id))
        return push(data, meta)

    stream.push = watch_stream
    received = []
    qp = setup.loadgen.qp
    deliver = qp.on_receive

    def watch_receive(data, cqe):
        received.append(len(data))
        deliver(data, cqe)

    qp.on_receive = watch_receive

    def drive():
        yield from setup.loadgen.run_open_loop([SIZE] * COUNT,
                                               rate_pps=RATE_PPS)
        yield from setup.loadgen.drain()

    sim.spawn(drive())
    sim.run()
    return streamed, received


def test_an_untouched_echo_delivers_whole_frames():
    streamed, received = echo()
    assert [length for length, _context in streamed] == [SIZE] * COUNT
    assert received == [SIZE] * COUNT


def test_fld_streams_the_length_the_landed_cqe_carries():
    streamed, _received = echo("server", BYTE_COUNT, lambda n: n - 4)
    assert [length for length, _context in streamed] == [SIZE - 4] * COUNT


def test_fld_streams_the_flow_tag_the_landed_cqe_carries():
    clean, _ = echo()
    streamed, _received = echo("server", FLOW_TAG, lambda tag: tag ^ 0x5A)
    assert [context for _length, context in streamed] \
        == [context ^ 0x5A for _length, context in clean]


def test_host_hands_on_the_length_the_landed_cqe_carries():
    _streamed, received = echo("client", BYTE_COUNT, lambda n: n - 6)
    assert received == [SIZE - 6] * COUNT
