"""Property: the RC engine's packs and its BTH read agree with the
header classes on every field.

Extends ``TestRoceFrameHeads`` from the fixed cases to drawn ones: the
engine packs a segment's BTH (+RETH) or an ACK's BTH+AETH straight into
bytes, which must equal what ``Bth``/``Reth``/``Aeth`` pack for the same
fields, across the 24-bit PSN wrap and remote QPNs past 24 bits.  The
receiver reads the BTH with one ``unpack_from`` and hands its handlers
class bits and ints; those must say what ``Bth.unpack`` says.
"""

from hypothesis import example, given, strategies as st

from repro.net import Aeth, Bth, Reth, send_opcode, write_opcode
from repro.net.parse import BTH
from repro.net.roce import ACK, ACK_REQUEST, FIRST, LAST, OP_ACK, WRITE
from repro.nic.wqe import OP_RDMA_SEND, OP_RDMA_WRITE, TxWqe
from repro.sim import Simulator

from ..nic.test_offloads_shaper_rdma import (
    _Loopback,
    assert_born_parsed,
    landed,
    packed_by_header_classes,
)

#: PSNs either side of the 24-bit wrap, and anywhere.
psns = st.one_of(st.integers(0xFFFFF0, 0xFFFFFF), st.integers(0, 16),
                 st.integers(0, 0xFFFFFF))
#: Remote QPNs, past 24 bits too (the BTH keeps the low 24).
qpns = st.integers(0, (1 << 32) - 1)
u32 = st.integers(0, (1 << 32) - 1)


def received(engine, frame):
    """What ``engine.on_ingress`` hands a handler for ``frame``: the
    handler's name, the QP it looked up and its ints."""
    seen = []
    for name in ("_handle_ack", "_handle_write", "_handle_data"):
        setattr(engine, name,
                lambda qp, *args, name=name: seen.append((name, qp, args)))
    assert engine.on_ingress(frame)
    (call,) = seen
    return call


def assert_read_as_unpacked(engine, frame):
    bth = Bth.unpack(frame.raw[frame.layout[BTH]:])
    target = object()
    engine.qps = {bth.dest_qp: target}
    name, qp, args = received(engine, frame)
    assert qp is target
    if bth.is_ack:
        assert (name, args) == ("_handle_ack", (bth.psn,))
        return
    _packet, flags, psn = args
    assert name == ("_handle_write" if bth.is_write else "_handle_data")
    assert psn == bth.psn
    assert ((flags & ACK, flags & WRITE != 0, flags & FIRST != 0,
             flags & LAST != 0, flags & ACK_REQUEST != 0)
            == (0, bth.is_write, bth.is_first, bth.is_last,
                bth.ack_request))


@given(psn=psns, qpn=qpns, first=st.booleans(), last=st.booleans(),
       write=st.booleans(), size=st.integers(0, 1024),
       address=st.integers(0, (1 << 64) - 1), rkey=u32, length=u32)
@example(psn=0xFFFFFF, qpn=1 << 24, first=True, last=True, write=True,
         size=0, address=0, rkey=0, length=0)
def test_segment(psn, qpn, first, last, write, size, address, rkey,
                 length):
    loop = _Loopback(Simulator())
    qp = loop.qp_a
    qp.remote_qpn, qp.next_psn = qpn, psn
    payload = bytes(range(256)) * 4
    wqe = landed(TxWqe(OP_RDMA_WRITE if write else OP_RDMA_SEND, 1, 0, 0,
                       size))
    frame = loop.a._build_frame(
        qp, payload[:size], first, last, wqe, is_write=write,
        remote_addr=address, rkey=rkey, total_length=length)
    opcode = (write_opcode if write else send_opcode)(first, last)
    transport = [Bth(opcode, qpn, psn, ack_request=last)]
    if write and first:
        transport.append(Reth(address, rkey, length))
    assert frame.to_bytes() == packed_by_header_classes(
        qp, transport, payload[:size])
    assert_born_parsed(frame)
    assert_read_as_unpacked(loop.b, frame)


@given(expected=psns, qpn=qpns, msn=st.integers(0, 0xFFFFFF))
@example(expected=0, qpn=(1 << 32) - 1, msn=0xFFFFFF)
def test_ack(expected, qpn, msn):
    loop = _Loopback(Simulator())
    qp, sent = loop.qp_b, []
    loop.b.egress = lambda qp, frame: sent.append(frame)
    qp.remote_qpn, qp.expected_psn, qp.received_msn = qpn, expected, msn
    loop.b._send_ack(qp)
    (frame,) = sent
    assert frame.to_bytes() == packed_by_header_classes(
        qp, [Bth(OP_ACK, qpn, expected - 1), Aeth(msn=msn)], b"")
    assert_born_parsed(frame)
    assert_read_as_unpacked(loop.a, frame)
