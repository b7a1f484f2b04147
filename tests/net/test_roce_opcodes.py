"""The opcode class table agrees with the header classes and the parsers.

``OPCODE_CLASS`` is what the RC engine and ``parse_layout`` branch on;
``Bth``'s properties and the object parser read the same table.  The
expected classes are spelled out here from the IBTA opcode list, so the
table is checked against something it was not built from.
"""

import pytest

from repro.net import Bth, Ethernet, IpAddress, Ipv4, PROTO_UDP, \
    ROCE_V2_PORT, Udp, send_opcode, write_opcode
from repro.net.parse import BTH, PAYLOAD, layer_names, parse_layout
from repro.net.roce import (
    ACK,
    FIRST,
    LAST,
    OPCODE_CLASS,
    OP_ACK,
    OP_RDMA_WRITE_FIRST,
    OP_RDMA_WRITE_LAST,
    OP_RDMA_WRITE_MIDDLE,
    OP_RDMA_WRITE_ONLY,
    OP_SEND_FIRST,
    OP_SEND_LAST,
    OP_SEND_MIDDLE,
    OP_SEND_ONLY,
    SEGMENT_OPCODE,
    SEND,
    WRITE,
)

SENDS = {OP_SEND_FIRST, OP_SEND_MIDDLE, OP_SEND_LAST, OP_SEND_ONLY}
WRITES = {OP_RDMA_WRITE_FIRST, OP_RDMA_WRITE_MIDDLE, OP_RDMA_WRITE_LAST,
          OP_RDMA_WRITE_ONLY}
FIRSTS = {OP_SEND_FIRST, OP_SEND_ONLY, OP_RDMA_WRITE_FIRST,
          OP_RDMA_WRITE_ONLY}
LASTS = {OP_SEND_LAST, OP_SEND_ONLY, OP_RDMA_WRITE_LAST, OP_RDMA_WRITE_ONLY}


def roce_frame(opcode, tail=32):
    """Eth/IPv4/UDP 4791 around a BTH of ``opcode`` and ``tail`` bytes."""
    body = Bth(opcode, 7, 1).pack() + bytes(range(tail))
    src, dst = IpAddress("10.0.0.1"), IpAddress("10.0.0.2")
    udp = Udp(49153, ROCE_V2_PORT, Udp.HEADER_LEN + len(body))
    ip = Ipv4(src, dst, proto=PROTO_UDP).finalize(udp.length)
    return (Ethernet("02:00:00:00:00:01", "02:00:00:00:00:02").pack()
            + ip.pack() + udp.pack() + body)


@pytest.mark.parametrize("opcode", range(256))
def test_opcode_class(opcode):
    kind = OPCODE_CLASS[opcode]
    expected = (opcode in SENDS, opcode in WRITES, opcode in FIRSTS,
                opcode in LASTS, opcode == OP_ACK)
    assert tuple(kind & bit != 0 for bit in (SEND, WRITE, FIRST, LAST,
                                             ACK)) == expected
    bth = Bth(opcode, 7, 1)
    assert (bth.is_send, bth.is_write, bth.is_first, bth.is_last,
            bth.is_ack) == expected
    # The AETH/RETH extent parse_layout gives the opcode, and the
    # object parser's header stack.
    extent = (4 if opcode == OP_ACK
              else 16 if opcode in WRITES & FIRSTS else 0)
    frame = roce_frame(opcode)
    layout = parse_layout(frame)
    assert layout[PAYLOAD] - layout[BTH] - Bth.HEADER_LEN == extent
    assert layer_names(frame, layout)[3:] == (
        ["Bth"] + {0: [], 4: ["Aeth"], 16: ["Reth"]}[extent])
    # Too short for its extension header: the parser consumes none.
    short = roce_frame(opcode, tail=3)
    assert parse_layout(short)[PAYLOAD] == parse_layout(short)[BTH] + 12


@pytest.mark.parametrize("bits", range(8))
def test_segment_opcode_table(bits):
    opcode = SEGMENT_OPCODE[bits]
    assert OPCODE_CLASS[opcode] & (WRITE | FIRST | LAST) == bits
    assert OPCODE_CLASS[opcode] & (SEND | WRITE) in (SEND, WRITE)
    first, last = bits & FIRST != 0, bits & LAST != 0
    helper = write_opcode if bits & WRITE else send_opcode
    assert helper(first, last) == opcode
