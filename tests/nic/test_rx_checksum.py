"""The rx checksum offload judges the bytes that arrived, and the NIC
delivers them as they arrived.

Before frames travelled as bytes + layout, ``validate`` verified a
re-packed IPv4 header (whose checksum ``Ipv4.pack`` had just recomputed)
and ``_deliver_disposition`` re-serialised the header objects: a corrupt
header checksum read ``L3_OK`` and left the NIC repaired, ECN bits left
zeroed.
"""

import pytest

from repro.net import Flow, internet_checksum
from repro.net.parse import parse_frame
from repro.nic import CQE_FLAG_L3_OK, CQE_FLAG_L4_OK
from repro.sim import Simulator
from repro.testbed import make_local_node

MAC = "02:00:00:00:00:99"


def canonical_frame() -> bytes:
    flow = Flow("02:00:00:00:00:01", MAC, "10.0.0.1", "10.0.0.2", 7000, 7001)
    return flow.make_packet(b"hello, world", fill_checksums=True).to_bytes()


def corrupt_ip_checksum(frame: bytes) -> bytes:
    out = bytearray(frame)
    out[24] ^= 0xFF
    return bytes(out)


def ecn_marked(frame: bytes) -> bytes:
    """CE-mark the frame the way a switch does: set the two ECN bits
    and repair the header checksum."""
    out = bytearray(frame)
    out[15] |= 0x03
    out[24:26] = bytes(2)
    out[24:26] = internet_checksum(bytes(out[14:34])).to_bytes(2, "big")
    return bytes(out)


def receive(frames):
    """Each frame through ``Nic`` rx to a host queue: ``[(data, flags)]``."""
    sim = Simulator()
    node = make_local_node(sim)
    node.add_vport_for_mac(2, MAC)
    qp = node.driver.create_eth_qp(2)
    qp.post_rx_buffers(len(frames))
    got = []
    qp.on_receive = lambda data, cqe: got.append((data, cqe.flags))
    for frame in frames:
        node.nic.eswitch.ingress_from_wire(parse_frame(frame))
    sim.run()
    return got


def test_correct_frame_reads_both_flags():
    frame = canonical_frame()
    [(data, flags)] = receive([frame])
    assert data == frame
    assert flags & CQE_FLAG_L3_OK and flags & CQE_FLAG_L4_OK


def test_corrupt_ip_checksum_is_flagged_and_still_delivered():
    frame = corrupt_ip_checksum(canonical_frame())
    [(data, flags)] = receive([frame])
    assert not flags & CQE_FLAG_L3_OK
    assert flags & CQE_FLAG_L4_OK   # the pseudo-header has no checksum
    assert data == frame            # flagged, not repaired


@pytest.mark.parametrize("mark", [ecn_marked, corrupt_ip_checksum])
def test_frame_crosses_rx_byte_for_byte(mark):
    frame = mark(canonical_frame())
    [(data, _flags)] = receive([frame])
    assert data == frame


def test_ecn_marked_frame_keeps_l3_ok():
    [(_data, flags)] = receive([ecn_marked(canonical_frame())])
    assert flags & CQE_FLAG_L3_OK and flags & CQE_FLAG_L4_OK
