"""Property: the NIC's receive path conserves frames.

Every frame offered off the wire is either delivered (its bytes land
where its CQE says and the CQE reports them) or counted in exactly one
of the device's receive drops: no descriptor, longer than its buffer,
or a full inbox.  Frame sizes run from 60 B to jumbo, so some frames are
longer than a plain queue's buffer (a local length error that completes
its descriptor in error) or than a whole multi-packet receive queue
(MPRQ) buffer (turned away before it takes a stride); ring depths run
short of descriptors and inboxes fill up.  A plain queue's host driver
reposts every descriptor it gets a CQE for, so its ring ends whole: no
descriptor is taken without a completion.
"""

from hypothesis import example, given, settings, strategies as st

from repro.net import Flow
from repro.net.parse import parse_frame
from repro.nic import NicConfig
from repro.nic.wqe import (CQE, CQE_RECV_COMPLETION, CQE_SIZE, CqeRecord,
                           RX_DESC)
from repro.sim import Simulator
from repro.testbed import make_local_node

MAC = "02:00:00:00:00:99"

#: (size, run the simulation before the next frame?) — frames offered
#: back to back pile up in the inbox and outrun the reposts.
offers = st.lists(st.tuples(st.integers(60, 9000), st.booleans()),
                  min_size=1, max_size=24)
plain = st.tuples(st.just("plain"), st.sampled_from([2, 4, 8]),
                  st.sampled_from([128, 512, 2048, 9216]))
mprq = st.tuples(st.just("mprq"), st.sampled_from([1, 2, 4]),
                 st.sampled_from([1, 2, 8]),
                 st.sampled_from([64, 256, 2048]))


def frames(sizes):
    flow = Flow("02:00:00:00:00:01", MAC, "10.0.0.1", "10.0.0.2", 7000, 7001)
    # Each frame's IP identifier differs, so equal sizes differ in bytes.
    return [flow.make_sized_packet(size).to_bytes() for size in sizes]


def read(node, address, length):
    return node.memory.read_local(address - node.driver.mem_base, length)


def offer(sim, node, data, pauses):
    ingress = node.nic.eswitch.ingress_from_wire
    for frame, pause in zip(data, pauses):
        ingress(parse_frame(frame))
        if pause:
            sim.run()
    sim.run()


def plain_queue(node, entries, buffer_bytes, posted):
    """A host queue pair's receive side; returns (rq, delivered)."""
    qp = node.driver.create_eth_qp(2, rq_entries=entries,
                                   buffer_size=buffer_bytes)
    qp.post_rx_buffers(posted)
    delivered = []

    def on_receive(data, cqe):
        # The driver has reposted this buffer, but nothing has been
        # written to it since: read it back through the descriptor the
        # CQE names.
        address, _bytes, _lkey = RX_DESC.unpack_from(
            read(node, qp.rq.slot_addr(cqe.wqe_counter), RX_DESC.size))
        assert cqe.byte_count == len(data)
        assert read(node, address, cqe.byte_count) == data
        delivered.append(data)

    qp.on_receive = on_receive
    return qp.rq, delivered


def mprq_queue(node, entries, strides, stride_size, posted):
    """An MPRQ whose completions the test reads off the CQ's ring, as a
    poll loop would (the CQ has no consumer hook: each CQE only lands);
    returns (rq, collect) where ``collect()`` reads back every frame
    completed so far."""
    cmd = node.nic.cmd
    alloc = node.driver.allocator.alloc
    cq = cmd.alloc_cq(alloc(256 * CQE.size), 256)
    rq = cmd.alloc_mprq(alloc(entries * RX_DESC.size), entries, cq,
                        strides, stride_size)
    cmd.set_default_queue(2, rq)
    buffer_bytes = strides * stride_size
    buffers = [alloc(buffer_bytes) for _ in range(entries)]
    for index, address in enumerate(buffers[:posted]):
        node.memory.write_local(rq.slot_addr(index) - node.driver.mem_base,
                                RX_DESC.pack(address, buffer_bytes, 0))
    rq.post(posted)

    def collect():
        delivered = []
        for index in range(cq.pi):      # fewer CQEs than ring entries
            raw = read(node, cq.ring_addr + index * CQE_SIZE, CQE_SIZE)
            cqe = CqeRecord(CQE.unpack_from(raw) + (None, None))
            assert cqe.opcode == CQE_RECV_COMPLETION
            address = (buffers[cqe.wqe_counter % entries]
                       + cqe.stride_index * stride_size)
            assert cqe.stride_index * stride_size + cqe.byte_count \
                <= buffer_bytes
            delivered.append(read(node, address, cqe.byte_count))
        return delivered

    return rq, collect


@given(offered=offers, geometry=st.one_of(plain, mprq),
       posted=st.integers(0, 8), inbox=st.integers(1, 8))
@example(offered=[(64, False), (1500, False), (64, False)],
         geometry=("mprq", 2, 2, 256), posted=2, inbox=8)
@example(offered=[(256, True)] * 5 + [(64, True)],
         geometry=("plain", 4, 128), posted=4, inbox=8)
@example(offered=[(60, False), (60, True), (60, False), (129, True),
                  (129, False)],
         geometry=("plain", 2, 128), posted=2, inbox=2)
@settings(deadline=None)
def test_every_frame_is_delivered_or_dropped_once(offered, geometry, posted,
                                                  inbox):
    sim = Simulator()
    node = make_local_node(sim, nic_config=NicConfig(rx_inbox_depth=inbox))
    node.add_vport_for_mac(2, MAC)
    nic = node.nic
    kind, entries = geometry[:2]
    posted = min(posted, entries)
    sizes = [size for size, _pause in offered]
    data = frames(sizes)
    if kind == "plain":
        buffer_bytes = geometry[2]
        rq, delivered = plain_queue(node, entries, buffer_bytes, posted)
        offer(sim, node, data, [pause for _size, pause in offered])
    else:
        strides, stride_size = geometry[2:]
        buffer_bytes = strides * stride_size
        rq, collect = mprq_queue(node, entries, strides, stride_size, posted)
        offer(sim, node, data, [pause for _size, pause in offered])
        delivered = collect()

    drops = (nic.stats_rx_dropped_no_desc + nic.stats_rx_dropped_oversize
             + nic.stats_rx_dropped_inbox)
    assert len(delivered) + drops == len(data)
    assert nic.stats_rx_packets == len(delivered)
    # Delivered frames are offered ones, in order and whole.
    rest = iter(data)
    assert all(frame in rest for frame in delivered)
    assert all(len(frame) <= buffer_bytes for frame in delivered)
    assert nic.stats_rx_dropped_oversize <= sum(
        size > buffer_bytes for size in sizes)
    if kind == "plain":
        assert rq.pi - rq.ci == posted      # every taken slot reposted
    assert len(rq.inbox) == 0
