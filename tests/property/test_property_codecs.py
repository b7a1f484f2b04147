"""Property tests for the descriptor layouts, the burst decoders and
the cuckoo batch probe.

A burst decoder (``unpack_many``) must read every record exactly as the
single-record ``unpack`` does, on arbitrary bytes — not just the values
the experiments happen to produce — and a batch probe must answer like
one ``lookup`` per key, whatever the key's type.  The datapath's own
packs and ``unpack_from`` reads must agree with the codec classes.
"""

from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import (
    AxisMetadata,
    BufferPool,
    CompressedTxDescriptor,
    CuckooHashTable,
    TxRingManager,
)
from repro.host.driver import ETH_HEADER
from repro.net import Flow
from repro.nic import (
    CQE_RECV_COMPLETION,
    CQE_SEND_COMPLETION,
    CQE_SIZE,
    Cqe,
    OP_ETH_SEND,
    OP_RDMA_SEND,
    OP_RDMA_WRITE,
    RxDesc,
    TxWqe,
    WQE_FLAG_CSUM_L4,
    WQE_FLAG_LSO,
    WQE_FLAG_SIGNALED,
    WQE_SIZE,
)
from repro.nic.wqe import (
    CQE,
    CQE_ERROR,
    RX_DESC,
    RX_DESC_SIZE,
    TX_WQE,
    CqeRecord,
    TxWqeRecord,
)
from repro.pcie.tlp import (
    COMPLETION_HEADER,
    DLLP_FRAMING,
    MEM_REQUEST_HEADER,
    completion_chunks,
    read_wire_bytes,
    split_write_bytes,
    write_wire_bytes,
)
from repro.sim import Simulator
from repro.testbed import make_local_node

u8 = st.integers(0, 0xFF)
u16 = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFFFFFF)
u64 = st.integers(0, 0xFFFFFFFFFFFFFFFF)

tx_wqes = st.builds(
    TxWqe, opcode=u8, qpn=u32, wqe_index=u16, buffer_addr=u64,
    byte_count=u32, flags=u8, lkey=u32, context_id=u32,
    ack_req=st.booleans(), remote_addr=u64, rkey=u32, mss=u16,
)
rx_descs = st.builds(RxDesc, buffer_addr=u64, byte_count=u32, lkey=u32)

#: The formats the NIC decodes in bursts: class, record size, records.
BURST_CODECS = pytest.mark.parametrize(
    "cls, size, records",
    [(TxWqe, WQE_SIZE, tx_wqes), (RxDesc, RX_DESC_SIZE, rx_descs)],
    ids=["TxWqe", "RxDesc"])


def fields_of(obj):
    return {
        name: getattr(obj, name)
        for name in type(obj).__slots__
        if name != "trace_ctx"
    }


def decode_each(cls, size, blob, count):
    """The oracle: ``count`` single-record decodes of ``blob``."""
    return [fields_of(cls.unpack(blob[i * size:(i + 1) * size]))
            for i in range(count)]


@BURST_CODECS
class TestBurstDecoders:
    @given(st.integers(0, 32), st.data())
    @settings(max_examples=80, deadline=None)
    def test_unpack_many_reads_each_record_like_unpack(self, cls, size,
                                                       records, count, data):
        blob = data.draw(st.binary(min_size=count * size,
                                   max_size=count * size))
        many = cls.unpack_many(blob, count)
        assert [fields_of(m) for m in many] \
            == decode_each(cls, size, blob, count)
        assert all(getattr(m, "trace_ctx", None) is None for m in many)

    @given(st.integers(0, 32), st.integers(1, 2 * WQE_SIZE), st.data())
    @settings(max_examples=60, deadline=None)
    def test_an_over_long_buffer_reads_only_count_records(
            self, cls, size, records, count, extra, data):
        length = count * size + extra
        blob = data.draw(st.binary(min_size=length, max_size=length))
        assert [fields_of(m) for m in cls.unpack_many(blob, count)] \
            == decode_each(cls, size, blob, count)

    @given(st.integers(1, 32), st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_short_buffer_raises(self, cls, size, records, count, data):
        short = data.draw(st.integers(1, count * size))
        with pytest.raises(ValueError):
            cls.unpack_many(bytes(count * size - short), count)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_burst_round_trip(self, cls, size, records, data):
        objs = data.draw(st.lists(records, max_size=32))
        blob = b"".join(o.pack() for o in objs)
        if hasattr(cls, "pack_many"):
            assert cls.pack_many(objs) == blob
        assert [fields_of(o) for o in cls.unpack_many(blob, len(objs))] \
            == [fields_of(o) for o in objs]


#: Key shapes a batch probe must answer for: plain ints, the translation
#: table's (queue, index) tuples, negative and beyond-64-bit ints,
#: strings, and all of them in one table.
KEY_KINDS = {
    "int": st.integers(0, 1 << 40),
    "tuple": st.tuples(u16, u16),
    "negative": st.integers(-(1 << 20), -1),
    "huge": st.integers(1 << 61, 1 << 80),
    "str": st.text(max_size=4),
}
KEY_KINDS["mixed"] = st.one_of(*KEY_KINDS.values())


class TestCuckooBatchLookup:
    @pytest.mark.parametrize("kind", list(KEY_KINDS))
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_lookup_many_is_one_lookup_per_key(self, kind, data):
        keys = KEY_KINDS[kind]
        mapping = data.draw(st.dictionaries(keys, u32, max_size=48))
        probes = data.draw(st.lists(keys, max_size=64))
        table = CuckooHashTable(capacity=128, load_factor=0.5)
        for key, value in mapping.items():
            table.insert(key, value)
        probes += list(mapping)
        before = table.stats_lookups
        answers = table.lookup_many(probes)
        assert table.stats_lookups == before + len(probes)
        assert answers == [mapping.get(k) for k in probes]
        assert answers == [table.lookup(k) for k in probes]


class TestTlpWireBytes:
    @given(st.integers(0, 4096), st.sampled_from([128, 256, 512]),
           st.sampled_from([64, 128, 256]))
    @settings(max_examples=80, deadline=None)
    def test_wire_size_is_headers_plus_payload(self, length, mps, rcb):
        """Every TLP pays its header and framing once; the payload is
        carried exactly once however the transfer is split."""
        writes = split_write_bytes(length, mps)
        assert sum(writes) == length
        assert all(0 < chunk <= mps for chunk in writes)
        assert write_wire_bytes(length, mps) == (
            length + len(writes) * (MEM_REQUEST_HEADER + DLLP_FRAMING))
        requests = split_write_bytes(length, 512)
        completions = [chunk for request in requests
                       for chunk in completion_chunks(request, rcb)]
        assert sum(completions) == length
        assert read_wire_bytes(length, rcb, max_read_request=512) == (
            len(requests) * (MEM_REQUEST_HEADER + DLLP_FRAMING),
            length + len(completions) * (COMPLETION_HEADER + DLLP_FRAMING))


# -- the datapath's layouts against the codecs --------------------------
#
# Producers pack a record with one ``Struct.pack`` of the values they
# hold and consumers read it with one ``unpack_from``: both must agree
# with the codec classes byte for byte and field for field, including
# where the codec masks (a 16-bit counter, a 32-bit hash), normalises
# (a truthy ack request) or refuses (a context wider than FLD's 24 bits).

MAC = "02:00:00:00:00:99"
u24 = st.integers(0, (1 << 24) - 1)
wide_counters = st.integers(0, 1 << 20)
wide_hashes = st.integers(0, 1 << 40)


def node_with_queue(**qp_options):
    sim = Simulator()
    node = make_local_node(sim)
    node.add_vport_for_mac(2, MAC)
    return node, node.driver.create_eth_qp(2, **qp_options)


def read_host(node, address, length):
    return node.memory.read_local(address - node.driver.mem_base, length)


class TestDatapathDecodesLikeTheCodecs:
    @given(st.binary(min_size=WQE_SIZE, max_size=WQE_SIZE),
           st.integers(1, 0xFF))
    @settings(max_examples=80, deadline=None)
    def test_wqe_record(self, blob, ack_req):
        blob = blob[:28] + bytes([ack_req]) + blob[29:]   # truthy, not 1
        record = TxWqeRecord(TX_WQE.unpack_from(blob) + ("ctx",))
        codec = TxWqe.unpack(blob)
        assert {name: getattr(record, name) for name in TxWqe.__slots__} \
            == fields_of(codec)
        assert record.ack_req is True and record.trace_ctx == "ctx"

    @given(st.binary(min_size=CQE_SIZE, max_size=CQE_SIZE))
    @settings(max_examples=80, deadline=None)
    def test_cqe_record(self, blob):
        record = CqeRecord(CQE.unpack_from(blob) + (None,))
        assert {name: getattr(record, name) for name in Cqe.__slots__} \
            == fields_of(Cqe.unpack(blob))

    @given(st.binary(min_size=RX_DESC_SIZE, max_size=RX_DESC_SIZE))
    @settings(max_examples=80, deadline=None)
    def test_rx_descriptor(self, blob):
        desc = RxDesc.unpack(blob)
        assert RX_DESC.unpack_from(blob) \
            == (desc.buffer_addr, desc.byte_count, desc.lkey)


class TestDatapathPacksLikeTheCodecs:
    @given(index=wide_counters, length=st.integers(ETH_HEADER, 2048),
           signaled=st.booleans(), tso=st.booleans(), mss=u16)
    @example(index=0x10005, length=64, signaled=True, tso=False, mss=0)
    @settings(max_examples=40, deadline=None)
    def test_host_eth_wqe(self, index, length, signaled, tso, mss):
        node, qp = node_with_queue()
        qp._pi = qp._tx_completed = index
        if tso:
            qp.send_tso(bytes(length), mss, signaled)
        else:
            qp.send(bytes(length), signaled)
        flags = (WQE_FLAG_SIGNALED
                 if signaled or (index + 1) % qp.signal_interval == 0
                 else 0)
        if tso:
            flags |= WQE_FLAG_LSO | WQE_FLAG_CSUM_L4
        expected = TxWqe(OP_ETH_SEND, qp.sq.qpn, index,
                         qp._tx_buffers[index % qp.sq.entries], length,
                         flags, mss=mss if tso else 0).pack()
        assert read_host(node, qp.sq.slot_addr(index), WQE_SIZE) == expected

    @given(index=wide_counters, length=st.integers(0, 4096),
           signaled=st.booleans(), write=st.booleans(),
           remote_addr=u64, rkey=u32)
    @example(index=0x1FFFF, length=1, signaled=False, write=True,
             remote_addr=(1 << 64) - 1, rkey=(1 << 32) - 1)
    @settings(max_examples=40, deadline=None)
    def test_host_rc_wqe(self, index, length, signaled, write,
                         remote_addr, rkey):
        sim = Simulator()
        node = make_local_node(sim)
        node.add_vport_for_mac(2, MAC)
        endpoint = node.driver.create_rc_endpoint(2, MAC, "10.0.0.9")
        endpoint._pi = index
        if write:
            endpoint.post_write(bytes(length), remote_addr, rkey, signaled)
        else:
            endpoint.post_send(bytes(length), signaled)
        sq = endpoint.qp.sq
        expected = TxWqe(
            OP_RDMA_WRITE if write else OP_RDMA_SEND, endpoint.qpn, index,
            endpoint._tx_buffers[index % sq.entries], length,
            WQE_FLAG_SIGNALED if signaled else 0,
            remote_addr=remote_addr if write else 0,
            rkey=rkey if write else 0).pack()
        assert read_host(node, sq.slot_addr(index), WQE_SIZE) == expected

    @given(buffer_size=st.integers(64, 16384))
    @settings(max_examples=20, deadline=None)
    def test_host_rx_descriptors(self, buffer_size):
        node, qp = node_with_queue(buffer_size=buffer_size, rq_entries=4)
        qp.post_rx_buffers(3)
        # An error CQE for index 0 only recycles: its buffer moves to the
        # ring's tail, index 3.
        qp._receive((CQE.pack(CQE_ERROR, 0, 0, qp.sq.qpn, 0, 0, 0, 0, 1, 0),
                     None, None))
        for index in (1, 2, 3):
            expected = RxDesc(qp._rx_buffers[index], buffer_size).pack()
            assert read_host(node, qp.rq.slot_addr(index),
                             RX_DESC_SIZE) == expected

    @given(length=st.integers(1, 4096), context=u24, signaled=st.booleans(),
           opcode=st.sampled_from([OP_ETH_SEND, OP_RDMA_SEND]),
           qpn=st.integers(1, 0xFFFFFF), mmio=st.booleans())
    @example(length=64, context=(1 << 24) - 1, signaled=True,
             opcode=OP_ETH_SEND, qpn=1, mmio=True)
    @settings(max_examples=60, deadline=None)
    def test_fld_expansion(self, length, context, signaled, opcode, qpn,
                           mmio):
        """FLD's expansion, rung by MMIO or read off the virtual ring,
        is the compressed descriptor codec's ``expand``."""
        log = []
        tx = TxRingManager(Simulator(), BufferPool(64 * 1024, 256),
                           mmio_writer=lambda addr, data: log.append(data),
                           bar_base=0x1000_0000)
        tx.add_queue(0, qpn=qpn, entries=16, doorbell_addr=0, mmio_addr=0,
                     use_mmio=mmio, opcode=opcode)
        meta = AxisMetadata(queue_id=0, context_id=context, signaled=signaled)
        index = tx.submit(0, bytes(length), meta)
        raw = tx.handle_ring_read(0, 0, WQE_SIZE)
        address = TxWqe.unpack(raw).buffer_addr
        expected = CompressedTxDescriptor(
            *tx.descriptors.lookup(0, index)).expand(qpn, index,
                                                     address).pack()
        assert raw == expected
        assert expected == TxWqe(
            opcode, qpn, index, address, length,
            WQE_FLAG_SIGNALED if signaled else 0,
            context_id=context).pack()
        if mmio:
            assert log == [expected]

    @given(context=st.integers(1 << 24, 1 << 32))
    @example(context=1 << 24)
    @settings(max_examples=20, deadline=None)
    def test_fld_refuses_a_context_wider_than_24_bits(self, context):
        pool = BufferPool(64 * 1024, 256)
        tx = TxRingManager(Simulator(), pool)
        tx.add_queue(0, qpn=1, entries=16, doorbell_addr=0, mmio_addr=0)
        with pytest.raises(ValueError):
            tx.submit(0, bytes(64), AxisMetadata(queue_id=0,
                                                 context_id=context))
        with pytest.raises(ValueError):
            CompressedTxDescriptor(0, 64, context)
        # Refused before anything was taken.
        assert pool.free_chunks == pool.num_chunks
        assert tx.queue(0).pi == 0
        assert tx.descriptors.free_slots == tx.descriptors.capacity

    @given(counter=wide_counters, rss=wide_hashes, flags=u8, tag=u32,
           stride=u16, qpn=u32, length=st.integers(1, 1500))
    @example(counter=0x10000, rss=1 << 32, flags=0, tag=0, stride=0, qpn=1,
             length=64)
    @settings(max_examples=40, deadline=None)
    def test_nic_receive_cqe(self, counter, rss, flags, tag, stride, qpn,
                             length):
        node, qp = node_with_queue()
        nic = node.nic
        posted = []
        nic.fabric.post_write = (
            lambda *args, on_done=None, **kwargs: posted.append(on_done))
        # The rx record as the device's deliver callbacks build it:
        # [data, flags, context_id, qpn, rss_hash, trace_ctx, enqueued,
        #  frame, started], landed in a buffer that holds it.
        item = [bytes(length), flags, tag, qpn, rss, None, 0.0, None, 0.0]
        nic._rx_flat[qp.rq.rqn]._complete(item, (0, length, 0), counter,
                                          stride)
        [on_done] = posted
        assert on_done.args[1] == Cqe(
            CQE_RECV_COMPLETION, qpn, counter, length, flags=flags,
            rss_hash=rss, flow_tag=tag, stride_index=stride).pack()

    @given(index=wide_counters, length=st.integers(0, 2048),
           signaled=st.booleans())
    @example(index=0x10001, length=64, signaled=True)
    @settings(max_examples=40, deadline=None)
    def test_nic_send_cqes(self, index, length, signaled):
        """The uplink send completion (keyed ahead of time) and the
        local one pack the same record as the codec."""
        node, qp = node_with_queue()
        nic = node.nic
        written = []
        nic._post_cqe_at = lambda cq, cqe, ctx, when: written.append(cqe)
        nic._post_cqe = lambda cq, cqe, ctx: written.append(cqe)
        nic.port.send_at = lambda *args: None   # no wire attached
        frame = Flow("02:00:00:00:00:01", "02:00:00:00:00:02", "10.0.0.1",
                     "10.0.0.2", 7000, 7001).make_sized_packet(
                         max(length, 64)).to_bytes()
        wqe = TxWqeRecord(TX_WQE.unpack_from(TxWqe(
            OP_ETH_SEND, qp.sq.qpn, index, 0, len(frame),
            WQE_FLAG_SIGNALED if signaled else 0).pack()) + (None,))
        pipeline = nic._tx_flat[qp.sq.qpn]
        pipeline._tx_send(index, wqe, frame, 0.0)
        pipeline._apply_local(([], wqe, index))
        expected = Cqe(CQE_SEND_COMPLETION, qp.sq.qpn, index,
                       len(frame)).pack()
        assert written == ([expected] * 2 if signaled else [])

    @given(counter=u16, length=u32, syndrome=u8, qpn=u32)
    @settings(max_examples=40, deadline=None)
    def test_nic_rdma_cqes(self, counter, length, syndrome, qpn):
        node, _qp = node_with_queue()
        nic = node.nic
        written = []
        nic._post_cqe = lambda cq, cqe, ctx: written.append(cqe)
        rc = SimpleNamespace(qpn=qpn, sq=SimpleNamespace(cq=None))
        wqe = TxWqeRecord(TX_WQE.unpack_from(TxWqe(
            OP_RDMA_SEND, qpn, counter, 0, length,
            WQE_FLAG_SIGNALED).pack()) + (None,))
        nic._rdma_complete_send(rc, wqe)
        nic._rdma_qp_error(rc, syndrome)
        assert written == [
            Cqe(CQE_SEND_COMPLETION, qpn, counter, length).pack(),
            Cqe(CQE_ERROR, qpn, 0, 0, syndrome=syndrome).pack()]
