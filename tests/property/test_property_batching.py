"""Property-based round-trip tests for the vectorized codecs.

Each batched codec (``pack_many``/``unpack_many``) must agree with its
scalar twin on *arbitrary* field values and on arbitrary raw bytes —
not just the values the experiments happen to produce.  Every property
is checked in both modes; in scalar mode the batched entry points take
their fallback loop, so the fallback is exercised by the same inputs.
"""

from hypothesis import given, settings, strategies as st

from repro import batching
from repro.core import (
    COMPRESSED_CQE_SIZE,
    COMPRESSED_TX_DESC_SIZE,
    CompressedCqe,
    CompressedTxDescriptor,
    CuckooHashTable,
)
from repro.nic import CQE_SIZE, Cqe, RxDesc, TxWqe, WQE_SIZE
from repro.nic.wqe import OP_ETH_SEND, OP_RDMA_SEND, RX_DESC_SIZE
from repro.pcie.tlp import (
    COMPLETION_HEADER,
    DLLP_FRAMING,
    MEM_REQUEST_HEADER,
    completion_chunks,
    read_wire_bytes,
    split_write_bytes,
    write_wire_bytes,
)

u8 = st.integers(0, 0xFF)
u16 = st.integers(0, 0xFFFF)
u24 = st.integers(0, 0xFFFFFF)
u32 = st.integers(0, 0xFFFFFFFF)
u64 = st.integers(0, 0xFFFFFFFFFFFFFFFF)

tx_wqes = st.builds(
    TxWqe, opcode=u8, qpn=u32, wqe_index=u16, buffer_addr=u64,
    byte_count=u32, flags=u8, lkey=u32, context_id=u32,
    ack_req=st.booleans(), remote_addr=u64, rkey=u32, mss=u16,
)
cqes = st.builds(
    Cqe, opcode=u8, qpn=u32, wqe_counter=u16, byte_count=u32, flags=u8,
    rss_hash=u32, flow_tag=u32, stride_index=u16, owner=u8, syndrome=u8,
)
rx_descs = st.builds(RxDesc, buffer_addr=u64, byte_count=u32, lkey=u32)
tx_descs = st.builds(
    CompressedTxDescriptor, handle=u16, length=u16, context_id=u24,
    opcode=st.sampled_from([OP_ETH_SEND, OP_RDMA_SEND]),
    signaled=st.booleans(),
)
compressed_cqes = st.builds(
    CompressedCqe, opcode=u8, qpn=u24, wqe_counter=u16, byte_count=u16,
    flags=u8, flow_tag=u32, stride_index=u16,
)

CODECS = [
    (TxWqe, tx_wqes, WQE_SIZE),
    (Cqe, cqes, CQE_SIZE),
    (RxDesc, rx_descs, RX_DESC_SIZE),
    (CompressedTxDescriptor, tx_descs, COMPRESSED_TX_DESC_SIZE),
    (CompressedCqe, compressed_cqes, COMPRESSED_CQE_SIZE),
]


def in_both_modes(check):
    """Run ``check()`` with the batched paths on, then forced off."""
    previous = batching.set_batch_enabled(True)
    try:
        check()
        batching.set_batch_enabled(False)
        check()
    finally:
        batching.set_batch_enabled(previous)


def fields_of(obj):
    return {
        name: getattr(obj, name)
        for name in type(obj).__slots__
        if name != "trace_ctx"
    }


class TestCodecRoundTrips:
    @given(st.data(), st.integers(0, len(CODECS) - 1))
    @settings(max_examples=120, deadline=None)
    def test_pack_many_matches_joined_scalar_packs(self, data, which):
        cls, strategy, _size = CODECS[which]
        objs = data.draw(st.lists(strategy, max_size=20))

        def check():
            assert cls.pack_many(objs) == b"".join(o.pack() for o in objs)

        in_both_modes(check)

    @given(st.data(), st.integers(0, len(CODECS) - 1))
    @settings(max_examples=120, deadline=None)
    def test_unpack_many_matches_scalar_unpacks(self, data, which):
        cls, strategy, size = CODECS[which]
        objs = data.draw(st.lists(strategy, max_size=20))
        blob = b"".join(o.pack() for o in objs)

        def check():
            many = cls.unpack_many(blob, len(objs))
            singles = [cls.unpack(blob[i * size:(i + 1) * size])
                       for i in range(len(objs))]
            assert [fields_of(m) for m in many] \
                == [fields_of(s) for s in singles]

        in_both_modes(check)

    @given(st.data(), st.integers(0, len(CODECS) - 1))
    @settings(max_examples=120, deadline=None)
    def test_round_trip_preserves_every_field(self, data, which):
        cls, strategy, _size = CODECS[which]
        objs = data.draw(st.lists(strategy, min_size=1, max_size=12))

        def check():
            decoded = cls.unpack_many(cls.pack_many(objs), len(objs))
            assert [fields_of(d) for d in decoded] \
                == [fields_of(o) for o in objs]

        in_both_modes(check)

    @given(st.integers(0, 2), st.integers(0, 16), st.data())
    @settings(max_examples=120, deadline=None)
    def test_arbitrary_raw_bytes_decode_identically(self, which, count,
                                                    data):
        # Only the NIC-format codecs accept arbitrary bytes (the
        # compressed formats reject reserved opcode bits by design).
        cls, _strategy, size = CODECS[which]
        blob = data.draw(st.binary(min_size=count * size,
                                   max_size=count * size))

        def check():
            many = cls.unpack_many(blob, count)
            singles = [cls.unpack(blob[i * size:(i + 1) * size])
                       for i in range(count)]
            assert [fields_of(m) for m in many] \
                == [fields_of(s) for s in singles]

        in_both_modes(check)


class TestCuckooBatchLookupProperties:
    @given(st.dictionaries(st.integers(0, 1 << 40), u32, max_size=48),
           st.lists(st.integers(0, 1 << 40), max_size=64))
    @settings(max_examples=80, deadline=None)
    def test_int_keys_match_scalar_lookup(self, mapping, probes):
        table = CuckooHashTable(capacity=128, load_factor=0.5)
        for key, value in mapping.items():
            table.insert(key, value)
        probes += list(mapping)

        def check():
            assert table.lookup_many(probes) \
                == [mapping.get(k) for k in probes]

        in_both_modes(check)

    @given(st.dictionaries(st.tuples(u16, u16), u32, max_size=48),
           st.lists(st.tuples(u16, u16), max_size=64))
    @settings(max_examples=80, deadline=None)
    def test_tuple_keys_match_scalar_lookup(self, mapping, probes):
        """(queue, index) keys — the translation-table shape."""
        table = CuckooHashTable(capacity=128, load_factor=0.5)
        for key, value in mapping.items():
            table.insert(key, value)
        probes += list(mapping)

        def check():
            assert table.lookup_many(probes) \
                == [table.lookup(k) for k in probes]

        in_both_modes(check)

    @given(st.lists(st.one_of(st.integers(-5, 5),
                              st.integers(1 << 61, 1 << 64),
                              st.text(max_size=4)),
                    min_size=2, max_size=16))
    @settings(max_examples=40, deadline=None)
    def test_unvectorizable_keys_fall_back_correctly(self, keys):
        """Negative / huge ints and strings can't use the uint64 hash
        emulation; lookup_many must still answer like scalar lookup."""
        table = CuckooHashTable(capacity=64, load_factor=0.5)
        for i, key in enumerate(dict.fromkeys(keys)):
            table.insert(key, i)

        def check():
            assert table.lookup_many(keys) == [table.lookup(k)
                                               for k in keys]

        in_both_modes(check)


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
