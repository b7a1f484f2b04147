"""Property tests for the burst decoders and the cuckoo batch probe.

A burst decoder (``unpack_many``) must read every record exactly as the
single-record ``unpack`` does, on arbitrary bytes — not just the values
the experiments happen to produce — and a batch probe must answer like
one ``lookup`` per key, whatever the key's type.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CuckooHashTable
from repro.nic import RxDesc, TxWqe, WQE_SIZE
from repro.nic.wqe import RX_DESC_SIZE
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
