"""Unit tests for NIC descriptor formats."""

import pytest

from repro.nic import (
    CQE_FLAG_L4_OK,
    CQE_RECV_COMPLETION,
    CQE_SIZE,
    OP_ETH_SEND,
    RX_DESC_SIZE,
    TxWqe,
    WQE_FLAG_SIGNALED,
    WQE_SIZE,
)
from repro.nic.wqe import CQE, RX_DESC, CqeRecord


class TestTxWqe:
    def test_size_is_64(self):
        wqe = TxWqe(OP_ETH_SEND, 1, 0, 0x1000, 100)
        assert len(wqe.pack()) == WQE_SIZE == 64

    def test_roundtrip(self):
        wqe = TxWqe(OP_ETH_SEND, qpn=42, wqe_index=77,
                    buffer_addr=0x1234_5678_9ABC, byte_count=1500,
                    flags=WQE_FLAG_SIGNALED, lkey=3, context_id=0xBEEF,
                    ack_req=False)
        again = TxWqe.unpack(wqe.pack())
        assert again.qpn == 42
        assert again.wqe_index == 77
        assert again.buffer_addr == 0x1234_5678_9ABC
        assert again.byte_count == 1500
        assert again.flags & WQE_FLAG_SIGNALED
        assert again.context_id == 0xBEEF
        assert not again.ack_req

    def test_wqe_index_wraps_16bit(self):
        wqe = TxWqe(OP_ETH_SEND, 1, 0x12345, 0, 0)
        assert wqe.wqe_index == 0x2345

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            TxWqe.unpack(b"\x00" * 8)

    def test_repr_names_the_queue_index_and_buffer(self):
        wqe = TxWqe(OP_ETH_SEND, qpn=42, wqe_index=77, buffer_addr=0x1000,
                    byte_count=1500)
        assert repr(wqe) == ("TxWqe(op=0x1, qpn=42, idx=77, addr=0x1000, "
                             "len=1500)")


class TestLayouts:
    def test_sizes(self):
        assert RX_DESC.size == RX_DESC_SIZE == 16
        assert CQE.size == CQE_SIZE == 64

    def test_a_cqe_record_names_the_fields_it_was_packed_with(self):
        blob = CQE.pack(CQE_RECV_COMPLETION, CQE_FLAG_L4_OK, 100, 5, 1400,
                        0xFACE, 0x10002, 7, 1, 0)
        record = CqeRecord(CQE.unpack_from(blob) + (None, None))
        assert (record.opcode, record.qpn, record.wqe_counter,
                record.byte_count, record.rss_hash, record.flow_tag,
                record.stride_index) == (CQE_RECV_COMPLETION, 5, 100, 1400,
                                         0xFACE, 0x10002, 7)
        assert record.flags & CQE_FLAG_L4_OK
