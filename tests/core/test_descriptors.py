"""Unit tests for compressed descriptor/CQE formats and BAR decode."""

import pytest

from repro.core import (
    COMPRESSED_CQE_SIZE,
    COMPRESSED_TX_DESC_SIZE,
    CompressedCqe,
    CompressedTxDescriptor,
    bar,
)
from repro.nic import CQE_RECV_COMPLETION, OP_RDMA_SEND, WQE_SIZE
from repro.nic.wqe import OP_ETH_SEND


class TestCompressedTxDescriptor:
    def test_size_is_8_bytes(self):
        desc = CompressedTxDescriptor(handle=5, length=1500)
        assert len(desc.pack()) == COMPRESSED_TX_DESC_SIZE == 8

    def test_roundtrip(self):
        desc = CompressedTxDescriptor(handle=77, length=9000,
                                      context_id=0x123456,
                                      opcode=OP_RDMA_SEND, signaled=False)
        again = CompressedTxDescriptor.unpack(desc.pack())
        assert again.handle == 77
        assert again.length == 9000
        assert again.context_id == 0x123456
        assert again.opcode == OP_RDMA_SEND
        assert not again.signaled

    def test_expand_to_nic_wqe(self):
        desc = CompressedTxDescriptor(handle=3, length=512, context_id=9)
        wqe = desc.expand(qpn=12, wqe_index=100, buffer_addr=0xABCD00)
        assert len(wqe.pack()) == WQE_SIZE == 64
        assert wqe.qpn == 12
        assert wqe.wqe_index == 100
        assert wqe.buffer_addr == 0xABCD00
        assert wqe.byte_count == 512
        assert wqe.context_id == 9
        assert wqe.signaled

    def test_compression_ratio_vs_nic_format(self):
        """The headline 64 B -> 8 B descriptor compression (Table 2b)."""
        assert WQE_SIZE / COMPRESSED_TX_DESC_SIZE == 8.0

    def test_handle_range_checked(self):
        with pytest.raises(ValueError):
            CompressedTxDescriptor(handle=1 << 16, length=10)

    def test_length_range_checked(self):
        with pytest.raises(ValueError):
            CompressedTxDescriptor(handle=0, length=1 << 16)

    def test_context_range_checked(self):
        """A context wider than the 24-bit field is refused, not masked."""
        CompressedTxDescriptor(handle=0, length=10, context_id=(1 << 24) - 1)
        with pytest.raises(ValueError):
            CompressedTxDescriptor(handle=0, length=10, context_id=1 << 24)


class TestCompressedCqe:
    def test_size_is_15_bytes(self):
        cqe = CompressedCqe(CQE_RECV_COMPLETION, qpn=1, wqe_counter=2,
                            byte_count=100)
        assert len(cqe.pack()) == COMPRESSED_CQE_SIZE == 15

    def test_roundtrip(self):
        cqe = CompressedCqe(1, 2, 3, 4, flags=5, flow_tag=6, stride_index=7)
        again = CompressedCqe.unpack(cqe.pack())
        for field in CompressedCqe.__slots__:
            assert getattr(again, field) == getattr(cqe, field)


class TestBarLayout:
    def test_tx_ring_decode(self):
        region = bar.decode(bar.tx_ring_address(queue=1, wqe_index=2))
        assert region.region == "tx_ring"
        assert region.queue == 1
        assert region.offset == 2 * 64

    def test_tx_data_decode(self):
        region = bar.decode(bar.tx_data_address(queue=3, virt_offset=0x100))
        assert region.region == "tx_data"
        assert region.queue == 3
        assert region.offset == 0x100

    def test_rx_buffer_decode(self):
        region = bar.decode(bar.rx_buffer_address(0x42))
        assert region.region == "rx_buffer"
        assert region.offset == 0x42

    def test_cq_decode(self):
        region = bar.decode(bar.cq_address(2) + 128)
        assert region.region == "cq"
        assert region.queue == 2
        assert region.offset == 128

    def test_out_of_bar_raises(self):
        with pytest.raises(ValueError):
            bar.decode(bar.FLD_BAR_SIZE)

    def test_regions_are_disjoint_and_ordered(self):
        assert (bar.TX_RING_REGION < bar.TX_DATA_REGION
                < bar.RX_BUFFER_REGION < bar.CQ_REGION < bar.PI_REGION
                < bar.FLD_BAR_SIZE)
