"""Unit tests for compressed descriptor/CQE formats and BAR decode."""

import pytest

from repro.core import (
    COMPRESSED_CQE_SIZE,
    COMPRESSED_TX_DESC_SIZE,
    CompressedCqe,
    CompressedTxDescriptor,
    FlexDriver,
    RxError,
    bar,
)
from repro.nic import CQE_RECV_COMPLETION, OP_RDMA_SEND, WQE_SIZE
from repro.nic.wqe import OP_ETH_SEND
from repro.pcie import PcieError, PcieFabric
from repro.sim import Simulator


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


def bar_fld():
    """An FLD whose BAR handlers report where each access went."""
    sim = Simulator()
    fld = FlexDriver(sim, PcieFabric(sim))
    seen = []
    fld.tx.handle_ring_read = lambda *args: seen.append(("ring",) + args)
    fld.tx.data_xlt.read_virtual = \
        lambda *args: seen.append(("data",) + args)
    fld._on_cqe_write = lambda *args: seen.append(("cq",) + args)
    return fld, seen


class TestBarLayout:
    """The BAR is decoded by ``FlexDriver.handle_read``/``handle_write``;
    each region is probed at its first and last offset."""

    @pytest.mark.parametrize("offset, expected", [
        (bar.TX_RING_REGION, ("ring", 0, 0, 64)),
        (bar.tx_ring_address(queue=1, wqe_index=2), ("ring", 1, 128, 64)),
        (bar.TX_DATA_REGION - 64,
         ("ring", bar.TX_DATA_REGION // bar.TX_RING_SPAN - 1,
          bar.TX_RING_SPAN - 64, 64)),
        (bar.TX_DATA_REGION, ("data", 0, 0, 64)),
        (bar.tx_data_address(queue=3, virt_offset=0x100),
         ("data", 3, 0x100, 64)),
        (bar.RX_BUFFER_REGION - 64,
         ("data", (bar.RX_BUFFER_REGION - bar.TX_DATA_REGION)
          // bar.TX_DATA_SPAN - 1, bar.TX_DATA_SPAN - 64, 64)),
    ])
    def test_tx_reads_decode_queue_and_offset(self, offset, expected):
        fld, seen = bar_fld()
        fld.handle_read(offset, 64)
        assert seen == [expected]

    def test_data_read_counts_its_bytes(self):
        fld, _seen = bar_fld()
        fld.handle_read(bar.TX_DATA_REGION, 64)
        assert fld.tx.stats_data_read_bytes == 64

    @pytest.mark.parametrize("offset", [
        bar.RX_BUFFER_REGION, bar.CQ_REGION, bar.PI_REGION,
        bar.FLD_BAR_SIZE - 64])
    def test_rx_side_regions_are_unreadable(self, offset):
        fld, _seen = bar_fld()
        with pytest.raises(PcieError):
            fld.handle_read(offset, 64)

    def test_rx_buffer_writes_land_at_both_ends_of_sram(self):
        fld, _seen = bar_fld()
        last = fld.rx.capacity_bytes - 4
        fld.handle_write(bar.rx_buffer_address(0), b"head")
        fld.handle_write(bar.rx_buffer_address(last), b"tail")
        assert fld.rx._sram[:4] == b"head"
        assert fld.rx._sram[last:] == b"tail"
        assert fld.rx.stats_sram_writes == 2

    def test_rx_buffer_region_end_is_past_the_sram(self):
        fld, _seen = bar_fld()
        with pytest.raises(RxError):
            fld.handle_write(bar.CQ_REGION - 1, b"x")
        assert fld.rx.stats_sram_writes == 0

    @pytest.mark.parametrize("offset, cq_index", [
        (bar.CQ_REGION, 0),
        (bar.cq_address(2) + 128, 2),
        (bar.PI_REGION - 1, (bar.PI_REGION - bar.CQ_REGION) // bar.CQ_SPAN
         - 1),
    ])
    def test_cq_writes_decode_the_ring(self, offset, cq_index):
        fld, seen = bar_fld()
        fld.handle_write(offset, b"cqe")
        assert seen == [("cq", cq_index, b"cqe")]

    @pytest.mark.parametrize("offset", [bar.PI_REGION, bar.FLD_BAR_SIZE - 4])
    def test_pi_writes_are_accepted(self, offset):
        fld, seen = bar_fld()
        fld.handle_write(offset, b"\x00\x00\x00\x01")
        assert seen == []

    @pytest.mark.parametrize("offset", [
        bar.TX_RING_REGION, bar.TX_DATA_REGION - 4, bar.TX_DATA_REGION,
        bar.RX_BUFFER_REGION - 4])
    def test_tx_regions_are_unwritable(self, offset):
        fld, _seen = bar_fld()
        with pytest.raises(PcieError):
            fld.handle_write(offset, b"\x00" * 4)

    def test_out_of_bar_raises(self):
        fld, seen = bar_fld()
        with pytest.raises(PcieError):
            fld.handle_read(bar.FLD_BAR_SIZE, 64)
        with pytest.raises(PcieError):
            fld.handle_write(bar.FLD_BAR_SIZE, b"\x00" * 4)
        assert seen == []

    def test_regions_are_disjoint_and_ordered(self):
        assert (bar.TX_RING_REGION < bar.TX_DATA_REGION
                < bar.RX_BUFFER_REGION < bar.CQ_REGION < bar.PI_REGION
                < bar.FLD_BAR_SIZE)
