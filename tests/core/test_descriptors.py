"""Unit tests for the compressed descriptor layouts and BAR decode."""

import pytest

from repro.core import (
    COMPRESSED_CQE,
    COMPRESSED_CQE_SIZE,
    COMPRESSED_TX_DESC,
    COMPRESSED_TX_DESC_SIZE,
    AxisMetadata,
    BufferPool,
    FldConfig,
    FlexDriver,
    RxError,
    TxRingManager,
    bar,
)
from repro.experiments.setups import Calibration
from repro.nic import WQE_SIZE, TxWqe
from repro.pcie import PcieError, PcieFabric
from repro.sim import Simulator


class TestCompressedLayouts:
    def test_sizes_are_table_2b(self):
        assert COMPRESSED_TX_DESC.size == COMPRESSED_TX_DESC_SIZE == 8
        assert COMPRESSED_CQE.size == COMPRESSED_CQE_SIZE == 15

    def test_compression_ratio_vs_nic_format(self):
        """The headline 64 B -> 8 B descriptor compression (Table 2b)."""
        assert WQE_SIZE / COMPRESSED_TX_DESC_SIZE == 8.0


BAR_BASE = 0x1000_0000


def fld_tx(pool_bytes=64 * 1024):
    """A standalone FLD transmit ring manager with one queue, 1."""
    tx = TxRingManager(Simulator(), BufferPool(pool_bytes, 256),
                       bar_base=BAR_BASE)
    tx.add_queue(1, qpn=9, entries=16, doorbell_addr=0, mmio_addr=0)
    return tx


class TestFldFitsTheCompressedLayout:
    """What FLD queues must fit the 8 B descriptor: the handle field is
    16 bits, the length 16 bits and the context 24 bits."""

    @pytest.mark.parametrize("config", [FldConfig(),
                                        Calibration().fld_config()],
                             ids=["prototype", "calibrated"])
    def test_handle_range_checked(self, config):
        fld = FlexDriver(Simulator(), PcieFabric(Simulator()),
                         config=config)
        assert fld.tx.buffers.num_chunks <= 1 << 16

    def test_length_range_checked(self):
        tx = fld_tx(pool_bytes=128 * 1024)
        with pytest.raises(ValueError):
            tx.submit(1, bytes(1 << 16), AxisMetadata(queue_id=1))
        assert tx.buffers.free_chunks == tx.buffers.num_chunks
        index = tx.submit(1, bytes((1 << 16) - 1), AxisMetadata(queue_id=1))
        assert tx.descriptors.lookup(1, index)[1] == (1 << 16) - 1

    @pytest.mark.parametrize("context", [-1, 1 << 24])
    def test_context_range_checked(self, context):
        tx = fld_tx()
        with pytest.raises(ValueError):
            tx.submit(1, bytes(64), AxisMetadata(queue_id=1,
                                                 context_id=context))
        assert tx.queue(1).pi == 0

    def test_expand_to_nic_wqe(self):
        """The expanded WQE points the NIC into the queue's data window,
        and a read there returns the payload, however many chunks it
        spans."""
        tx = fld_tx()
        payload = bytes(range(256)) * 3 + b"tail"
        index = tx.submit(1, payload, AxisMetadata(queue_id=1))
        wqe = TxWqe.unpack(tx.handle_ring_read(1, 0, WQE_SIZE))
        offset = wqe.buffer_addr - BAR_BASE - bar.tx_data_address(1)
        assert 0 <= offset < bar.TX_DATA_SPAN
        assert (wqe.qpn, wqe.wqe_index, wqe.byte_count) == (
            9, index, len(payload))
        assert tx.data_xlt.read_virtual(1, offset, len(payload)) == payload


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
        fld.handle_write(bar.RX_BUFFER_REGION, b"head")
        fld.handle_write(bar.RX_BUFFER_REGION + last, b"tail")
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
