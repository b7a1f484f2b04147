"""Unit tests for the NIC device's BAR decoding and control interface,
and for the FLD BAR windows the NIC's queues point into."""

import pytest

from repro.core import FlexDriver, bar as fld_bar
from repro.nic import Nic, NicConfig
from repro.nic.device import (
    DOORBELL_STRIDE,
    RQ_DOORBELL_BASE,
    WQE_MMIO_BASE,
    WQE_MMIO_STRIDE,
)
from repro.nic import OP_ETH_SEND, TxWqe
from repro.pcie import PcieError, PcieFabric
from repro.sim import Simulator


def make_nic():
    sim = Simulator()
    fabric = PcieFabric(sim)
    nic = Nic(sim, fabric, "nic")
    return sim, nic


class TestDoorbellDecode:
    def test_sq_doorbell_advances_pi(self):
        sim, nic = make_nic()
        cq = nic.create_cq(0x1000, 64)
        sq = nic.create_sq(0x2000, 64, cq)
        nic.handle_write(sq.qpn * DOORBELL_STRIDE, (5).to_bytes(4, "big"))
        assert sq.pi == 5

    def test_unknown_sq_doorbell_is_dropped_and_counted(self):
        """A doorbell for a queue that does not exist (destroyed while
        the write was in flight, or never made) is dropped, as a NIC
        drops a write to a freed doorbell, and counted."""
        _sim, nic = make_nic()
        nic.handle_write(42 * DOORBELL_STRIDE, (1).to_bytes(4, "big"))
        assert nic.stats_dropped_doorbells == 1

    @pytest.mark.parametrize("offset", [0, DOORBELL_STRIDE - 1])
    def test_first_stride_is_an_unknown_sq(self, offset):
        """qpn 0 is never allocated, and no command doorbell sits in its
        stride: a write there is dropped like any unknown SQ's."""
        _sim, nic = make_nic()
        cq = nic.create_cq(0x1000, 64)
        sq = nic.create_sq(0x2000, 64, cq)
        nic.handle_write(offset, (1).to_bytes(4, "big"))
        assert nic.stats_dropped_doorbells == 1 and sq.pi == 0

    def test_rq_doorbell_posts_descriptors(self):
        sim, nic = make_nic()
        cq = nic.create_cq(0x1000, 64)
        rq = nic.create_rq(0x3000, 64, cq)
        offset = RQ_DOORBELL_BASE + rq.rqn * DOORBELL_STRIDE
        nic.handle_write(offset, (8).to_bytes(4, "big"))
        assert rq.available == 8
        # Replayed/stale doorbells (pi not advancing) are harmless.
        nic.handle_write(offset, (8).to_bytes(4, "big"))
        assert rq.available == 8

    def test_unknown_rq_doorbell_is_dropped_and_counted(self):
        _sim, nic = make_nic()
        nic.handle_write(RQ_DOORBELL_BASE + 9 * DOORBELL_STRIDE,
                         (1).to_bytes(4, "big"))
        assert nic.stats_dropped_doorbells == 1

    def test_mmio_wqe_stages_and_rings(self):
        sim, nic = make_nic()
        cq = nic.create_cq(0x1000, 64)
        sq = nic.create_sq(0x2000, 64, cq)
        wqe = TxWqe(OP_ETH_SEND, sq.qpn, 0, 0x9000, 64)
        nic.handle_write(WQE_MMIO_BASE + sq.qpn * WQE_MMIO_STRIDE,
                         wqe.pack())
        assert sq.pi == 1
        assert sq.stats_mmio_wqes == 1
        assert 0 in sq.mmio_wqes

    def test_mmio_wqe_for_unknown_sq_is_dropped_and_counted(self):
        _sim, nic = make_nic()
        wqe = TxWqe(OP_ETH_SEND, 3, 0, 0, 0)
        nic.handle_write(WQE_MMIO_BASE + 3 * WQE_MMIO_STRIDE, wqe.pack())
        assert nic.stats_dropped_doorbells == 1

    def test_doorbells_for_a_destroyed_queue_are_dropped(self):
        sim, nic = make_nic()
        cq = nic.create_cq(0x1000, 64)
        sq = nic.create_sq(0x2000, 64, cq)
        rq = nic.create_rq(0x3000, 64, cq)
        nic.destroy_sq(sq)
        nic.destroy_rq(rq)
        nic.handle_write(sq.qpn * DOORBELL_STRIDE, (1).to_bytes(4, "big"))
        nic.handle_write(RQ_DOORBELL_BASE + rq.rqn * DOORBELL_STRIDE,
                         (1).to_bytes(4, "big"))
        nic.handle_write(WQE_MMIO_BASE + sq.qpn * WQE_MMIO_STRIDE,
                         TxWqe(OP_ETH_SEND, sq.qpn, 0, 0x9000, 64).pack())
        sim.run()
        assert nic.stats_dropped_doorbells == 3
        assert sq.pi == 0 and not sq.mmio_wqes and rq.pi == 0

    def test_bar_reads_unsupported(self):
        _sim, nic = make_nic()
        with pytest.raises(PcieError):
            nic.handle_read(0, 4)


class TestControlInterface:
    def test_queue_numbering_monotone(self):
        _sim, nic = make_nic()
        cq = nic.create_cq(0x1000, 64)
        first = nic.create_sq(0x2000, 64, cq)
        second = nic.create_sq(0x3000, 64, cq)
        assert second.qpn == first.qpn + 1

    def test_resume_table_registration(self):
        _sim, nic = make_nic()
        first = nic.register_resume_table("after-accel")
        second = nic.register_resume_table("other")
        assert first != second
        assert nic._resume_tables[first] == "after-accel"

    def test_resume_id_reused_for_same_table(self):
        _sim, nic = make_nic()
        a = nic._resume_id_for("t")
        b = nic._resume_id_for("t")
        assert a == b

    def test_set_vport_default_queue_creates_vport(self):
        _sim, nic = make_nic()
        cq = nic.create_cq(0x1000, 64)
        rq = nic.create_rq(0x3000, 64, cq)
        nic.set_vport_default_queue(7, rq)
        assert 7 in nic.eswitch.vports

    def test_config_defaults(self):
        config = NicConfig()
        assert config.port_rate_bps == 25e9
        assert config.rdma_mtu == 1024


class TestFldTxWindows:
    """Every tx queue id the runtime can hand out owns a ring window, a
    data window and a tx CQ slot inside their FLD BAR regions."""

    @pytest.mark.parametrize("queue", range(fld_bar.MAX_TX_QUEUES))
    def test_windows_inside_their_regions(self, queue):
        ring = fld_bar.tx_ring_address(queue)
        assert fld_bar.TX_RING_REGION <= ring
        assert ring + fld_bar.TX_RING_SPAN <= fld_bar.TX_DATA_REGION
        data = fld_bar.tx_data_address(queue)
        assert fld_bar.TX_DATA_REGION <= data
        assert data + fld_bar.TX_DATA_SPAN <= fld_bar.RX_BUFFER_REGION
        assert queue < FlexDriver.RX_CQ_BASE

    def test_limit_fills_the_data_region(self):
        assert (fld_bar.tx_data_address(fld_bar.MAX_TX_QUEUES - 1)
                + fld_bar.TX_DATA_SPAN == fld_bar.RX_BUFFER_REGION)
