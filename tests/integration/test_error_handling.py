"""Integration: the error path (§5.3 "Error Handling").

FLD detects data-plane errors and reports them through its kernel
driver; recovery stays with the control-plane application.  These tests
inject faults at different layers and check the channel end to end.
"""

import pytest

from repro.core import FldError, bar
from repro.nic.wqe import CQE_ERROR
from repro.sim import Simulator
from repro.sw import FldKernelDriver, FldRuntime
from repro.testbed import make_local_node
from tests.cqe import cqe_bytes

FLD_MAC = "02:00:00:00:00:99"


def build(sim):
    node = make_local_node(sim)
    node.add_vport_for_mac(2, FLD_MAC)
    runtime = FldRuntime(node)
    kdriver = FldKernelDriver(sim, runtime.fld)
    return node, runtime, kdriver


class TestErrorChannel:
    def test_nic_error_cqe_reaches_application_handler(self):
        sim = Simulator()
        node, runtime, kdriver = build(sim)
        txq = runtime.create_eth_tx_queue(vport=2)
        handled = []
        kdriver.on_error(handled.append)

        # The NIC reports a transmit error: an error CQE lands in the
        # FLD BAR's completion ring (injected via the fabric, as the
        # real device would write it).
        qpn = runtime.fld.tx.queue(txq).qpn
        error_cqe = cqe_bytes(CQE_ERROR, qpn, 0, 0, syndrome=0x22)
        node.fabric.post_write(
            node.nic, runtime.fld_bar_base + bar.cq_address(txq),
            error_cqe,
        )
        sim.run(until=0.001)
        assert len(handled) == 1
        assert handled[0].kind == FldError.CQE_ERROR
        assert handled[0].syndrome == 0x22
        assert kdriver.error_log == handled

    def test_unbound_cq_write_is_reported_not_fatal(self):
        sim = Simulator()
        node, runtime, kdriver = build(sim)
        stray = cqe_bytes(1, 1, 0, 0)
        node.fabric.post_write(
            node.nic, runtime.fld_bar_base + bar.cq_address(9),
            stray,
        )
        sim.run(until=0.001)
        assert len(kdriver.errors_of_kind(FldError.CQE_ERROR)) == 1

    def test_multiple_handlers_all_invoked(self):
        sim = Simulator()
        _node, runtime, kdriver = build(sim)
        a, b = [], []
        kdriver.on_error(a.append)
        kdriver.on_error(b.append)
        runtime.fld.errors.report(FldError.BUFFER_EXHAUSTED, queue=1)
        sim.run(until=0.001)
        assert len(a) == len(b) == 1

    def test_data_plane_continues_after_error(self):
        """An error on one queue does not wedge the data path."""
        from repro.accelerators import EchoAccelerator
        from repro.host import LoadGenerator
        from repro.net import Flow
        from repro.experiments.setups import flde_echo_remote

        sim = Simulator()
        setup = flde_echo_remote(sim)
        kdriver = FldKernelDriver(sim, setup.runtime.fld)
        # Inject an error CQE mid-run.
        loadgen = setup.loadgen

        def run(sim):
            yield from loadgen.run_closed_loop(frame_size=256, count=10)
            qpn = setup.runtime.fld.tx.queue(0).qpn
            setup.server.fabric.post_write(
                setup.server.nic,
                setup.runtime.fld_bar_base + bar.cq_address(0),
                cqe_bytes(CQE_ERROR, qpn, 0, 0, syndrome=1),
            )
            yield from loadgen.run_closed_loop(frame_size=256, count=10)
            yield from loadgen.drain()

        sim.spawn(run(sim))
        sim.run(until=1.0)
        assert loadgen.stats_received == 20
        assert len(kdriver.error_log) == 1
