"""Full-path teardown: every create has a destroy that really releases.

Destroy-commands must return what their creates took — NIC rings,
FLD receive-SRAM slices, host allocator blocks, address-map windows,
steering rules — so an N-tenant testbed can be torn down to an empty
firmware object table and rebuilt indefinitely without exhausting
anything.
"""

import pytest

from repro.experiments.scale_tenants import scale_tenants_spec
from repro.scenario import elaborate as elaborate_row
from repro.sim import Simulator
from repro.sw import FldRuntime
from repro.telemetry import Telemetry
from repro.testbed import make_local_node
from repro.topology.build import build

FLD_MAC = "02:00:00:00:00:99"
TENANTS = 4


def elaborate(tenants=TENANTS):
    sim = Simulator()
    testbed = build(sim, scale_tenants_spec(tenants))
    return sim, testbed


def test_object_table_dump_lists_the_fldr_control_plane():
    """``python -m repro objects fldr``: every resource the FLD-R
    testbed uses was born through the command unit, so the dump
    names each kind."""
    from repro.scenario import observe
    doc = observe("objects", "fldr")
    assert doc["experiment"] == "fldr"
    assert set(doc["nodes"]) == {"client", "server"}
    kinds = {row["kind"] for rows in doc["nodes"].values() for row in rows}
    assert {"cq", "qp", "vport", "rule"} <= kinds


class TestTestbedTeardown:
    def test_object_tables_empty_after_teardown(self):
        sim, testbed = elaborate()
        populated = testbed.objects()
        # The build really went through the firmware: tenants' queues,
        # vPorts and steering rules all have table entries.
        assert all(rows for rows in populated.values())
        assert sum(len(rows) for rows in populated.values()) > 3 * TENANTS
        testbed.teardown()
        for name, rows in testbed.objects().items():
            assert rows == [], f"{name} still holds firmware objects"
        for node in testbed.nodes.values():
            assert len(node.nic.cmd.table) == 0

    def test_rx_sram_slices_returned(self):
        sim, testbed = elaborate()
        fld = testbed.fld("server.fld").fld
        assert fld.rx.sram_bytes_in_use > 0
        testbed.teardown()
        assert fld.rx.sram_bytes_in_use == 0

    def test_addrmap_windows_released(self):
        sim, testbed = elaborate()
        server = testbed.node("server")
        assert "server.fld" in server.addrmap
        testbed.teardown()
        names = {w.name for w in server.addrmap.windows()}
        assert names == {"dram", "nic-bar"}

    def test_host_allocator_returns_to_empty(self):
        sim, testbed = elaborate()
        client = testbed.node("client")
        assert client.driver.allocator.used > 0
        testbed.teardown()
        for node in testbed.nodes.values():
            assert node.driver.allocator.used == 0, node.name

    def test_steering_rules_and_vports_removed(self):
        sim, testbed = elaborate()
        server = testbed.node("server")
        assert len(server.nic.eswitch.vports) == TENANTS
        assert server.nic.steering.table("fdb").rules
        testbed.teardown()
        assert server.nic.eswitch.vports == {}
        assert server.nic.steering.table("fdb").rules == []

    def test_quiesce_clean_after_teardown(self):
        sim, testbed = elaborate()
        testbed.teardown()
        testbed.assert_quiesced()


    def test_exported_counts_survive_teardown(self):
        """Counts are the devices', not their queues': tearing every
        queue down leaves each exported counter where it was or higher,
        and the per-device WQE totals exactly where they were."""
        telemetry = Telemetry(trace=False)
        sim, setup = elaborate_row("scale-tenants", telemetry=telemetry,
                                   shape={"tenants": 2})
        loadgen = setup.loadgen

        def run(sim):
            yield from loadgen.run_open_loop_flows(
                setup.flows, [256] * 40, rate_pps=1e6,
                labels=["tenant0", "tenant1"])
            yield from loadgen.drain()

        sim.spawn(run(sim))
        sim.run(until=0.01)
        assert loadgen.stats_received == 40
        before = telemetry.metrics.to_dict()["counters"]
        assert before["nic.client.nic.tx.wqes"] == 40
        assert before["nic.server.nic.tx.wqes"] == 40

        setup.testbed.teardown()
        sim.run(until=0.02)
        after = telemetry.metrics.to_dict()["counters"]
        assert set(after) == set(before)
        shrunk = {name: (before[name], after[name]) for name in before
                  if after[name] < before[name]}
        assert shrunk == {}
        for name in ("nic.client.nic.tx.wqes", "nic.server.nic.tx.wqes",
                     "nic.server.nic.rx.packets", "accel.tenant0.packets",
                     "fld.server.fld.tx.packets"):
            assert after[name] == before[name], name


class TestChurn:
    """Create/destroy cycles must not bleed SRAM, rings or memory."""

    def test_fld_queue_churn_does_not_exhaust_sram(self):
        sim = Simulator()
        node = make_local_node(sim)
        node.add_vport_for_mac(2, FLD_MAC)
        runtime = FldRuntime(node)
        # Each rx queue takes the full 64-stride SRAM budget: any leak
        # fails the second iteration, never mind the twentieth.
        for i in range(20):
            rq = runtime.create_rx_queue(vport=2)
            txq = runtime.create_eth_tx_queue(vport=2)
            runtime.destroy_tx_queue(txq)
            runtime.destroy_rx_queue(rq)
            assert runtime.fld.rx.sram_bytes_in_use == 0, f"iteration {i}"

    def test_host_qp_churn_returns_allocator_blocks(self):
        sim = Simulator()
        node = make_local_node(sim)
        node.add_vport_for_mac(2, FLD_MAC)
        baseline = node.driver.allocator.used
        for i in range(20):
            qp = node.driver.create_eth_qp(vport=2)
            qp.post_rx_buffers(256)
            qp.close()
            assert node.driver.allocator.used == baseline, f"iteration {i}"
        assert len(node.nic.cmd.table) == 2  # the vport + its fdb rule

    def test_runtime_churn_releases_bar_window(self):
        sim = Simulator()
        node = make_local_node(sim)
        node.add_vport_for_mac(2, FLD_MAC)
        for _ in range(3):
            runtime = FldRuntime(node)
            rq = runtime.create_rx_queue(vport=2)
            runtime.shutdown()
            assert "local.fld" not in node.addrmap
            assert runtime.fld.rx.sram_bytes_in_use == 0

    def test_tenant_vport_churn(self):
        """Steer, unsteer, re-steer the same MACs — rule and vPort
        objects must not accumulate in the firmware table."""
        sim = Simulator()
        node = make_local_node(sim)
        macs = [f"02:00:00:00:01:{i:02x}" for i in range(TENANTS)]
        for _ in range(5):
            for i, mac in enumerate(macs):
                node.add_vport_for_mac(2 + i, mac)
            assert len(node.nic.eswitch.vports) == TENANTS
            for mac in reversed(macs):
                node.remove_vport_for_mac(mac)
            assert len(node.nic.cmd.table) == 0
            assert node.nic.eswitch.vports == {}
