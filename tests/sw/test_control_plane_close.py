"""A control plane's teardown: pass a few frames through its testbed,
close the plane where it has a close, tear the testbed down, and
nothing of the plane is left — the audit is clean and every firmware
object table is empty."""

from repro.experiments.echo import drive_fldr
from repro.experiments.iot import drive_line_rate
from repro.scenario import elaborate


def assert_torn_down(setup):
    assert setup.testbed.quiesce() == []
    for name, rows in setup.testbed.objects().items():
        assert rows == [], f"{name} still holds firmware objects"


def test_flde_plane_close_then_teardown():
    sim, setup = elaborate("iot-line-rate")
    drive_line_rate(sim, setup, None, 256, duration=2e-6)
    assert setup.accel.stats_tenant_valid_bytes
    steering = setup.server.nic.steering
    resume = [name for name in steering.tables if ".resume" in name]
    assert resume
    setup.control.close()
    setup.testbed.teardown()
    assert_torn_down(setup)
    assert not [name for name in steering.tables if name in resume]


def test_fldr_plane_needs_no_close_of_its_own():
    """FLD-R's connections are runtime queues: ``FldRuntime.shutdown``,
    run by the testbed's teardown, releases them and the shared MPRQ."""
    sim, setup = elaborate("fldr")
    assert drive_fldr(sim, setup, 8, 256, "fldr")["received"] == 8
    assert setup.control.qps
    setup.testbed.teardown()
    assert_torn_down(setup)


def iot_plane_after_traffic():
    sim, setup = elaborate("iot-line-rate")
    drive_line_rate(sim, setup, None, 256, duration=2e-6)
    return setup, setup.control


def server_objects(setup, *kinds):
    return [row for row in setup.testbed.objects()["server"]
            if row["kind"] in kinds]


def test_after_flde_close_only_the_nodes_fdb_rule_pins_the_vport():
    """Close leaves the vPort's tables rule-free: once the node drops
    its FDB rule, the vPort itself can be destroyed."""
    setup, control = iot_plane_after_traffic()
    control.close()
    [fdb] = server_objects(setup, "rule")
    assert fdb["deps"] == [hex(control.nic.cmd.handle_of(control._vport))]
    control.nic.cmd.destroy(int(fdb["handle"], 16))
    control.nic.cmd.destroy(control._vport)
    assert server_objects(setup, "rule", "vport", "resume") == []


def test_flde_close_twice_is_a_no_op():
    setup, control = iot_plane_after_traffic()
    control.close()
    tables = set(setup.server.nic.steering.tables)
    control.close()
    assert set(setup.server.nic.steering.tables) == tables
    setup.testbed.teardown()
    assert_torn_down(setup)
