"""Program/map object lifecycle through the firmware command unit.

Pins the ownership story: maps and programs are firmware objects with
handles and refcounts; attaching pins the program, a program pins its
maps, destroy order is enforced (IN_USE), attach/detach state errors
are typed (BAD_STATE/BAD_PARAM), and the datapath hooks return to the
NULL fast path (``prog_hook is None``) when the last program detaches.
"""

import pytest

from repro.experiments.prog import prog_spec
from repro.nic import CmdError, CmdStatus
from repro.prog.programs import firewall, passthrough
from repro.sim import Simulator
from repro.topology import build as build_topology


@pytest.fixture()
def testbed():
    sim = Simulator()
    testbed = build_topology(sim, prog_spec("firewall"))
    yield testbed
    testbed.teardown()


@pytest.fixture()
def env(testbed):
    runtime = testbed.fld("server.fld")
    fn = testbed.accel("tenant0")
    return {
        "runtime": runtime,
        "fld": runtime.fld,
        "cmd": runtime.nic.cmd,
        "binding": runtime.rx_binding_of(fn.rq),
        "txq": fn.txq,
    }


def status_of(verb, *args, **kwargs):
    """The status a verb that must fail raises."""
    with pytest.raises(CmdError) as err:
        verb(*args, **kwargs)
    return err.value.status


class TestObjectLifecycle:
    def test_create_query_destroy_round_trip(self, env):
        cmd = env["cmd"]
        prog_map = cmd.create_prog_map(capacity=16)
        cmd.map_set(prog_map, 7001, 1)
        prog = cmd.create_prog(firewall(), [prog_map])
        info = cmd.query(prog)
        assert info["kind"] == "prog"
        assert info["name"] == "firewall"
        assert info["insns"] == 4
        assert info["maps"] == 1
        assert info["counters"]["runs"] == 0
        map_info = cmd.query(prog_map)
        assert map_info["kind"] == "map"
        assert map_info["capacity"] == 16
        assert map_info["entries"] == 1
        cmd.destroy(prog)
        cmd.destroy(prog_map)

    def test_program_pins_its_maps(self, env):
        cmd = env["cmd"]
        prog_map = cmd.create_prog_map()
        prog = cmd.create_prog(firewall(), [prog_map])
        # The map is referenced by the program: destroy must refuse.
        handle = cmd.handle_of(prog_map)
        assert status_of(cmd.destroy, handle) == CmdStatus.IN_USE
        cmd.destroy(prog)
        cmd.destroy(prog_map)      # unpinned now

    def test_attach_pins_the_program(self, env):
        cmd = env["cmd"]
        prog = cmd.create_prog(passthrough(), [])
        cmd.attach_prog(env["fld"], prog, "rx", env["binding"])
        assert status_of(cmd.destroy,
                         cmd.handle_of(prog)) == CmdStatus.IN_USE
        cmd.detach_prog(env["fld"], "rx", env["binding"])
        cmd.destroy(prog)

    def test_bad_capacity_is_bad_param(self, env):
        assert status_of(env["cmd"].create_prog_map,
                         capacity=0) == CmdStatus.BAD_PARAM


class TestAttachDetach:
    def test_rx_hook_set_and_restored(self, env):
        fld, cmd = env["fld"], env["cmd"]
        assert fld.rx.prog_hook is None          # NULL fast path
        prog = cmd.create_prog(passthrough(), [])
        cmd.attach_prog(fld, prog, "rx", env["binding"])
        assert fld.rx.prog_hook is not None
        cmd.detach_prog(fld, "rx", env["binding"])
        assert fld.rx.prog_hook is None          # restored on detach
        cmd.destroy(prog)

    def test_tx_hook_set_and_restored(self, env):
        fld, cmd = env["fld"], env["cmd"]
        assert fld.tx.prog_hook is None
        prog = cmd.create_prog(passthrough(), [])
        cmd.attach_prog(fld, prog, "tx", env["txq"])
        assert fld.tx.prog_hook is not None
        cmd.detach_prog(fld, "tx", env["txq"])
        assert fld.tx.prog_hook is None
        cmd.destroy(prog)

    def test_double_attach_is_bad_state(self, env):
        cmd = env["cmd"]
        prog = cmd.create_prog(passthrough(), [])
        cmd.attach_prog(env["fld"], prog, "rx", env["binding"])
        assert status_of(cmd.attach_prog, env["fld"], prog, "rx",
                         env["binding"]) == CmdStatus.BAD_STATE
        cmd.detach_prog(env["fld"], "rx", env["binding"])
        cmd.destroy(prog)

    def test_detach_nothing_is_bad_state(self, env):
        assert status_of(env["cmd"].detach_prog, env["fld"], "rx",
                         env["binding"]) == CmdStatus.BAD_STATE

    def test_attach_to_unknown_target_is_bad_param(self, env):
        cmd = env["cmd"]
        prog = cmd.create_prog(passthrough(), [])
        for direction, target in (("rx", 77), ("tx", 77)):
            assert status_of(cmd.attach_prog, env["fld"], prog, direction,
                             target) == CmdStatus.BAD_PARAM
        assert status_of(cmd.attach_prog, env["fld"], prog, "sideways",
                         0) == CmdStatus.BAD_PARAM
        assert status_of(cmd.attach_prog, None, prog, "rx",
                         0) == CmdStatus.BAD_PARAM
        cmd.destroy(prog)

    def test_attach_requires_a_prog_handle(self, env):
        assert status_of(env["cmd"].attach_prog, env["fld"], object(), "rx",
                         env["binding"]) == CmdStatus.BAD_HANDLE


class TestMapCommands:
    def test_set_get_del_round_trip(self, env):
        cmd = env["cmd"]
        prog_map = cmd.create_prog_map(capacity=8)
        cmd.map_set(prog_map, 5, 50)
        assert cmd.map_get(prog_map, 5) == 50
        cmd.map_set(prog_map, 5, 51)        # replace in place
        assert cmd.map_get(prog_map, 5) == 51
        cmd.map_del(prog_map, 5)
        assert cmd.map_get(prog_map, 5) is None
        cmd.destroy(prog_map)

    def test_get_map_entry_presence(self, env):
        cmd = env["cmd"]
        prog_map = cmd.create_prog_map()
        cmd.map_set(prog_map, 1, 10)
        assert cmd.map_get(prog_map, 1) == 10
        assert cmd.map_get(prog_map, 2) is None
        cmd.destroy(prog_map)

    def test_full_map_is_no_resources(self, env):
        cmd = env["cmd"]
        prog_map = cmd.create_prog_map(capacity=2)
        cmd.map_set(prog_map, 1, 1)
        cmd.map_set(prog_map, 2, 2)
        assert status_of(cmd.map_set, prog_map, 3,
                         3) == CmdStatus.NO_RESOURCES
        # Replacing an existing key still works at capacity.
        cmd.map_set(prog_map, 1, 100)
        assert cmd.map_get(prog_map, 1) == 100
        cmd.destroy(prog_map)

    def test_delete_missing_key_is_bad_param(self, env):
        cmd = env["cmd"]
        prog_map = cmd.create_prog_map()
        assert status_of(cmd.map_del, prog_map, 9) == CmdStatus.BAD_PARAM
        cmd.destroy(prog_map)

    def test_map_commands_require_map_handles(self, env):
        cmd = env["cmd"]
        for verb, *args in ((cmd.map_set, object(), 1, 1),
                            (cmd.map_del, object(), 1),
                            (cmd.map_get, object(), 1)):
            assert status_of(verb, *args) == CmdStatus.BAD_HANDLE

