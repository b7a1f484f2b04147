"""Program/map object lifecycle through the firmware command unit.

Pins the ownership story: maps and programs are firmware objects with
handles and refcounts; attaching pins the program, a program pins its
maps, destroy order is enforced (IN_USE), attach/detach state errors
are typed (BAD_STATE/BAD_PARAM), and the datapath hooks return to the
NULL fast path (``prog_hook is None``) when the last program detaches.
"""

import pytest

from repro.experiments.prog import prog_spec
from repro.nic import CmdStatus
from repro.nic.cmd import (
    AttachProg,
    CreateProgMap,
    DelMapEntry,
    DetachProg,
    QueryMapEntry,
    SetMapEntry,
)
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
        "unit": runtime.nic.cmd,
        "ctrl": runtime.ctrl,
        "binding": runtime.rx_binding_of(fn.rq),
        "txq": fn.txq,
    }


class TestObjectLifecycle:
    def test_create_query_destroy_round_trip(self, env):
        ctrl = env["ctrl"]
        prog_map = ctrl.create_prog_map(capacity=16)
        ctrl.map_set(prog_map, 7001, 1)
        prog = ctrl.create_prog(firewall(), [prog_map])
        info = ctrl.query(prog)
        assert info["kind"] == "prog"
        assert info["name"] == "firewall"
        assert info["insns"] == 4
        assert info["maps"] == 1
        assert info["counters"]["runs"] == 0
        map_info = ctrl.query(prog_map)
        assert map_info["kind"] == "map"
        assert map_info["capacity"] == 16
        assert map_info["entries"] == 1
        ctrl.destroy(prog)
        ctrl.destroy(prog_map)

    def test_program_pins_its_maps(self, env):
        unit, ctrl = env["unit"], env["ctrl"]
        prog_map = ctrl.create_prog_map()
        prog = ctrl.create_prog(firewall(), [prog_map])
        # The map is referenced by the program: destroy must refuse.
        handle = ctrl.handle_of(prog_map)
        from repro.nic.cmd import DestroyObject
        assert unit.execute(
            DestroyObject(handle=handle)).status == CmdStatus.IN_USE
        ctrl.destroy(prog)
        ctrl.destroy(prog_map)      # unpinned now

    def test_attach_pins_the_program(self, env):
        unit, ctrl = env["unit"], env["ctrl"]
        prog = ctrl.create_prog(passthrough(), [])
        ctrl.attach_prog(env["fld"], prog, "rx", env["binding"])
        from repro.nic.cmd import DestroyObject
        assert unit.execute(DestroyObject(
            handle=ctrl.handle_of(prog))).status == CmdStatus.IN_USE
        ctrl.detach_prog(env["fld"], "rx", env["binding"])
        ctrl.destroy(prog)

    def test_bad_capacity_is_bad_param(self, env):
        assert env["unit"].execute(
            CreateProgMap(capacity=0)).status == CmdStatus.BAD_PARAM


class TestAttachDetach:
    def test_rx_hook_set_and_restored(self, env):
        fld, ctrl = env["fld"], env["ctrl"]
        assert fld.rx.prog_hook is None          # NULL fast path
        prog = ctrl.create_prog(passthrough(), [])
        ctrl.attach_prog(fld, prog, "rx", env["binding"])
        assert fld.rx.prog_hook is not None
        ctrl.detach_prog(fld, "rx", env["binding"])
        assert fld.rx.prog_hook is None          # restored on detach
        ctrl.destroy(prog)

    def test_tx_hook_set_and_restored(self, env):
        fld, ctrl = env["fld"], env["ctrl"]
        assert fld.tx.prog_hook is None
        prog = ctrl.create_prog(passthrough(), [])
        ctrl.attach_prog(fld, prog, "tx", env["txq"])
        assert fld.tx.prog_hook is not None
        ctrl.detach_prog(fld, "tx", env["txq"])
        assert fld.tx.prog_hook is None
        ctrl.destroy(prog)

    def test_double_attach_is_bad_state(self, env):
        unit, ctrl = env["unit"], env["ctrl"]
        prog = ctrl.create_prog(passthrough(), [])
        ctrl.attach_prog(env["fld"], prog, "rx", env["binding"])
        result = unit.execute(AttachProg(
            prog=prog, fld=env["fld"], direction="rx",
            target=env["binding"]))
        assert result.status == CmdStatus.BAD_STATE
        ctrl.detach_prog(env["fld"], "rx", env["binding"])
        ctrl.destroy(prog)

    def test_detach_nothing_is_bad_state(self, env):
        assert env["unit"].execute(DetachProg(
            fld=env["fld"], direction="rx",
            target=env["binding"])).status == CmdStatus.BAD_STATE

    def test_attach_to_unknown_target_is_bad_param(self, env):
        unit, ctrl = env["unit"], env["ctrl"]
        prog = ctrl.create_prog(passthrough(), [])
        for direction, target in (("rx", 77), ("tx", 77)):
            assert unit.execute(AttachProg(
                prog=prog, fld=env["fld"], direction=direction,
                target=target)).status == CmdStatus.BAD_PARAM
        assert unit.execute(AttachProg(
            prog=prog, fld=env["fld"], direction="sideways",
            target=0)).status == CmdStatus.BAD_PARAM
        assert unit.execute(AttachProg(
            prog=prog, fld=None, direction="rx",
            target=0)).status == CmdStatus.BAD_PARAM
        ctrl.destroy(prog)

    def test_attach_requires_a_prog_handle(self, env):
        assert env["unit"].execute(AttachProg(
            prog=object(), fld=env["fld"], direction="rx",
            target=env["binding"])).status == CmdStatus.BAD_HANDLE


class TestMapCommands:
    def test_set_get_del_round_trip(self, env):
        ctrl = env["ctrl"]
        prog_map = ctrl.create_prog_map(capacity=8)
        ctrl.map_set(prog_map, 5, 50)
        assert ctrl.map_get(prog_map, 5) == 50
        ctrl.map_set(prog_map, 5, 51)        # replace in place
        assert ctrl.map_get(prog_map, 5) == 51
        ctrl.map_del(prog_map, 5)
        assert ctrl.map_get(prog_map, 5) is None
        ctrl.destroy(prog_map)

    def test_query_map_entry_presence(self, env):
        unit, ctrl = env["unit"], env["ctrl"]
        prog_map = ctrl.create_prog_map()
        ctrl.map_set(prog_map, 1, 10)
        info = unit.execute(QueryMapEntry(map=prog_map, key=1)).info
        assert info == {"present": True, "value": 10}
        info = unit.execute(QueryMapEntry(map=prog_map, key=2)).info
        assert info == {"present": False, "value": None}
        ctrl.destroy(prog_map)

    def test_full_map_is_no_resources(self, env):
        unit, ctrl = env["unit"], env["ctrl"]
        prog_map = ctrl.create_prog_map(capacity=2)
        ctrl.map_set(prog_map, 1, 1)
        ctrl.map_set(prog_map, 2, 2)
        result = unit.execute(SetMapEntry(map=prog_map, key=3,
                                             value=3))
        assert result.status == CmdStatus.NO_RESOURCES
        # Replacing an existing key still works at capacity.
        ctrl.map_set(prog_map, 1, 100)
        assert ctrl.map_get(prog_map, 1) == 100
        ctrl.destroy(prog_map)

    def test_delete_missing_key_is_bad_param(self, env):
        unit, ctrl = env["unit"], env["ctrl"]
        prog_map = ctrl.create_prog_map()
        assert unit.execute(DelMapEntry(
            map=prog_map, key=9)).status == CmdStatus.BAD_PARAM
        ctrl.destroy(prog_map)

    def test_map_commands_require_map_handles(self, env):
        unit = env["unit"]
        for cmd in (SetMapEntry(map=object(), key=1, value=1),
                    DelMapEntry(map=object(), key=1),
                    QueryMapEntry(map=object(), key=1)):
            assert unit.execute(cmd).status == CmdStatus.BAD_HANDLE

