"""Stateful oracle for the firmware command unit's object table.

The machine drives ``nic.cmd.execute`` directly: it creates CQs, SQs,
RQs, MPRQs and RC QPs, creates vPorts and sets or clears their default
queue, installs steering rules, destroys any handle (live or long
gone), and submits commands naming objects the firmware never saw.
After every step it checks the table against the reference counting
it promises:

* every entry's ``refcount`` equals the number of live entries that
  list it in ``deps``, and no entry depends on a dead handle;
* the NIC's ``sqs``/``rqs``/``cqs`` hold exactly the queues the table
  holds;
* a destroy of a pinned handle returns ``IN_USE`` and a failed command
  of any kind leaves the table unchanged;
* no exception escapes ``execute``: every outcome is a status.

Tearing down in reverse dependency order (the newest handle nothing
pins, first) must succeed command by command and leave the table and
the NIC's queue maps empty.
"""

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.nic import (
    CmdStatus,
    ForwardToQueue,
    ForwardToVport,
    MatchSpec,
    Nic,
)
from repro.nic.cmd import (
    ClearVportDefault,
    CreateCq,
    CreateMprq,
    CreateRcQp,
    CreateRq,
    CreateSq,
    CreateVport,
    DestroyObject,
    InstallRule,
    SetVportDefault,
)
from repro.pcie import PcieFabric
from repro.sim import Simulator

VPORTS = st.integers(1, 3)
ENTRIES = st.sampled_from([16, 64])
QP_MAC = "02:00:00:00:00:99"
QP_IP = "10.0.0.99"
SEQ_MASK = (1 << 20) - 1


class CmdUnitMachine(RuleBasedStateMachine):
    @initialize()
    def build(self):
        sim = Simulator()
        self.nic = Nic(sim, PcieFabric(sim), "nic")
        self.unit = self.nic.cmd
        self.table = self.unit.table
        self.dead = []          # handles destroyed so far
        self.ring = 0x10_0000   # ring addresses are never dereferenced

    # -- helpers ----------------------------------------------------------

    def _handles(self, *kinds):
        return [int(row["handle"], 16) for row in self.table.rows()
                if not kinds or row["kind"] in kinds]

    def _obj(self, data, *kinds):
        handle = data.draw(st.sampled_from(self._handles(*kinds)))
        return self.table.get(handle).obj

    def _next_ring(self):
        self.ring += 0x1_0000
        return self.ring

    def _execute(self, cmd):
        """Run ``cmd``; a failure must leave the table as it was."""
        before = self.table.rows()
        result = self.unit.execute(cmd)
        assert isinstance(result.status, CmdStatus)
        if not result.ok:
            assert self.table.rows() == before, (cmd, result)
        return result

    def _create(self, cmd, kind):
        count = len(self.table)
        result = self._execute(cmd)
        assert result.ok, (cmd, result)
        assert self.table.get(result.handle).kind == kind
        assert len(self.table) == count + 1
        return result

    def _pinned(self, handle) -> bool:
        entry = self.table.get(handle)
        if entry.refcount:
            return True
        if entry.kind != "vport":
            return False
        # A vPort whose receive table still holds rules stays too.
        table = self.nic.steering.tables.get(entry.obj.rx_root)
        return table is not None and bool(table.rules)

    def _destroy(self, handle):
        entry = self.table.get(handle)
        pinned = entry is not None and self._pinned(handle)
        result = self._execute(DestroyObject(handle=handle))
        if entry is None:
            assert result.status == CmdStatus.BAD_HANDLE
        elif pinned:
            assert result.status == CmdStatus.IN_USE
        else:
            assert result.ok, (entry.kind, result)
            assert self.table.get(handle) is None
            self.dead.append(handle)
        return result

    # -- queues -----------------------------------------------------------

    @rule(entries=ENTRIES)
    def create_cq(self, entries):
        self._create(CreateCq(ring_addr=self._next_ring(), entries=entries),
                     "cq")

    @precondition(lambda self: self._handles("cq"))
    @rule(data=st.data(), vport=st.integers(0, 3), entries=ENTRIES)
    def create_sq(self, data, vport, entries):
        self._create(CreateSq(ring_addr=self._next_ring(), entries=entries,
                              cq=self._obj(data, "cq"), vport=vport), "sq")

    @precondition(lambda self: self._handles("cq"))
    @rule(data=st.data(), shared=st.booleans())
    def create_rq(self, data, shared):
        self._create(CreateRq(ring_addr=self._next_ring(), entries=64,
                              cq=self._obj(data, "cq"), shared=int(shared)),
                     "rq")

    @precondition(lambda self: self._handles("cq"))
    @rule(data=st.data())
    def create_mprq(self, data):
        self._create(CreateMprq(ring_addr=self._next_ring(), entries=16,
                                cq=self._obj(data, "cq")), "mprq")

    @precondition(lambda self: self._handles("rq", "mprq"))
    @rule(data=st.data(), vport=VPORTS)
    def create_qp(self, data, vport):
        self._create(CreateRcQp(ring_addr=self._next_ring(), entries=64,
                                cq=self._obj(data, "cq"),
                                rq=self._obj(data, "rq", "mprq"),
                                vport=vport, local_mac=QP_MAC,
                                local_ip=QP_IP), "qp")

    # -- vPorts and steering ----------------------------------------------

    @rule(vport=VPORTS)
    def create_vport(self, vport):
        result = self._execute(CreateVport(vport=vport))
        assert result.ok
        assert self.table.get(result.handle).obj.number == vport

    @precondition(lambda self: self._handles("rq", "mprq"))
    @rule(data=st.data(), vport=VPORTS)
    def set_vport_default(self, data, vport):
        rq = self._obj(data, "rq", "mprq")
        result = self._execute(SetVportDefault(vport=vport, rq=rq))
        assert result.ok
        assert self.table.get(result.handle).deps == [
            self.table.handle_of(rq)]

    @precondition(lambda self: self._handles("vport"))
    @rule(data=st.data())
    def clear_vport_default(self, data):
        vport = self._obj(data, "vport")
        result = self._execute(ClearVportDefault(vport=vport.number))
        assert result.ok
        assert self.table.get(result.handle).deps == []

    @precondition(lambda self: self._handles("rq", "mprq"))
    @rule(data=st.data(), vport=VPORTS, port=st.integers(1, 3))
    def install_queue_rule(self, data, vport, port):
        self._create(InstallRule(
            table_name=f"vport{vport}.rx", match=MatchSpec(dst_port=port),
            actions=[ForwardToQueue(self._obj(data, "rq", "mprq"))]),
            "rule")

    @rule(vport=VPORTS)
    def install_fdb_rule(self, vport):
        result = self._create(InstallRule(
            table_name="fdb",
            match=MatchSpec(dst_mac=f"02:00:00:00:00:0{vport}"),
            actions=[ForwardToVport(vport)]), "rule")
        # The rule pins its target vPort when the firmware knows it.
        targets = [h for h in self._handles("vport")
                   if self.table.get(h).obj.number == vport]
        assert self.table.get(result.handle).deps == targets

    # -- failures ---------------------------------------------------------

    @rule(data=st.data())
    def destroy_any(self, data):
        handles = self._handles() + self.dead
        if handles:
            self._destroy(data.draw(st.sampled_from(handles)))

    @rule(which=st.integers(0, 5))
    def unregistered_reference(self, which):
        stranger = object()
        cmd = [CreateSq(ring_addr=1, entries=16, cq=stranger),
               CreateRq(ring_addr=1, entries=16, cq=stranger),
               SetVportDefault(vport=1, rq=stranger),
               ClearVportDefault(vport=9),
               InstallRule(table_name="fdb", match=MatchSpec(),
                           actions=[ForwardToQueue(stranger)]),
               InstallRule(table_name="fdb", match=MatchSpec(),
                           actions=[])][which]
        assert not self._execute(cmd).ok

    # -- teardown ---------------------------------------------------------

    @rule()
    def tear_down_everything(self):
        while len(self.table):
            free = [h for h in self._handles() if not self._pinned(h)]
            assert free, f"nothing destroyable: {self.table.rows()}"
            # Newest first: the reverse of the order things were built.
            self._destroy(max(free, key=lambda h: h & SEQ_MASK))
        assert not self.nic.sqs and not self.nic.rqs and not self.nic.cqs

    # -- invariants -------------------------------------------------------

    @invariant()
    def refcounts_match_deps(self):
        rows = self.table.rows()
        live = {row["handle"] for row in rows}
        for row in rows:
            assert set(row["deps"]) <= live, row
            referents = sum(other["deps"].count(row["handle"])
                            for other in rows)
            assert row["refcount"] == referents, row

    @invariant()
    def nic_queues_match_table(self):
        def objs(*kinds):
            return {id(self.table.get(h).obj) for h in self._handles(*kinds)}

        qp_sqs = {id(self.table.get(h).obj.sq) for h in self._handles("qp")}
        assert {id(q) for q in self.nic.cqs.values()} == objs("cq")
        assert {id(q) for q in self.nic.sqs.values()} == objs("sq") | qp_sqs
        assert {id(q) for q in self.nic.rqs.values()} == objs("rq", "mprq")


TestCmdUnitMachine = CmdUnitMachine.TestCase
