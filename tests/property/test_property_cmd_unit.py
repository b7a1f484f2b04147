"""Stateful oracle for the firmware command unit's object table.

The machine drives the command unit's verbs directly: it creates CQs,
SQs, RQs, MPRQs and RC QPs, creates vPorts and sets or clears their
default queue, installs steering rules, destroys any handle (live or
long gone), and calls verbs naming objects the firmware never saw.
After every step it checks the table against the reference counting
it promises:

* every entry's ``refcount`` equals the number of live entries that
  list it in ``deps``, and no entry depends on a dead handle;
* the NIC's ``sqs``/``rqs``/``cqs`` hold exactly the queues the table
  holds;
* a destroy of a pinned handle raises ``IN_USE`` and a failed verb of
  any kind leaves the table unchanged;
* every failure is a :class:`CmdError` carrying a :class:`CmdStatus`.

Tearing down in reverse dependency order (the newest handle nothing
pins, first) must succeed verb by verb and leave the table and the
NIC's queue maps empty.
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
    CmdError,
    CmdStatus,
    ForwardToQueue,
    ForwardToVport,
    MatchSpec,
    Nic,
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

    def _run(self, verb, *args):
        """Call ``verb``: ``(its result, None)``, or ``(None, status)``
        when it fails, which must leave the table as it was."""
        before = self.table.rows()
        try:
            return verb(*args), None
        except CmdError as err:
            assert isinstance(err.status, CmdStatus)
            assert self.table.rows() == before, (verb.__name__, err)
            return None, err.status

    def _create(self, kind, verb, *args):
        count = len(self.table)
        obj, status = self._run(verb, *args)
        assert status is None, (verb.__name__, status)
        handle = self.table.handle_of(obj)
        assert self.table.get(handle).kind == kind
        assert len(self.table) == count + 1
        return handle

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
        _, status = self._run(self.unit.destroy, handle)
        if entry is None:
            assert status == CmdStatus.BAD_HANDLE
        elif pinned:
            assert status == CmdStatus.IN_USE
        else:
            assert status is None, (entry.kind, status)
            assert self.table.get(handle) is None
            self.dead.append(handle)

    # -- queues -----------------------------------------------------------

    @rule(entries=ENTRIES)
    def create_cq(self, entries):
        self._create("cq", self.unit.alloc_cq, self._next_ring(), entries)

    @precondition(lambda self: self._handles("cq"))
    @rule(data=st.data(), vport=st.integers(0, 3), entries=ENTRIES)
    def create_sq(self, data, vport, entries):
        self._create("sq", self.unit.alloc_sq, self._next_ring(), entries,
                     self._obj(data, "cq"), vport)

    @precondition(lambda self: self._handles("cq"))
    @rule(data=st.data(), shared=st.booleans())
    def create_rq(self, data, shared):
        self._create("rq", self.unit.alloc_rq, self._next_ring(), 64,
                     self._obj(data, "cq"), shared)

    @precondition(lambda self: self._handles("cq"))
    @rule(data=st.data())
    def create_mprq(self, data):
        self._create("mprq", self.unit.alloc_mprq, self._next_ring(), 16,
                     self._obj(data, "cq"))

    @precondition(lambda self: self._handles("rq", "mprq"))
    @rule(data=st.data(), vport=VPORTS)
    def create_qp(self, data, vport):
        self._create("qp", self.unit.alloc_rc_qp, self._next_ring(), 64,
                     self._obj(data, "cq"), self._obj(data, "rq", "mprq"),
                     vport, QP_MAC, QP_IP)

    # -- vPorts and steering ----------------------------------------------

    @rule(vport=VPORTS)
    def create_vport(self, vport):
        obj, status = self._run(self.unit.ensure_vport, vport)
        assert status is None
        assert obj.number == vport
        assert self.table.handle_of(obj) is not None

    @precondition(lambda self: self._handles("rq", "mprq"))
    @rule(data=st.data(), vport=VPORTS)
    def set_vport_default(self, data, vport):
        rq = self._obj(data, "rq", "mprq")
        _, status = self._run(self.unit.set_default_queue, vport, rq)
        assert status is None
        handle = self.table.handle_of(self.nic.eswitch.vports[vport])
        assert self.table.get(handle).deps == [self.table.handle_of(rq)]

    @precondition(lambda self: self._handles("vport"))
    @rule(data=st.data())
    def clear_vport_default(self, data):
        vport = self._obj(data, "vport")
        _, status = self._run(self.unit.clear_default_queue, vport.number)
        assert status is None
        assert self.table.get(self.table.handle_of(vport)).deps == []

    @precondition(lambda self: self._handles("rq", "mprq"))
    @rule(data=st.data(), vport=VPORTS, port=st.integers(1, 3))
    def install_queue_rule(self, data, vport, port):
        self._create("rule", self.unit.install_rule, f"vport{vport}.rx",
                     MatchSpec(dst_port=port),
                     [ForwardToQueue(self._obj(data, "rq", "mprq"))])

    @rule(vport=VPORTS)
    def install_fdb_rule(self, vport):
        args = ("fdb", MatchSpec(dst_mac=f"02:00:00:00:00:0{vport}"),
                [ForwardToVport(vport)])
        if vport not in self.nic.eswitch.vports:
            # A rule to a vPort that does not exist is refused.
            _, status = self._run(self.unit.install_rule, *args)
            assert status == CmdStatus.BAD_HANDLE
            return
        handle = self._create("rule", self.unit.install_rule, *args)
        # The rule pins its target vPort when the firmware knows it.
        targets = [h for h in self._handles("vport")
                   if self.table.get(h).obj.number == vport]
        assert self.table.get(handle).deps == targets

    # -- failures ---------------------------------------------------------

    @rule(data=st.data())
    def destroy_any(self, data):
        handles = self._handles() + self.dead
        if handles:
            self._destroy(data.draw(st.sampled_from(handles)))

    @rule(which=st.integers(0, 5))
    def unregistered_reference(self, which):
        stranger, unit = object(), self.unit
        verb, *args = [(unit.alloc_sq, 1, 16, stranger),
                       (unit.alloc_rq, 1, 16, stranger),
                       (unit.set_default_queue, 1, stranger),
                       (unit.clear_default_queue, 9),
                       (unit.install_rule, "fdb", MatchSpec(),
                        [ForwardToQueue(stranger)]),
                       (unit.install_rule, "fdb", MatchSpec(), [])][which]
        assert self._run(verb, *args)[1] is not None

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
