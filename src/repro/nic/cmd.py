"""Firmware command interface: the command unit's verbs, object lifecycle.

Real mlx5 drivers configure the device through a command interface;
here the host's control planes (the host driver, the FLD runtime and
the FLD-E/FLD-R planes in :mod:`repro.sw`) call the verbs of the
NIC-resident :class:`CommandUnit` directly: ``alloc_cq``,
``install_rule``, ``create_prog``, ``destroy`` and the rest.  A verb
drives the device's internal create/modify/destroy machinery and
returns the live object it created or addressed; it takes no simulated
time.  Every failure raises one exception type, :class:`CmdError`,
carrying a typed :class:`CmdStatus` (a device error is mapped onto
one), and leaves the object table as it was.

Every object is created against the :class:`ObjectTable` with explicit
dependencies (an SQ holds its CQ, a QP holds its CQ and RQ, a vPort
default holds its RQ, a steering rule holds the queues it forwards to);
destroying a referenced object fails with ``CmdStatus.IN_USE``, and
destroys that succeed actually tear the resource down — workers exit,
doorbells are rejected, and the owning layers can release rings, SRAM
slices and address-map windows.
"""

from __future__ import annotations

import enum
import functools
from typing import Any, Dict, List, Optional, Tuple

from .queues import QueueError
from .rdma import QpStateError, RcQp
from .steering import (
    ForwardToQueue,
    ForwardToVport,
    SteeringError,
    ToAccelerator,
)


class CmdStatus(enum.IntEnum):
    """Typed statuses of a failed command (the mlx5 syndrome analogue)."""

    BAD_PARAM = 2
    BAD_HANDLE = 3
    BAD_STATE = 4
    IN_USE = 5
    NO_RESOURCES = 6
    INTERNAL = 7
    VERIFY_FAILED = 8


class CmdError(RuntimeError):
    """A failed command: its typed status and, for a program the
    verifier rejects, the ``E_*`` sub-code of the rule it broke
    (:mod:`repro.prog.verifier`) as ``syndrome``."""

    def __init__(self, status: CmdStatus, message: str = "",
                 syndrome: int = 0):
        super().__init__(message or status.name)
        self.status = status
        self.syndrome = syndrome


# ---------------------------------------------------------------------------
# Object table
# ---------------------------------------------------------------------------


class ResumeTable:
    """A registered FLD-E resume target (handle-addressed)."""

    __slots__ = ("resume_id", "table_name")

    def __init__(self, resume_id: int, table_name: str):
        self.resume_id = resume_id
        self.table_name = table_name


class ObjectEntry:
    __slots__ = ("handle", "kind", "obj", "deps", "refcount", "label")

    def __init__(self, handle: int, kind: str, obj: Any,
                 deps: Tuple[int, ...], label: str):
        self.handle = handle
        self.kind = kind
        self.obj = obj
        self.deps = list(deps)
        self.refcount = 0
        self.label = label


class ObjectTable:
    """Handle-addressed firmware objects with reference counting.

    Handles encode their kind in the top bits (``kind_code << 20 |
    seq``), so a stale or cross-kind handle is detectable, and every
    entry tracks both the handles it depends on and how many entries
    depend on it — destroy order is enforced, not assumed.
    """

    KINDS = ("cq", "sq", "rq", "mprq", "qp", "vport", "rule",
             "resume", "prog", "map")
    # Codes start at 2 so handles keep the values that object-table
    # dumps (tests/golden/cli_outputs.json) pin.
    _KIND_CODE = {kind: code for code, kind in enumerate(KINDS, start=2)}
    _KIND_SHIFT = 20

    def __init__(self):
        self._entries: Dict[int, ObjectEntry] = {}
        self._by_obj: Dict[int, int] = {}      # id(obj) -> handle
        self._next_seq = 1

    def __len__(self) -> int:
        return len(self._entries)

    def insert(self, kind: str, obj: Any, deps: Tuple[int, ...] = (),
               label: str = "") -> int:
        code = self._KIND_CODE[kind]
        handle = (code << self._KIND_SHIFT) | self._next_seq
        self._next_seq += 1
        entry = ObjectEntry(handle, kind, obj, deps, label)
        for dep in entry.deps:
            self._entries[dep].refcount += 1
        self._entries[handle] = entry
        self._by_obj[id(obj)] = handle
        return handle

    def get(self, handle: int) -> Optional[ObjectEntry]:
        return self._entries.get(handle)

    def handle_of(self, obj: Any) -> Optional[int]:
        return self._by_obj.get(id(obj))

    def require(self, obj: Any, kinds: Tuple[str, ...]) -> int:
        """The handle of ``obj``; raises BAD_HANDLE when unregistered."""
        handle = self.handle_of(obj)
        if handle is None or self._entries[handle].kind not in kinds:
            raise CmdError(
                CmdStatus.BAD_HANDLE,
                f"object {obj!r} is not a registered {'/'.join(kinds)}")
        return handle

    def add_dep(self, handle: int, dep_handle: int) -> None:
        self._entries[handle].deps.append(dep_handle)
        self._entries[dep_handle].refcount += 1

    def drop_dep(self, handle: int, dep_handle: int) -> None:
        self._entries[handle].deps.remove(dep_handle)
        self._entries[dep_handle].refcount -= 1

    def remove(self, handle: int) -> ObjectEntry:
        entry = self._entries[handle]
        if entry.refcount:
            raise CmdError(
                CmdStatus.IN_USE,
                f"{entry.kind} {handle:#x} has {entry.refcount} "
                f"referent(s)")
        for dep in entry.deps:
            self._entries[dep].refcount -= 1
        del self._entries[handle]
        del self._by_obj[id(entry.obj)]
        return entry

    def rows(self) -> List[dict]:
        """The table as data (the ``repro objects`` dump)."""
        out = []
        for handle in sorted(self._entries):
            entry = self._entries[handle]
            out.append({
                "handle": f"{handle:#x}",
                "kind": entry.kind,
                "label": entry.label,
                "refcount": entry.refcount,
                "deps": [f"{dep:#x}" for dep in entry.deps],
            })
        return out




# ---------------------------------------------------------------------------
# NIC-side command unit
# ---------------------------------------------------------------------------


def _verb(method):
    """Make ``method`` a firmware command: a device error escaping it
    becomes a :class:`CmdError` with the status that error maps to."""

    @functools.wraps(method)
    def verb(self, *args, **kwargs):
        try:
            return method(self, *args, **kwargs)
        except CmdError:
            raise
        except QpStateError as exc:
            raise CmdError(CmdStatus.BAD_STATE, str(exc)) from exc
        except (QueueError, SteeringError, ValueError) as exc:
            raise CmdError(CmdStatus.BAD_PARAM, str(exc)) from exc
        except Exception as exc:
            raise CmdError(CmdStatus.INTERNAL, repr(exc)) from exc
    return verb


class CommandUnit:
    """The firmware embedded in the NIC: one verb a command.

    A verb applies its command immediately, both before ``sim.run`` and
    from inside running processes, and returns the live object it
    created or addressed.
    """

    def __init__(self, nic):
        self.nic = nic
        self.table = ObjectTable()
        # (id(fld), direction, target) -> prog handle, so detach can
        # unpin the program the firmware attached there.
        self._prog_attachments: Dict[Tuple[int, str, int], int] = {}

    def handle_of(self, obj: Any) -> Optional[int]:
        """The firmware handle of a live object (None if unregistered)."""
        return self.table.handle_of(obj)

    # -- queues ---------------------------------------------------------

    @_verb
    def alloc_cq(self, ring_addr: int, entries: int, notify: bool = True):
        cq = self.nic.create_cq(ring_addr, entries, notify)
        self.table.insert("cq", cq, label=f"cq{cq.cqn}")
        return cq

    @_verb
    def alloc_sq(self, ring_addr: int, entries: int, cq, vport: int = 0,
                 transport: str = "eth", meter: Optional[str] = None):
        cq_handle = self.table.require(cq, ("cq",))
        sq = self.nic.create_sq(ring_addr, entries, cq, vport=vport,
                                transport=transport, meter=meter)
        self.table.insert("sq", sq, deps=(cq_handle,), label=f"sq{sq.qpn}")
        return sq

    @_verb
    def alloc_rq(self, ring_addr: int, entries: int, cq,
                 shared: bool = False):
        cq_handle = self.table.require(cq, ("cq",))
        rq = self.nic.create_rq(ring_addr, entries, cq, shared=shared)
        self.table.insert("rq", rq, deps=(cq_handle,), label=f"rq{rq.rqn}")
        return rq

    @_verb
    def alloc_mprq(self, ring_addr: int, entries: int, cq,
                   strides_per_buffer: int = 64, stride_size: int = 2048):
        cq_handle = self.table.require(cq, ("cq",))
        rq = self.nic.create_mprq(ring_addr, entries, cq,
                                  strides_per_buffer=strides_per_buffer,
                                  stride_size=stride_size)
        self.table.insert("mprq", rq, deps=(cq_handle,),
                          label=f"mprq{rq.rqn}")
        return rq

    @_verb
    def alloc_rc_qp(self, ring_addr: int, entries: int, cq, rq,
                    vport: int, local_mac, local_ip):
        cq_handle = self.table.require(cq, ("cq",))
        rq_handle = self.table.require(rq, ("rq", "mprq"))
        qp = self.nic.create_rc_qp(ring_addr, entries, cq, rq, vport,
                                   local_mac, local_ip)
        self.table.insert("qp", qp, deps=(cq_handle, rq_handle),
                          label=f"qp{qp.qpn}")
        return qp

    # -- QP lifecycle ---------------------------------------------------

    @_verb
    def modify_qp(self, qp, state: str, **attrs) -> None:
        """One verbs state transition; attributes ride the edge that
        consumes them (``remote_mac``/``remote_ip``/``remote_qpn`` and
        ``rq_psn`` at RTR, ``sq_psn`` at RTS)."""
        self.table.require(qp, ("qp",))
        if state not in (RcQp.RESET, RcQp.INIT, RcQp.RTR, RcQp.RTS,
                         RcQp.ERR):
            raise CmdError(CmdStatus.BAD_PARAM,
                           f"unknown QP state {state!r}")
        qp.modify(state, **attrs)

    @_verb
    def connect_qp(self, qp, remote_mac, remote_ip, remote_qpn: int,
                   rq_psn: int = 0, sq_psn: int = 0) -> None:
        """Walk a QP RESET→INIT→RTR→RTS against a remote endpoint."""
        if qp.state != RcQp.RESET:
            self.modify_qp(qp, RcQp.RESET)
        self.modify_qp(qp, RcQp.INIT)
        self.modify_qp(qp, RcQp.RTR, remote_mac=remote_mac,
                       remote_ip=remote_ip, remote_qpn=remote_qpn,
                       rq_psn=rq_psn)
        self.modify_qp(qp, RcQp.RTS, sq_psn=sq_psn)

    # -- vPorts and steering --------------------------------------------

    @_verb
    def ensure_vport(self, vport: int):
        """Create (or fetch) the firmware object for a vPort."""
        eswitch = self.nic.eswitch
        obj = eswitch.vports.get(vport)
        if obj is None:
            obj = eswitch.add_vport(vport)
        if self.table.handle_of(obj) is None:
            self.table.insert("vport", obj, label=f"vport{obj.number}")
        return obj

    @_verb
    def set_default_queue(self, vport: int, rq) -> None:
        """Deliver a vPort's unmatched traffic to ``rq``, which the
        default route pins (in place of any queue it pinned before)."""
        rq_handle = self.table.require(rq, ("rq", "mprq"))
        handle = self.table.handle_of(self.ensure_vport(vport))
        self.nic.set_vport_default_queue(vport, rq)
        for dep in list(self.table.get(handle).deps):
            self.table.drop_dep(handle, dep)
        self.table.add_dep(handle, rq_handle)

    @_verb
    def clear_default_queue(self, vport: int) -> None:
        handle = self.table.handle_of(self.nic.eswitch.vports.get(vport))
        if handle is None:
            raise CmdError(CmdStatus.BAD_HANDLE,
                           f"vport {vport} is not a firmware object")
        self.nic.clear_vport_default_queue(vport)
        for dep in list(self.table.get(handle).deps):
            self.table.drop_dep(handle, dep)

    @_verb
    def add_resume_table(self, table_name: str) -> ResumeTable:
        """Register an FLD-E resume table (``.resume_id``,
        ``.table_name``)."""
        resume_id = self.nic.register_resume_table(table_name)
        resume = ResumeTable(resume_id, table_name)
        self.table.insert("resume", resume, label=table_name)
        return resume

    @_verb
    def install_rule(self, table_name: str, match, actions: List[Any],
                     priority: int = 0):
        if not actions:
            raise CmdError(CmdStatus.BAD_PARAM, "rule with no actions")
        deps = []
        for action in actions:
            if isinstance(action, (ForwardToQueue, ToAccelerator)):
                deps.append(self.table.require(action.rq, ("rq", "mprq")))
            elif isinstance(action, ForwardToVport):
                vport = self.nic.eswitch.vports.get(action.vport)
                if vport is None:
                    raise CmdError(CmdStatus.BAD_HANDLE,
                                   f"vport {action.vport} does not exist")
                handle = self.table.handle_of(vport)
                if handle is not None:
                    deps.append(handle)
        table = self.nic.steering.table(table_name)
        rule = table.add_rule(match, list(actions), priority=priority)
        self.table.insert("rule", rule, deps=tuple(deps), label=table_name)
        return rule

    # -- match-action programs (repro.prog) -----------------------------
    # The prog modules are imported lazily: the command unit is the only
    # module-level bridge between repro.nic and repro.prog, and deferring
    # the import keeps the package import graph acyclic.

    @_verb
    def create_prog_map(self, capacity: int = 64):
        """Allocate a cuckoo-backed program map (``repro.prog.maps``)."""
        from ..prog.maps import ProgMap
        prog_map = ProgMap(capacity)        # ValueError -> BAD_PARAM
        self.table.insert("map", prog_map, label=f"map/{capacity}")
        return prog_map

    @_verb
    def create_prog(self, program, maps=()):
        """Verify and load ``program`` (a :class:`repro.prog.isa.Program`)
        against ``maps``, each made by :meth:`create_prog_map`.

        A dangling map is ``BAD_HANDLE``, reported before verification;
        a verifier rejection is ``VERIFY_FAILED`` with the ``E_*``
        sub-code as the error's syndrome.
        """
        from ..prog.engine import load_program
        from ..prog.verifier import ProgVerifyError
        maps = list(maps)
        dep_handles = tuple(self.table.require(m, ("map",)) for m in maps)
        try:
            loaded = load_program(program, maps)
        except ProgVerifyError as exc:
            raise CmdError(CmdStatus.VERIFY_FAILED, str(exc),
                           syndrome=exc.code)
        self.table.insert("prog", loaded, deps=dep_handles,
                          label=f"prog/{loaded.name}")
        return loaded

    @_verb
    def attach_prog(self, fld, prog, direction: str = "rx",
                    target: int = 0) -> None:
        """Attach a loaded program to an FLD datapath hook and pin it.

        ``direction`` is ``"rx"`` (target = receive binding id) or
        ``"tx"`` (target = transmit queue id).  One program a hook:
        attaching over an existing attachment is ``BAD_STATE``.
        """
        handle = self.table.require(prog, ("prog",))
        if fld is None or not hasattr(fld, "prog_engine"):
            raise CmdError(CmdStatus.BAD_PARAM, "attach needs an FLD")
        if direction not in ("rx", "tx"):
            raise CmdError(CmdStatus.BAD_PARAM,
                           f"direction must be rx or tx, got {direction!r}")
        engine = fld.prog_engine()
        if engine.attached(direction, target) is not None:
            raise CmdError(CmdStatus.BAD_STATE,
                           f"{direction} {target} already has a program")
        engine.attach(direction, target, prog)
        # The attachment pins the program (and transitively its maps).
        self.table.get(handle).refcount += 1
        self._prog_attachments[id(fld), direction, target] = handle

    @_verb
    def detach_prog(self, fld, direction: str = "rx",
                    target: int = 0) -> None:
        key = (id(fld), direction, target)
        handle = self._prog_attachments.get(key)
        if handle is None:
            raise CmdError(CmdStatus.BAD_STATE,
                           f"no program attached to {direction} {target}")
        fld.prog_engine().detach(direction, target)
        del self._prog_attachments[key]
        entry = self.table.get(handle)
        if entry is not None:
            entry.refcount -= 1

    def _map(self, prog_map):
        return self.table.get(self.table.require(prog_map, ("map",))).obj

    @_verb
    def map_set(self, prog_map, key: int, value: int) -> None:
        """Control-path map write (insert or replace); full is
        ``NO_RESOURCES``."""
        from ..core.cuckoo import CuckooFullError
        try:
            self._map(prog_map).set(key, value)
        except CuckooFullError as exc:
            raise CmdError(CmdStatus.NO_RESOURCES, str(exc))

    @_verb
    def map_del(self, prog_map, key: int) -> None:
        if not self._map(prog_map).delete(key):
            raise CmdError(CmdStatus.BAD_PARAM, f"no entry for key {key:#x}")

    @_verb
    def map_get(self, prog_map, key: int) -> Optional[int]:
        return self._map(prog_map).get(key)

    # -- query / teardown -----------------------------------------------

    def _resolve(self, obj_or_handle) -> int:
        if isinstance(obj_or_handle, int):
            return obj_or_handle
        handle = self.table.handle_of(obj_or_handle)
        if handle is None:
            raise CmdError(CmdStatus.BAD_HANDLE,
                           f"{obj_or_handle!r} is not a firmware object")
        return handle

    @_verb
    def query(self, obj_or_handle) -> dict:
        """An object's table row and live state, by object or handle."""
        handle = self._resolve(obj_or_handle)
        entry = self.table.get(handle)
        if entry is None:
            raise CmdError(CmdStatus.BAD_HANDLE, f"no object {handle:#x}")
        info = {"handle": entry.handle, "kind": entry.kind,
                "label": entry.label, "refcount": entry.refcount}
        obj = entry.obj
        if entry.kind == "qp":
            info.update(state=obj.state, qpn=obj.qpn,
                        syndrome=obj.error_syndrome)
        elif entry.kind in ("rq", "mprq"):
            info.update(rqn=obj.rqn, pi=obj.pi, ci=obj.ci,
                        destroyed=obj.destroyed)
        elif entry.kind == "sq":
            info.update(qpn=obj.qpn, pi=obj.pi, ci=obj.ci,
                        destroyed=obj.destroyed)
        elif entry.kind == "cq":
            info.update(cqn=obj.cqn, pi=obj.pi)
        elif entry.kind == "prog":
            info.update(name=obj.name, insns=len(obj.insns),
                        maps=len(obj.maps), counters=obj.counters())
        elif entry.kind == "map":
            info.update(capacity=obj.capacity, entries=len(obj))
        return info

    @_verb
    def destroy(self, obj_or_handle) -> None:
        """Destroy by live object or handle; ``IN_USE`` while pinned."""
        handle = self._resolve(obj_or_handle)
        entry = self.table.get(handle)
        if entry is None:
            raise CmdError(CmdStatus.BAD_HANDLE, f"no object {handle:#x}")
        if entry.refcount:
            raise CmdError(CmdStatus.IN_USE,
                           f"{entry.kind} {handle:#x} is referenced")
        nic = self.nic
        obj = entry.obj
        if entry.kind == "vport":
            table = nic.steering.tables.get(obj.rx_root)
            if table is not None and table.rules:
                raise CmdError(CmdStatus.IN_USE,
                               f"vport {obj.number} still has rules")
            # deps == a pinned default RQ; release it with the vPort.
            nic.clear_vport_default_queue(obj.number)
            self.table.remove(handle)
            nic.remove_vport(obj.number)
            return
        self.table.remove(handle)
        if entry.kind == "cq":
            nic.destroy_cq(obj)
        elif entry.kind == "sq":
            nic.destroy_sq(obj)
        elif entry.kind in ("rq", "mprq"):
            nic.destroy_rq(obj)
        elif entry.kind == "qp":
            nic.destroy_rc_qp(obj)
        elif entry.kind == "rule":
            nic.steering.table(entry.label).remove_rule(obj)
        elif entry.kind == "resume":
            nic.unregister_resume_table(obj.resume_id)
        # "prog" and "map" have no device-side state beyond their
        # table entry: an attached prog is pinned (IN_USE above), and a
        # detached one is just interpreter bytecode.

    def try_destroy(self, obj_or_handle) -> bool:
        """Destroy, tolerating an already-gone object (teardown paths)."""
        try:
            self.destroy(obj_or_handle)
        except CmdError as exc:
            if exc.status != CmdStatus.BAD_HANDLE:
                raise
            return False
        return True
