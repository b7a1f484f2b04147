"""Firmware command interface: typed commands, object lifecycle.

Real mlx5 drivers configure the device through a command interface;
here the host's control plane (:class:`repro.sw.ControlPlane`) calls
the NIC-resident :class:`CommandUnit` directly.  A command is a typed
dataclass carrying scalars and live simulation objects (queues, match
specs, action lists); ``CommandUnit.execute`` dispatches it to one
executor, which drives the device's internal create/modify/destroy
machinery and answers with a :class:`CmdResult` (status, handle,
syndrome and the live object).  A command takes no simulated time.
Executors signal failure by raising :class:`CmdError` (or a device
error ``execute`` maps onto a status), so no exception escapes the
firmware: every failure is a typed :class:`CmdStatus`.

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
from dataclasses import dataclass
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
    """Typed command completion statuses (the mlx5 syndrome analogue)."""

    OK = 0
    BAD_OPCODE = 1
    BAD_PARAM = 2
    BAD_HANDLE = 3
    BAD_STATE = 4
    IN_USE = 5
    NO_RESOURCES = 6
    INTERNAL = 7
    VERIFY_FAILED = 8


class CmdError(RuntimeError):
    """Raised by executors to return a specific non-OK status.

    ``syndrome`` rides the result's syndrome field — the program
    verifier uses it to report *which* rule a rejected program broke
    (the ``E_*`` sub-codes of :mod:`repro.prog.verifier`).
    """

    def __init__(self, status: CmdStatus, message: str = "",
                 syndrome: int = 0):
        super().__init__(message or status.name)
        self.status = status
        self.syndrome = syndrome


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@dataclass
class Command:
    """Base class; subclasses define their typed fields."""


@dataclass
class CreateCq(Command):
    ring_addr: int = 0
    entries: int = 0
    notify: bool = True     # False: the consumer reads CQEs as they land


@dataclass
class CreateSq(Command):
    ring_addr: int = 0
    entries: int = 0
    cq: Any = None
    vport: int = 0
    transport: str = "eth"
    meter: Optional[str] = None


@dataclass
class CreateRq(Command):
    ring_addr: int = 0
    entries: int = 0
    cq: Any = None
    shared: int = 0


@dataclass
class CreateMprq(Command):
    ring_addr: int = 0
    entries: int = 0
    cq: Any = None
    strides_per_buffer: int = 64
    stride_size: int = 2048


@dataclass
class CreateRcQp(Command):
    ring_addr: int = 0
    entries: int = 0
    cq: Any = None
    rq: Any = None
    vport: int = 0
    local_mac: Any = None
    local_ip: Any = None


@dataclass
class ModifyQp(Command):
    """One verbs state transition; attributes ride the edge that
    consumes them (remote endpoint + rq_psn at RTR, sq_psn at RTS)."""

    qp: Any = None
    state: str = ""
    remote_mac: Any = None
    remote_ip: Any = None
    remote_qpn: Optional[int] = None
    rq_psn: Optional[int] = None
    sq_psn: Optional[int] = None


@dataclass
class QueryObject(Command):
    handle: int = 0


@dataclass
class DestroyObject(Command):
    handle: int = 0


@dataclass
class CreateVport(Command):
    vport: int = 0


@dataclass
class SetVportDefault(Command):
    vport: int = 0
    rq: Any = None


@dataclass
class ClearVportDefault(Command):
    vport: int = 0


@dataclass
class RegisterResumeTable(Command):
    table_name: str = ""


@dataclass
class InstallRule(Command):
    table_name: str = ""
    match: Any = None
    actions: Any = None
    priority: int = 0


@dataclass
class CreateProgMap(Command):
    """Allocate a cuckoo-backed program map (``repro.prog.maps``)."""

    capacity: int = 64


@dataclass
class CreateProg(Command):
    """Verify and load a match-action program against ``maps``.

    ``program`` is a :class:`repro.prog.isa.Program`; ``maps`` a list of
    map objects previously created by :class:`CreateProgMap` (dangling
    references fail with BAD_HANDLE, verifier rejections with
    VERIFY_FAILED and the ``E_*`` sub-code in the syndrome).
    """

    program: Any = None
    maps: Any = None


@dataclass
class AttachProg(Command):
    """Attach a loaded program to an FLD datapath hook.

    ``direction`` is ``"rx"`` (target = receive binding id) or ``"tx"``
    (target = transmit queue id).  One program per hook: attaching over
    an existing attachment is BAD_STATE.
    """

    prog: Any = None
    fld: Any = None
    direction: str = "rx"
    target: int = 0


@dataclass
class DetachProg(Command):
    fld: Any = None
    direction: str = "rx"
    target: int = 0


@dataclass
class SetMapEntry(Command):
    """Control-path map write (insert or replace); full = NO_RESOURCES."""

    map: Any = None
    key: int = 0
    value: int = 0


@dataclass
class DelMapEntry(Command):
    map: Any = None
    key: int = 0


@dataclass
class QueryMapEntry(Command):
    map: Any = None
    key: int = 0


class CmdResult:
    """A command's outcome (+ the created or addressed live object)."""

    __slots__ = ("status", "handle", "syndrome", "obj", "info")

    def __init__(self, status: CmdStatus, handle: int = 0,
                 syndrome: int = 0, obj: Any = None,
                 info: Optional[dict] = None):
        self.status = status
        self.handle = handle
        self.syndrome = syndrome
        self.obj = obj
        self.info = info

    @property
    def ok(self) -> bool:
        return self.status == CmdStatus.OK

    def __repr__(self) -> str:
        return (f"CmdResult({self.status.name}, handle={self.handle:#x}, "
                f"syndrome={self.syndrome})")


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


class CommandUnit:
    """The firmware executor embedded in the NIC.

    ``execute`` applies one command immediately and returns its
    :class:`CmdResult`; it works both before ``sim.run`` and from
    inside running processes.
    """

    def __init__(self, nic):
        self.nic = nic
        self.table = ObjectTable()
        # (id(fld), direction, target) -> prog handle, so detach can
        # unpin the program the firmware attached there.
        self._prog_attachments: Dict[Tuple[int, str, int], int] = {}
        self.stats_commands = 0
        self.stats_failures = 0

    def execute(self, cmd: Command) -> CmdResult:
        self.stats_commands += 1
        handler = self._EXEC.get(type(cmd))
        try:
            if handler is None:
                raise CmdError(CmdStatus.BAD_OPCODE,
                               f"unhandled command {type(cmd).__name__}")
            result = handler(self, cmd)
        except CmdError as exc:
            result = CmdResult(exc.status, syndrome=exc.syndrome)
        except QpStateError:
            result = CmdResult(CmdStatus.BAD_STATE)
        except (QueueError, SteeringError, ValueError):
            result = CmdResult(CmdStatus.BAD_PARAM)
        except Exception:
            result = CmdResult(CmdStatus.INTERNAL)
        if not result.ok:
            self.stats_failures += 1
        return result

    # -- executors ------------------------------------------------------

    def _exec_create_cq(self, cmd: CreateCq) -> CmdResult:
        cq = self.nic.create_cq(cmd.ring_addr, cmd.entries, cmd.notify)
        handle = self.table.insert("cq", cq, label=f"cq{cq.cqn}")
        return CmdResult(CmdStatus.OK, handle, obj=cq)

    def _exec_create_sq(self, cmd: CreateSq) -> CmdResult:
        cq_handle = self.table.require(cmd.cq, ("cq",))
        sq = self.nic.create_sq(cmd.ring_addr, cmd.entries, cmd.cq,
                                vport=cmd.vport, transport=cmd.transport,
                                meter=cmd.meter)
        handle = self.table.insert("sq", sq, deps=(cq_handle,),
                                   label=f"sq{sq.qpn}")
        return CmdResult(CmdStatus.OK, handle, obj=sq)

    def _exec_create_rq(self, cmd: CreateRq) -> CmdResult:
        cq_handle = self.table.require(cmd.cq, ("cq",))
        rq = self.nic.create_rq(cmd.ring_addr, cmd.entries, cmd.cq,
                                shared=bool(cmd.shared))
        handle = self.table.insert("rq", rq, deps=(cq_handle,),
                                   label=f"rq{rq.rqn}")
        return CmdResult(CmdStatus.OK, handle, obj=rq)

    def _exec_create_mprq(self, cmd: CreateMprq) -> CmdResult:
        cq_handle = self.table.require(cmd.cq, ("cq",))
        rq = self.nic.create_mprq(
            cmd.ring_addr, cmd.entries, cmd.cq,
            strides_per_buffer=cmd.strides_per_buffer,
            stride_size=cmd.stride_size)
        handle = self.table.insert("mprq", rq, deps=(cq_handle,),
                                   label=f"mprq{rq.rqn}")
        return CmdResult(CmdStatus.OK, handle, obj=rq)

    def _exec_create_rc_qp(self, cmd: CreateRcQp) -> CmdResult:
        cq_handle = self.table.require(cmd.cq, ("cq",))
        rq_handle = self.table.require(cmd.rq, ("rq", "mprq"))
        qp = self.nic.create_rc_qp(cmd.ring_addr, cmd.entries, cmd.cq,
                                   cmd.rq, cmd.vport, cmd.local_mac,
                                   cmd.local_ip)
        handle = self.table.insert("qp", qp, deps=(cq_handle, rq_handle),
                                   label=f"qp{qp.qpn}")
        return CmdResult(CmdStatus.OK, handle, obj=qp)

    def _exec_modify_qp(self, cmd: ModifyQp) -> CmdResult:
        handle = self.table.require(cmd.qp, ("qp",))
        if cmd.state not in (RcQp.RESET, RcQp.INIT, RcQp.RTR, RcQp.RTS,
                             RcQp.ERR):
            raise CmdError(CmdStatus.BAD_PARAM,
                           f"unknown QP state {cmd.state!r}")
        cmd.qp.modify(cmd.state, remote_mac=cmd.remote_mac,
                      remote_ip=cmd.remote_ip, remote_qpn=cmd.remote_qpn,
                      rq_psn=cmd.rq_psn, sq_psn=cmd.sq_psn)
        return CmdResult(CmdStatus.OK, handle, obj=cmd.qp)

    def _exec_create_vport(self, cmd: CreateVport) -> CmdResult:
        eswitch = self.nic.eswitch
        vport = eswitch.vports.get(cmd.vport)
        if vport is None:
            vport = eswitch.add_vport(cmd.vport)
        existing = self.table.handle_of(vport)
        if existing is not None:
            return CmdResult(CmdStatus.OK, existing, obj=vport)
        handle = self.table.insert("vport", vport,
                                   label=f"vport{vport.number}")
        return CmdResult(CmdStatus.OK, handle, obj=vport)

    def _vport_entry(self, number: int) -> ObjectEntry:
        vport = self.nic.eswitch.vports.get(number)
        handle = (self.table.handle_of(vport)
                  if vport is not None else None)
        if handle is None:
            raise CmdError(CmdStatus.BAD_HANDLE,
                           f"vport {number} is not a firmware object")
        return self.table.get(handle)

    def _exec_set_vport_default(self, cmd: SetVportDefault) -> CmdResult:
        rq_handle = self.table.require(cmd.rq, ("rq", "mprq"))
        result = self._exec_create_vport(CreateVport(vport=cmd.vport))
        entry = self.table.get(result.handle)
        self.nic.set_vport_default_queue(cmd.vport, cmd.rq)
        # The default route pins the RQ: drop any previous pin first.
        for dep in list(entry.deps):
            self.table.drop_dep(entry.handle, dep)
        self.table.add_dep(entry.handle, rq_handle)
        return CmdResult(CmdStatus.OK, entry.handle, obj=entry.obj)

    def _exec_clear_vport_default(self, cmd: ClearVportDefault) -> CmdResult:
        entry = self._vport_entry(cmd.vport)
        self.nic.clear_vport_default_queue(cmd.vport)
        for dep in list(entry.deps):
            self.table.drop_dep(entry.handle, dep)
        return CmdResult(CmdStatus.OK, entry.handle, obj=entry.obj)

    def _exec_register_resume_table(
            self, cmd: RegisterResumeTable) -> CmdResult:
        resume_id = self.nic.register_resume_table(cmd.table_name)
        resume = ResumeTable(resume_id, cmd.table_name)
        handle = self.table.insert("resume", resume,
                                   label=cmd.table_name)
        return CmdResult(CmdStatus.OK, handle, obj=resume)

    def _exec_install_rule(self, cmd: InstallRule) -> CmdResult:
        if not cmd.actions:
            raise CmdError(CmdStatus.BAD_PARAM, "rule with no actions")
        deps = []
        for action in cmd.actions:
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
        table = self.nic.steering.table(cmd.table_name)
        rule = table.add_rule(cmd.match, list(cmd.actions),
                              priority=cmd.priority)
        handle = self.table.insert("rule", rule, deps=tuple(deps),
                                   label=cmd.table_name)
        return CmdResult(CmdStatus.OK, handle, obj=rule)

    # -- match-action programs (repro.prog) -----------------------------
    # The prog modules are imported lazily: the command unit is the only
    # module-level bridge between repro.nic and repro.prog, and deferring
    # the import keeps the package import graph acyclic.

    def _exec_create_prog_map(self, cmd: CreateProgMap) -> CmdResult:
        from ..prog.maps import ProgMap
        prog_map = ProgMap(cmd.capacity)        # ValueError -> BAD_PARAM
        handle = self.table.insert("map", prog_map,
                                   label=f"map/{cmd.capacity}")
        return CmdResult(CmdStatus.OK, handle, obj=prog_map)

    def _exec_create_prog(self, cmd: CreateProg) -> CmdResult:
        from ..prog.engine import load_program
        from ..prog.verifier import ProgVerifyError
        maps = list(cmd.maps or ())
        # Resolve map references first: a dangling map is a handle
        # error, reported before (and regardless of) verification.
        dep_handles = tuple(self.table.require(m, ("map",)) for m in maps)
        try:
            loaded = load_program(cmd.program, maps)
        except ProgVerifyError as exc:
            raise CmdError(CmdStatus.VERIFY_FAILED, str(exc),
                           syndrome=exc.code)
        handle = self.table.insert("prog", loaded, deps=dep_handles,
                                   label=f"prog/{loaded.name}")
        return CmdResult(CmdStatus.OK, handle, obj=loaded)

    def _exec_attach_prog(self, cmd: AttachProg) -> CmdResult:
        handle = self.table.require(cmd.prog, ("prog",))
        if cmd.fld is None or not hasattr(cmd.fld, "prog_engine"):
            raise CmdError(CmdStatus.BAD_PARAM, "attach needs an FLD")
        if cmd.direction not in ("rx", "tx"):
            raise CmdError(CmdStatus.BAD_PARAM,
                           f"direction must be rx or tx, "
                           f"got {cmd.direction!r}")
        engine = cmd.fld.prog_engine()
        if engine.attached(cmd.direction, cmd.target) is not None:
            raise CmdError(
                CmdStatus.BAD_STATE,
                f"{cmd.direction} {cmd.target} already has a program")
        engine.attach(cmd.direction, cmd.target, cmd.prog)
        # The attachment pins the program (and transitively its maps).
        self.table.get(handle).refcount += 1
        key = (id(cmd.fld), cmd.direction, cmd.target)
        self._prog_attachments[key] = handle
        return CmdResult(CmdStatus.OK, handle, obj=cmd.prog)

    def _exec_detach_prog(self, cmd: DetachProg) -> CmdResult:
        key = (id(cmd.fld), cmd.direction, cmd.target)
        handle = self._prog_attachments.get(key)
        if handle is None:
            raise CmdError(
                CmdStatus.BAD_STATE,
                f"no program attached to {cmd.direction} {cmd.target}")
        cmd.fld.prog_engine().detach(cmd.direction, cmd.target)
        del self._prog_attachments[key]
        entry = self.table.get(handle)
        if entry is not None:
            entry.refcount -= 1
        return CmdResult(CmdStatus.OK, handle)

    def _require_map(self, obj) -> Tuple[int, Any]:
        handle = self.table.require(obj, ("map",))
        return handle, self.table.get(handle).obj

    def _exec_set_map_entry(self, cmd: SetMapEntry) -> CmdResult:
        from ..core.cuckoo import CuckooFullError
        handle, prog_map = self._require_map(cmd.map)
        try:
            prog_map.set(cmd.key, cmd.value)
        except CuckooFullError as exc:
            raise CmdError(CmdStatus.NO_RESOURCES, str(exc))
        return CmdResult(CmdStatus.OK, handle, obj=prog_map)

    def _exec_del_map_entry(self, cmd: DelMapEntry) -> CmdResult:
        handle, prog_map = self._require_map(cmd.map)
        if not prog_map.delete(cmd.key):
            raise CmdError(CmdStatus.BAD_PARAM,
                           f"no entry for key {cmd.key:#x}")
        return CmdResult(CmdStatus.OK, handle, obj=prog_map)

    def _exec_query_map_entry(self, cmd: QueryMapEntry) -> CmdResult:
        handle, prog_map = self._require_map(cmd.map)
        value = prog_map.get(cmd.key)
        info = {"present": value is not None, "value": value}
        return CmdResult(CmdStatus.OK, handle, obj=prog_map, info=info)

    def _exec_query(self, cmd: QueryObject) -> CmdResult:
        entry = self.table.get(cmd.handle)
        if entry is None:
            raise CmdError(CmdStatus.BAD_HANDLE,
                           f"no object {cmd.handle:#x}")
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
        return CmdResult(CmdStatus.OK, entry.handle, obj=obj, info=info)

    def _exec_destroy(self, cmd: DestroyObject) -> CmdResult:
        entry = self.table.get(cmd.handle)
        if entry is None:
            raise CmdError(CmdStatus.BAD_HANDLE,
                           f"no object {cmd.handle:#x}")
        if entry.refcount:
            raise CmdError(CmdStatus.IN_USE,
                           f"{entry.kind} {cmd.handle:#x} is referenced")
        nic = self.nic
        obj = entry.obj
        if entry.kind == "vport":
            table = nic.steering.tables.get(obj.rx_root)
            if table is not None and table.rules:
                raise CmdError(CmdStatus.IN_USE,
                               f"vport {obj.number} still has rules")
            # deps == a pinned default RQ; release it with the vPort.
            nic.clear_vport_default_queue(obj.number)
            self.table.remove(cmd.handle)
            nic.remove_vport(obj.number)
            return CmdResult(CmdStatus.OK, cmd.handle)
        self.table.remove(cmd.handle)
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
        return CmdResult(CmdStatus.OK, cmd.handle)

    _EXEC = {
        CreateCq: _exec_create_cq,
        CreateSq: _exec_create_sq,
        CreateRq: _exec_create_rq,
        CreateMprq: _exec_create_mprq,
        CreateRcQp: _exec_create_rc_qp,
        ModifyQp: _exec_modify_qp,
        CreateVport: _exec_create_vport,
        SetVportDefault: _exec_set_vport_default,
        ClearVportDefault: _exec_clear_vport_default,
        RegisterResumeTable: _exec_register_resume_table,
        InstallRule: _exec_install_rule,
        CreateProgMap: _exec_create_prog_map,
        CreateProg: _exec_create_prog,
        AttachProg: _exec_attach_prog,
        DetachProg: _exec_detach_prog,
        SetMapEntry: _exec_set_map_entry,
        DelMapEntry: _exec_del_map_entry,
        QueryMapEntry: _exec_query_map_entry,
        QueryObject: _exec_query,
        DestroyObject: _exec_destroy,
    }
