"""The verbs-style control plane facade (§5.3).

Every layer that used to reach into the NIC object and call
``create_*`` directly now goes through a :class:`ControlPlane`: a thin,
verbs-flavoured wrapper over the NIC's firmware command unit
(:mod:`repro.nic.cmd`).  Each method builds a typed command, calls
``CommandUnit.execute`` (no simulated time passes), raises
:class:`repro.nic.CmdError` on a non-OK status, and returns the live
object for the data path to use.

The facade also keeps the handle bookkeeping callers need for teardown:
``handle_of`` maps a live object back to its firmware handle, and
``destroy`` accepts either.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..nic import CmdError, CmdResult, CmdStatus
from ..nic.cmd import (
    AttachProg,
    ClearVportDefault,
    Command,
    CreateCq,
    CreateMprq,
    CreateProg,
    CreateProgMap,
    CreateRcQp,
    CreateRq,
    CreateSq,
    CreateVport,
    DelMapEntry,
    DestroyObject,
    DetachProg,
    InstallRule,
    ModifyQp,
    QueryMapEntry,
    QueryObject,
    RegisterResumeTable,
    SetMapEntry,
    SetVportDefault,
)
from ..nic.rdma import RcQp


class ControlPlane:
    """Verbs-like resource management over the firmware command unit."""

    def __init__(self, nic):
        self.nic = nic
        self.unit = nic.cmd

    # -- plumbing --------------------------------------------------------

    def _run(self, cmd: Command, what: str) -> CmdResult:
        result = self.unit.execute(cmd)
        if not result.ok:
            raise CmdError(result.status,
                           f"{what} failed: {result.status.name}")
        return result

    def handle_of(self, obj: Any) -> Optional[int]:
        """The firmware handle of a live object (None if unregistered)."""
        return self.unit.table.handle_of(obj)

    # -- allocation ------------------------------------------------------

    def alloc_cq(self, ring_addr: int, entries: int, notify: bool = True):
        return self._run(CreateCq(ring_addr=ring_addr, entries=entries,
                                  notify=notify), "create-cq").obj

    def alloc_sq(self, ring_addr: int, entries: int, cq, vport: int = 0,
                 transport: str = "eth", meter: Optional[str] = None):
        return self._run(
            CreateSq(ring_addr=ring_addr, entries=entries, cq=cq,
                     vport=vport, transport=transport, meter=meter),
            "create-sq").obj

    def alloc_rq(self, ring_addr: int, entries: int, cq,
                 shared: bool = False):
        return self._run(
            CreateRq(ring_addr=ring_addr, entries=entries, cq=cq,
                     shared=int(shared)),
            "create-rq").obj

    def alloc_mprq(self, ring_addr: int, entries: int, cq,
                   strides_per_buffer: int = 64, stride_size: int = 2048):
        return self._run(
            CreateMprq(ring_addr=ring_addr, entries=entries, cq=cq,
                       strides_per_buffer=strides_per_buffer,
                       stride_size=stride_size),
            "create-mprq").obj

    def alloc_rc_qp(self, ring_addr: int, entries: int, cq, rq,
                    vport: int, local_mac, local_ip):
        return self._run(
            CreateRcQp(ring_addr=ring_addr, entries=entries, cq=cq, rq=rq,
                       vport=vport, local_mac=local_mac,
                       local_ip=local_ip),
            "create-rc-qp").obj

    # -- vPorts and steering --------------------------------------------

    def ensure_vport(self, vport: int):
        """Create (or fetch) the firmware object for a vPort."""
        return self._run(CreateVport(vport=vport), "create-vport").obj

    def set_default_queue(self, vport: int, rq) -> None:
        self._run(SetVportDefault(vport=vport, rq=rq), "set-vport-default")

    def clear_default_queue(self, vport: int) -> None:
        self._run(ClearVportDefault(vport=vport), "clear-vport-default")

    def add_resume_table(self, table_name: str):
        """Register an FLD-E resume table; returns the firmware object
        (``.resume_id``, ``.table_name``)."""
        return self._run(RegisterResumeTable(table_name=table_name),
                         "register-resume-table").obj

    def install_rule(self, table_name: str, match, actions: List[Any],
                     priority: int = 0):
        return self._run(
            InstallRule(table_name=table_name, match=match,
                        actions=actions, priority=priority),
            "install-rule").obj

    # -- match-action programs (repro.prog) -----------------------------

    def create_prog_map(self, capacity: int = 64):
        """Allocate a program map; returns the live map object."""
        return self._run(CreateProgMap(capacity=capacity),
                         "create-prog-map").obj

    def create_prog(self, program, maps=()):
        """Verify + load a program against its maps; returns the loaded
        program object.  Verifier rejections surface as
        ``CmdError`` with status ``VERIFY_FAILED``."""
        return self._run(CreateProg(program=program, maps=list(maps)),
                         "create-prog").obj

    def attach_prog(self, fld, prog, direction: str = "rx",
                    target: int = 0) -> None:
        self._run(AttachProg(prog=prog, fld=fld, direction=direction,
                             target=target),
                  f"attach-prog({direction}{target})")

    def detach_prog(self, fld, direction: str = "rx",
                    target: int = 0) -> None:
        self._run(DetachProg(fld=fld, direction=direction, target=target),
                  f"detach-prog({direction}{target})")

    def map_set(self, prog_map, key: int, value: int) -> None:
        self._run(SetMapEntry(map=prog_map, key=key, value=value),
                  "set-map-entry")

    def map_del(self, prog_map, key: int) -> None:
        self._run(DelMapEntry(map=prog_map, key=key), "del-map-entry")

    def map_get(self, prog_map, key: int) -> Optional[int]:
        info = self._run(QueryMapEntry(map=prog_map, key=key),
                         "query-map-entry").info
        return info["value"]

    # -- QP lifecycle ----------------------------------------------------

    def modify_qp(self, qp, state: str, **attrs) -> None:
        """One verbs state transition through the command unit."""
        self._run(ModifyQp(qp=qp, state=state, **attrs),
                  f"modify-qp({state})")

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

    # -- query / teardown ------------------------------------------------

    def query(self, obj_or_handle) -> dict:
        handle = self._resolve(obj_or_handle)
        return self._run(QueryObject(handle=handle), "query").info

    def destroy(self, obj_or_handle) -> None:
        """Destroy by live object or handle; raises IN_USE when pinned."""
        handle = self._resolve(obj_or_handle)
        self._run(DestroyObject(handle=handle), "destroy")

    def try_destroy(self, obj_or_handle) -> bool:
        """Destroy, tolerating already-gone objects (idempotent path)."""
        if isinstance(obj_or_handle, int):
            handle = obj_or_handle
        else:
            handle = self.handle_of(obj_or_handle)
            if handle is None:
                return False
        result = self.unit.execute(DestroyObject(handle=handle))
        if result.status == CmdStatus.BAD_HANDLE:
            return False
        if not result.ok:
            raise CmdError(result.status,
                           f"destroy failed: {result.status.name}")
        return True

    def _resolve(self, obj_or_handle) -> int:
        if isinstance(obj_or_handle, int):
            return obj_or_handle
        handle = self.handle_of(obj_or_handle)
        if handle is None:
            raise CmdError(CmdStatus.BAD_HANDLE,
                           f"{obj_or_handle!r} is not a firmware object")
        return handle
