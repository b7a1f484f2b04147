"""The FLD program engine: per-packet interpretation of verified programs.

One :class:`ProgEngine` hangs off an FLD (created lazily by the firmware
at first attach — an FLD that never loads a program never constructs
one).  It owns the attachment tables:

* **rx** — keyed by receive binding id; runs between the CQE decode and
  the accelerator stream (the packet is inspected *before* the
  accelerator sees it, like an XDP program before the kernel stack).
* **tx** — keyed by transmit queue id; runs at submit time, before
  buffer-chunk allocation (a dropped packet consumes no FLD resources).

The datapath hooks in :class:`~repro.core.rx.RxRingManager` and
:class:`~repro.core.tx.TxRingManager` are a single attribute test when
no program is attached — the NULL fast path — and the engine restores
them to ``None`` when its last program detaches, so program-free runs
schedule exactly the same events as a build without this subsystem.

Execution cost is modelled as one FLD clock cycle per interpreted
instruction (``config.cycles(executed)``), charged as extra pipeline
latency on rx and folded into the submit path on tx; the per-packet
span ``prog.<name>`` makes it visible to the latency attribution layer.

Verdicts: ``pass`` (emit/submit unchanged), ``drop`` (count and end the
packet's trace), ``redirect`` (re-inject on the transmit queue bound to
the target vPort; the re-injected packet skips egress programs so two
programs can never ping-pong a packet).  ``modify`` is derived: a
``pass`` of a packet the program wrote to.

Only the firmware command unit may call :func:`load_program` — the AST
guard in ``tests/nic/test_cmd_guard.py`` enforces it — so every live
program went through the verifier and holds firmware-owned maps.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.axis import AxisMetadata
from .isa import (
    ACT_DROP, ACT_PASS, Alu, Jmp, JmpIf, LdMeta, LdPkt, LdStack,
    MapDelete, MapLookup, MapUpdate, Mov, NUM_REGS, Program, STACK_BYTES,
    StPkt, StStack,
)
from .isa import M64
from .maps import ProgMap
from .verifier import verify

__all__ = ["LoadedProgram", "ProgEngine", "load_program"]


class LoadedProgram:
    """A verified program bound to its maps, with datapath counters."""

    def __init__(self, program: Program, maps: Tuple[ProgMap, ...]):
        self.program = program
        self.name = program.name
        self.insns = program.insns
        self.min_packet_len = program.min_packet_len
        self.maps = tuple(maps)
        self.stats_runs = 0        # packets that executed the program
        self.stats_pass = 0
        self.stats_drop = 0
        self.stats_redirect = 0
        self.stats_modify = 0      # pass verdicts that rewrote the packet
        self.stats_short = 0       # packets below min_packet_len (auto-pass)
        self.stats_insns = 0       # instructions interpreted, total
        self.stats_map_full = 0    # datapath map updates dropped (full)
        self.stats_redirect_drops = 0  # no route / no credit on redirect

    def counters(self) -> dict:
        return {
            "runs": self.stats_runs, "pass": self.stats_pass,
            "drop": self.stats_drop, "redirect": self.stats_redirect,
            "modify": self.stats_modify, "short": self.stats_short,
            "insns": self.stats_insns, "map_full": self.stats_map_full,
            "redirect_drops": self.stats_redirect_drops,
        }


def load_program(program: Program, maps) -> LoadedProgram:
    """Verify and instantiate a program (firmware-only entry point).

    Raises :class:`~repro.prog.verifier.ProgVerifyError` on rejection;
    the command unit maps it to ``CmdStatus.VERIFY_FAILED`` with the
    sub-code as syndrome.
    """
    maps = tuple(maps)
    verify(program, len(maps))
    return LoadedProgram(program, maps)


class ProgEngine:
    """Per-FLD attachment state and the interpreter itself."""

    def __init__(self, fld):
        self.fld = fld
        self._rx: Dict[int, LoadedProgram] = {}   # binding id -> program
        self._tx: Dict[int, LoadedProgram] = {}   # tx queue id -> program
        self._spans = fld.sim.telemetry.spans

    @property
    def profile_tag(self) -> str:
        # A verdict's delayed emit or redirect is the FLD rx engine's.
        return self.fld.profile_tag

    # -- attachment ---------------------------------------------------------

    def attached(self, direction: str, target: int) -> Optional[LoadedProgram]:
        table = self._rx if direction == "rx" else self._tx
        return table.get(target)

    def attach(self, direction: str, target: int,
               loaded: LoadedProgram) -> None:
        if direction == "rx":
            try:
                self.fld.rx.binding(target)
            except Exception as exc:
                raise ValueError(f"no rx binding {target}: {exc}") from exc
            self._rx[target] = loaded
            self.fld.rx.prog_hook = self.on_rx_packet
        elif direction == "tx":
            try:
                self.fld.tx.queue(target)
            except Exception as exc:
                raise ValueError(f"no tx queue {target}: {exc}") from exc
            self._tx[target] = loaded
            self.fld.tx.prog_hook = self.on_tx_packet
        else:
            raise ValueError(f"direction must be rx or tx, got {direction!r}")

    def detach(self, direction: str, target: int) -> LoadedProgram:
        if direction == "rx":
            loaded = self._rx.pop(target, None)
            if loaded is None:
                raise ValueError(f"no program attached to rx {target}")
            if not self._rx:
                self.fld.rx.prog_hook = None   # restore the NULL fast path
        elif direction == "tx":
            loaded = self._tx.pop(target, None)
            if loaded is None:
                raise ValueError(f"no program attached to tx {target}")
            if not self._tx:
                self.fld.tx.prog_hook = None
        else:
            raise ValueError(f"direction must be rx or tx, got {direction!r}")
        return loaded

    # -- datapath hooks -----------------------------------------------------

    def on_rx_packet(self, binding_id: int, data: bytes,
                     meta: AxisMetadata, emit) -> None:
        """Hook between CQE decode and the accelerator stream."""
        loaded = self._rx.get(binding_id)
        if loaded is None:
            emit(data, meta)
            return
        fld = self.fld
        now = fld.sim.now
        action, vport, out, executed, modified = self._execute(
            loaded, data, now, binding_id)
        if not executed:                       # below min_packet_len
            emit(out, meta)
            return
        lat = fld.config.cycles(executed)
        ctx = meta.trace_ctx
        if ctx is not None:
            self._spans.record(ctx, f"prog.{loaded.name}", now, now + lat)
        if action == ACT_PASS:
            if modified:
                loaded.stats_modify += 1
            else:
                loaded.stats_pass += 1
            fld.sim.call_later(lat, self._emit, (emit, out, meta))
        elif action == ACT_DROP:
            loaded.stats_drop += 1
            if ctx is not None:
                self._spans.end_trace(ctx, now + lat)
        else:  # redirect
            loaded.stats_redirect += 1
            fld.sim.call_later(lat, self._redirect, (loaded, out, meta, vport))

    def on_tx_packet(self, queue_id: int, data: bytes,
                     meta: AxisMetadata) -> Optional[bytes]:
        """Hook at submit entry; ``None`` drops the submission."""
        if meta.prog_skip:
            return data                       # redirected packet: run once
        loaded = self._tx.get(queue_id)
        if loaded is None:
            return data
        fld = self.fld
        now = fld.sim.now
        action, vport, out, executed, modified = self._execute(
            loaded, data, now, queue_id)
        if not executed:
            return out
        ctx = meta.trace_ctx
        if ctx is not None:
            lat = fld.config.cycles(executed)
            self._spans.record(ctx, f"prog.{loaded.name}",
                               max(0.0, now - lat), now)
        if action == ACT_PASS:
            if modified:
                loaded.stats_modify += 1
            else:
                loaded.stats_pass += 1
            return out
        if action == ACT_DROP:
            loaded.stats_drop += 1
            if ctx is not None:
                self._spans.end_trace(ctx, now)
            return None
        loaded.stats_redirect += 1
        self._redirect((loaded, out, meta, vport))
        return None                            # original submission dropped

    def _emit(self, entry) -> None:
        emit, data, meta = entry
        emit(data, meta)

    def _redirect(self, entry) -> None:
        """Re-inject a packet on the tx queue bound to ``vport``:
        ``entry`` is ``(loaded, data, meta, vport)``."""
        loaded, data, meta, vport = entry
        fld = self.fld
        ctx = meta.trace_ctx
        txq = fld.vport_tx_routes.get(vport)
        if txq is None:
            loaded.stats_redirect_drops += 1
            if ctx is not None:
                self._spans.end_trace(ctx, fld.sim.now)
            return
        out_meta = AxisMetadata(queue_id=txq, context_id=meta.context_id,
                                trace_ctx=ctx)
        out_meta.prog_skip = True
        if not fld.try_send(data, out_meta):
            loaded.stats_redirect_drops += 1
            if ctx is not None:
                self._spans.end_trace(ctx, fld.sim.now)

    # -- the interpreter ----------------------------------------------------

    def _execute(self, loaded: LoadedProgram, data: bytes, now: float,
                 queue: int):
        """Run one packet; returns (action, vport, data, executed, modified).

        No runtime checks: the verifier proved every access in bounds
        for any packet of at least ``min_packet_len`` bytes, and
        forward-only branches bound the step count by the instruction
        count.
        """
        n = len(data)
        if n < loaded.min_packet_len:
            loaded.stats_short += 1
            return ACT_PASS, 0, data, 0, False
        loaded.stats_runs += 1
        regs = [0] * NUM_REGS
        stack = bytearray(STACK_BYTES)
        buf = None                  # copy-on-write packet buffer
        insns = loaded.insns
        maps = loaded.maps
        now_ns = int(now * 1e9)
        pc = 0
        executed = 0
        while True:
            insn = insns[pc]
            executed += 1
            t = type(insn)
            if t is LdPkt:
                src = data if buf is None else buf
                regs[insn.dst] = int.from_bytes(
                    src[insn.off:insn.off + insn.width], "big")
            elif t is StPkt:
                if buf is None:
                    buf = bytearray(data)
                value = regs[insn.src] & ((1 << (8 * insn.width)) - 1)
                buf[insn.off:insn.off + insn.width] = value.to_bytes(
                    insn.width, "big")
            elif t is Mov:
                regs[insn.dst] = (regs[insn.src] if insn.src is not None
                                  else insn.imm) & M64
            elif t is Alu:
                a = regs[insn.dst]
                b = (regs[insn.src] if insn.src is not None
                     else insn.imm & M64)
                op = insn.op
                if op == "add":
                    r = a + b
                elif op == "sub":
                    r = a - b
                elif op == "mul":
                    r = a * b
                elif op == "div":
                    r = a // b if b else 0
                elif op == "mod":
                    r = a % b if b else 0
                elif op == "and":
                    r = a & b
                elif op == "or":
                    r = a | b
                elif op == "xor":
                    r = a ^ b
                elif op == "lsh":
                    r = a << (b & 63)
                else:  # rsh
                    r = a >> (b & 63)
                regs[insn.dst] = r & M64
            elif t is JmpIf:
                a = regs[insn.a]
                b = (regs[insn.b] if insn.b is not None
                     else insn.imm & M64)
                c = insn.cond
                if ((c == "eq" and a == b) or (c == "ne" and a != b)
                        or (c == "lt" and a < b) or (c == "le" and a <= b)
                        or (c == "gt" and a > b) or (c == "ge" and a >= b)):
                    pc += insn.off
            elif t is Jmp:
                pc += insn.off
            elif t is MapLookup:
                value = maps[insn.map].get(regs[insn.key])
                if value is None:
                    if insn.miss is not None:
                        pc += insn.miss
                    else:
                        regs[insn.dst] = 0
                else:
                    regs[insn.dst] = value
            elif t is MapUpdate:
                if not maps[insn.map].try_set(regs[insn.key],
                                              regs[insn.value]):
                    loaded.stats_map_full += 1
            elif t is MapDelete:
                maps[insn.map].delete(regs[insn.key])
            elif t is LdStack:
                regs[insn.dst] = int.from_bytes(
                    stack[insn.off:insn.off + insn.width], "big")
            elif t is StStack:
                value = regs[insn.src] & ((1 << (8 * insn.width)) - 1)
                stack[insn.off:insn.off + insn.width] = value.to_bytes(
                    insn.width, "big")
            elif t is LdMeta:
                if insn.meta == "len":
                    regs[insn.dst] = n
                elif insn.meta == "now_ns":
                    regs[insn.dst] = now_ns
                else:  # queue
                    regs[insn.dst] = queue
            else:  # Ret — the verifier guarantees we get here
                loaded.stats_insns += executed
                modified = buf is not None
                out = bytes(buf) if modified else data
                return insn.action, insn.vport, out, executed, modified
            pc += 1
