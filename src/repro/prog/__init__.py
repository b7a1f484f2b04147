"""hXDP-style match-action programs for the FLD datapath.

The subsystem, bottom to top:

* :mod:`repro.prog.isa` — the instruction set and :class:`Program`;
* :mod:`repro.prog.verifier` — load-time checks (budget, bounds,
  forward-only jumps) with typed rejection sub-codes;
* :mod:`repro.prog.maps` — cuckoo-backed 64-bit key/value maps;
* :mod:`repro.prog.engine` — attachment tables + the interpreter the
  FLD rx/tx hooks call per packet;
* :mod:`repro.prog.programs` — the four example programs.

Programs and maps are firmware objects: create them through the
command unit's verbs (``nic.cmd.create_prog`` & co.), never by
constructing these classes directly — the AST conformance guard
enforces it.
"""

from .isa import (
    ACT_DROP, ACT_PASS, ACT_REDIRECT, Alu, Instruction, Jmp, JmpIf,
    LdMeta, LdPkt, LdStack, MAX_INSNS, MapDelete, MapLookup, MapUpdate,
    Mov, NUM_REGS, Program, Ret, STACK_BYTES, StPkt, StStack,
)
from .verifier import (
    E_BUDGET, E_JUMP, E_MAP, E_OPCODE, E_PKT_BOUNDS, E_REGISTER,
    E_STACK_BOUNDS, E_TERMINATION, E_WIDTH, ProgVerifyError, verify,
)
from .maps import ProgMap
from .engine import LoadedProgram, ProgEngine, load_program
from .programs import (
    ddos_filter, firewall, load_balancer, mac_to_int, nat, passthrough,
)

__all__ = [
    "ACT_DROP", "ACT_PASS", "ACT_REDIRECT", "Alu", "E_BUDGET", "E_JUMP",
    "E_MAP", "E_OPCODE", "E_PKT_BOUNDS", "E_REGISTER", "E_STACK_BOUNDS",
    "E_TERMINATION", "E_WIDTH", "Instruction", "Jmp", "JmpIf", "LdMeta",
    "LdPkt", "LdStack", "LoadedProgram", "MAX_INSNS", "MapDelete",
    "MapLookup", "MapUpdate", "Mov", "NUM_REGS", "Program", "ProgEngine",
    "ProgMap", "ProgVerifyError", "Ret", "STACK_BYTES", "StPkt",
    "StStack", "ddos_filter", "firewall", "load_balancer", "load_program",
    "mac_to_int", "nat", "passthrough", "verify",
]
