"""Load-time verification of FLD match-action programs.

The firmware refuses to create a ``prog`` object unless the program
passes this verifier; the datapath interpreter then runs with **no**
runtime checks at all.  The soundness argument mirrors hXDP's (and the
kernel eBPF verifier's, shrunk to this ISA):

* **Bounded budget** — at most :data:`~repro.prog.isa.MAX_INSNS`
  instructions per program.
* **Forward-only branches** — every jump target is strictly ahead of
  the branch, so the program counter strictly increases and execution
  takes at most ``len(insns)`` steps.  No loops, guaranteed
  termination.
* **Static bounds** — packet accesses must fit inside the program's
  declared ``min_packet_len`` (shorter packets bypass the program),
  stack accesses inside :data:`~repro.prog.isa.STACK_BYTES`, registers
  inside :data:`~repro.prog.isa.NUM_REGS`, map indices inside the map
  list bound at load time.
* **Guaranteed verdict** — the last instruction is a :class:`Ret` and
  no branch can jump past the end, so every path produces a verdict.

Failures raise :class:`ProgVerifyError` carrying a numeric sub-code
(``E_*``); the firmware maps it to ``CmdStatus.VERIFY_FAILED`` with the
sub-code in the response syndrome field.
"""

from __future__ import annotations

from .isa import (
    ACTIONS, ALU_OPS, Alu, CONDS, Instruction, Jmp, JmpIf, LdMeta,
    LdPkt, LdStack, MAX_INSNS, META_FIELDS, MapDelete, MapLookup,
    MapUpdate, Mov, NUM_REGS, Program, Ret, STACK_BYTES, StPkt,
    StStack, WIDTHS,
)

__all__ = [
    "E_BUDGET", "E_JUMP", "E_MAP", "E_OPCODE", "E_PKT_BOUNDS",
    "E_REGISTER", "E_STACK_BOUNDS", "E_TERMINATION", "E_WIDTH",
    "ProgVerifyError", "verify",
]

#: Verifier rejection sub-codes (surface as the CmdError syndrome).
E_BUDGET = 1        # empty program or instruction budget exceeded
E_TERMINATION = 2   # last instruction is not a Ret
E_JUMP = 3          # backward or out-of-range branch target
E_REGISTER = 4      # register index out of range / bad operand combo
E_PKT_BOUNDS = 5    # packet access outside min_packet_len
E_STACK_BOUNDS = 6  # stack access outside STACK_BYTES
E_WIDTH = 7         # access width not in WIDTHS
E_MAP = 8           # map index outside the bound map list
E_OPCODE = 9        # unknown instruction / op / cond / action


class ProgVerifyError(Exception):
    """A program failed load-time verification.

    ``code`` is one of the ``E_*`` sub-codes above; the firmware
    forwards it as the command-response syndrome so callers can tell
    *why* a load was rejected without parsing message strings.
    """

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fail(code: int, pc: int, message: str):
    raise ProgVerifyError(code, f"insn {pc}: {message}")


def _check_reg(pc: int, reg, what: str):
    if not isinstance(reg, int) or not 0 <= reg < NUM_REGS:
        _fail(E_REGISTER, pc, f"{what} register {reg!r} out of range "
                              f"(0..{NUM_REGS - 1})")


def _check_src_imm(pc: int, insn, src, imm):
    if (src is None) == (imm is None):
        _fail(E_REGISTER, pc,
              f"{type(insn).__name__} needs exactly one of src/imm")
    if src is not None:
        _check_reg(pc, src, "src")
    elif not isinstance(imm, int):
        _fail(E_REGISTER, pc, f"immediate {imm!r} is not an integer")


def _check_branch(pc: int, off, n_insns: int, what: str):
    if not isinstance(off, int) or off < 0:
        _fail(E_JUMP, pc, f"{what} offset {off!r} is backward or invalid "
                          "(forward-only branches)")
    target = pc + 1 + off
    if target > n_insns - 1:
        _fail(E_JUMP, pc, f"{what} target {target} past program end "
                          f"({n_insns} insns)")


def _check_pkt(pc: int, off, width, limit: int):
    if width not in WIDTHS:
        _fail(E_WIDTH, pc, f"width {width!r} not in {WIDTHS}")
    if not isinstance(off, int) or off < 0 or off + width > limit:
        _fail(E_PKT_BOUNDS, pc,
              f"packet access [{off}:{off}+{width}] outside "
              f"min_packet_len={limit}")


def _check_stack(pc: int, off, width):
    if width not in WIDTHS:
        _fail(E_WIDTH, pc, f"width {width!r} not in {WIDTHS}")
    if not isinstance(off, int) or off < 0 or off + width > STACK_BYTES:
        _fail(E_STACK_BOUNDS, pc,
              f"stack access [{off}:{off}+{width}] outside "
              f"{STACK_BYTES}-byte stack")


def _check_map(pc: int, index, num_maps: int):
    if not isinstance(index, int) or not 0 <= index < num_maps:
        _fail(E_MAP, pc, f"map index {index!r} outside bound maps "
                         f"(have {num_maps})")


def verify(program: Program, num_maps: int) -> int:
    """Validate ``program`` against ``num_maps`` bound maps.

    Returns the instruction count on success; raises
    :class:`ProgVerifyError` on the first violation.
    """
    if not isinstance(program, Program):
        raise ProgVerifyError(
            E_OPCODE, f"not a Program: {type(program).__name__}")
    insns = program.insns
    n = len(insns)
    if n == 0:
        raise ProgVerifyError(E_BUDGET, "empty program")
    if n > MAX_INSNS:
        raise ProgVerifyError(
            E_BUDGET, f"{n} insns exceeds budget of {MAX_INSNS}")
    limit = program.min_packet_len
    if not isinstance(limit, int) or limit < 0:
        raise ProgVerifyError(
            E_PKT_BOUNDS, f"bad min_packet_len {limit!r}")

    for pc, insn in enumerate(insns):
        if isinstance(insn, LdPkt):
            _check_reg(pc, insn.dst, "dst")
            _check_pkt(pc, insn.off, insn.width, limit)
        elif isinstance(insn, StPkt):
            _check_reg(pc, insn.src, "src")
            _check_pkt(pc, insn.off, insn.width, limit)
        elif isinstance(insn, LdStack):
            _check_reg(pc, insn.dst, "dst")
            _check_stack(pc, insn.off, insn.width)
        elif isinstance(insn, StStack):
            _check_reg(pc, insn.src, "src")
            _check_stack(pc, insn.off, insn.width)
        elif isinstance(insn, LdMeta):
            _check_reg(pc, insn.dst, "dst")
            if insn.meta not in META_FIELDS:
                _fail(E_OPCODE, pc, f"unknown meta field {insn.meta!r}")
        elif isinstance(insn, Mov):
            _check_reg(pc, insn.dst, "dst")
            _check_src_imm(pc, insn, insn.src, insn.imm)
        elif isinstance(insn, Alu):
            if insn.op not in ALU_OPS:
                _fail(E_OPCODE, pc, f"unknown ALU op {insn.op!r}")
            _check_reg(pc, insn.dst, "dst")
            _check_src_imm(pc, insn, insn.src, insn.imm)
        elif isinstance(insn, Jmp):
            _check_branch(pc, insn.off, n, "jmp")
        elif isinstance(insn, JmpIf):
            if insn.cond not in CONDS:
                _fail(E_OPCODE, pc, f"unknown condition {insn.cond!r}")
            _check_reg(pc, insn.a, "a")
            _check_src_imm(pc, insn, insn.b, insn.imm)
            _check_branch(pc, insn.off, n, "jmp-if")
        elif isinstance(insn, MapLookup):
            _check_reg(pc, insn.dst, "dst")
            _check_reg(pc, insn.key, "key")
            _check_map(pc, insn.map, num_maps)
            if insn.miss is not None:
                _check_branch(pc, insn.miss, n, "miss")
        elif isinstance(insn, MapUpdate):
            _check_reg(pc, insn.key, "key")
            _check_reg(pc, insn.value, "value")
            _check_map(pc, insn.map, num_maps)
        elif isinstance(insn, MapDelete):
            _check_reg(pc, insn.key, "key")
            _check_map(pc, insn.map, num_maps)
        elif isinstance(insn, Ret):
            if insn.action not in ACTIONS:
                _fail(E_OPCODE, pc, f"unknown action {insn.action!r}")
            if not isinstance(insn.vport, int) or insn.vport < 0:
                _fail(E_OPCODE, pc, f"bad redirect vport {insn.vport!r}")
        elif isinstance(insn, Instruction):
            _fail(E_OPCODE, pc,
                  f"unhandled instruction {type(insn).__name__}")
        else:
            _fail(E_OPCODE, pc, f"not an instruction: {insn!r}")

    if not isinstance(insns[-1], Ret):
        raise ProgVerifyError(
            E_TERMINATION, "last instruction must be a Ret "
                           "(every path needs a verdict)")
    return n
