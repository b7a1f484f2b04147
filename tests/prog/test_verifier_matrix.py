"""Verifier rejection matrix: every bad program dies at load time.

Each invalid program is submitted to the firmware command unit
(``create_prog``) and must raise ``VERIFY_FAILED`` with the typed
``E_*`` sub-code as the error's syndrome — and, crucially, with the
``ObjectTable`` untouched: a rejected load leaves no handle, no
refcount, no partial state.  Dangling map references are a separate
failure class (``BAD_HANDLE``): they are reported before verification
even runs.
"""

import pytest

from repro.nic import CmdError, CmdStatus
from repro.prog.isa import (
    ACT_PASS,
    Alu,
    Jmp,
    JmpIf,
    LdMeta,
    LdPkt,
    LdStack,
    MAX_INSNS,
    MapLookup,
    Mov,
    Program,
    Ret,
    StStack,
)
from repro.prog.verifier import (
    E_BUDGET,
    E_JUMP,
    E_MAP,
    E_OPCODE,
    E_PKT_BOUNDS,
    E_REGISTER,
    E_STACK_BOUNDS,
    E_TERMINATION,
    E_WIDTH,
    ProgVerifyError,
    verify,
)
from repro.sim import Simulator
from repro.testbed import make_local_node

#: (case name, program, expected syndrome).  One row per E_* code.
MATRIX = [
    ("empty",
     Program("empty", ()),
     E_BUDGET),
    ("over-budget",
     Program("big",
             tuple(Mov(0, imm=0) for _ in range(MAX_INSNS))
             + (Ret(ACT_PASS),)),
     E_BUDGET),
    ("no-terminal-ret",
     Program("noret", (Mov(0, imm=1),)),
     E_TERMINATION),
    ("backward-jump",
     Program("loop", (Mov(0, imm=0), Jmp(-1), Ret(ACT_PASS))),
     E_JUMP),
    ("jump-past-end",
     Program("overjump", (Jmp(5), Ret(ACT_PASS))),
     E_JUMP),
    ("bad-register",
     Program("badreg", (Mov(8, imm=1), Ret(ACT_PASS))),
     E_REGISTER),
    ("both-src-and-imm",
     Program("ambig", (Mov(0, src=1, imm=2), Ret(ACT_PASS))),
     E_REGISTER),
    ("oob-packet-read",
     Program("oob", (LdPkt(0, 40, 4), Ret(ACT_PASS)),
             min_packet_len=42),
     E_PKT_BOUNDS),
    ("packet-read-without-contract",
     Program("nolen", (LdPkt(0, 0, 1), Ret(ACT_PASS))),  # min_len=0
     E_PKT_BOUNDS),
    ("oob-stack",
     Program("stk", (StStack(64, 0, 8), Ret(ACT_PASS))),
     E_STACK_BOUNDS),
    ("bad-width",
     Program("w3", (LdStack(0, 0, 3), Ret(ACT_PASS))),
     E_WIDTH),
    ("map-index-out-of-range",
     Program("nomap", (Mov(1, imm=0), MapLookup(0, 0, key=1),
                       Ret(ACT_PASS))),
     E_MAP),
    ("bad-action",
     Program("boom", (Ret("explode"),)),
     E_OPCODE),
    ("bad-alu-op",
     Program("alu", (Alu("pow", 0, imm=2), Ret(ACT_PASS))),
     E_OPCODE),
    ("bad-cond",
     Program("cond", (JmpIf("almost", 0, off=0, imm=1), Ret(ACT_PASS))),
     E_OPCODE),
    ("bad-meta-field",
     Program("meta", (LdMeta(0, "color"), Ret(ACT_PASS))),
     E_OPCODE),
    ("not-an-instruction",
     Program("junk", ("nop", Ret(ACT_PASS))),
     E_OPCODE),
]


@pytest.fixture()
def unit():
    sim = Simulator()
    node = make_local_node(sim)
    return node.nic.cmd


class TestVerifierUnit:
    """The verifier rejects directly, with the right sub-code."""

    @pytest.mark.parametrize("name,program,code",
                             MATRIX, ids=[m[0] for m in MATRIX])
    def test_rejection_code(self, name, program, code):
        with pytest.raises(ProgVerifyError) as err:
            verify(program, num_maps=0)
        assert err.value.code == code

    def test_not_a_program_rejected(self):
        with pytest.raises(ProgVerifyError) as err:
            verify("not a program", num_maps=0)
        assert err.value.code == E_OPCODE

    def test_valid_program_returns_insn_count(self):
        assert verify(Program("ok", (Mov(0, imm=1), Ret(ACT_PASS))),
                      num_maps=0) == 2


class TestRejectionThroughFirmware:
    """The command unit surfaces typed statuses and stays clean."""

    @pytest.mark.parametrize("name,program,code",
                             MATRIX, ids=[m[0] for m in MATRIX])
    def test_verify_failed_with_syndrome_and_no_state(self, unit,
                                                      name, program,
                                                      code):
        table = unit.table
        before = table.rows()
        with pytest.raises(CmdError) as err:
            unit.create_prog(program, [])
        assert err.value.status == CmdStatus.VERIFY_FAILED
        assert err.value.syndrome == code
        assert table.rows() == before

    def test_dangling_map_is_bad_handle_not_verify(self, unit):
        """An unregistered map object fails handle resolution before
        the verifier ever runs — even with an invalid program."""
        table = unit.table
        before = table.rows()
        good = Program("ok", (Ret(ACT_PASS),))
        bad = Program("noret", (Mov(0, imm=1),))
        for program in (good, bad):
            with pytest.raises(CmdError) as err:
                unit.create_prog(program, [object()])
            assert err.value.status == CmdStatus.BAD_HANDLE
            assert table.rows() == before

    def test_destroyed_map_is_dangling(self, unit):
        prog_map = unit.create_prog_map(capacity=8)
        unit.destroy(unit.handle_of(prog_map))
        before = unit.table.rows()
        with pytest.raises(CmdError) as err:
            unit.create_prog(Program("ok", (Ret(ACT_PASS),)), [prog_map])
        assert err.value.status == CmdStatus.BAD_HANDLE
        assert unit.table.rows() == before

    def test_map_index_checked_against_bound_maps(self, unit):
        """A program touching map 1 loads with two maps, not with one."""
        prog = Program("two", (Mov(1, imm=0), MapLookup(0, 1, key=1),
                               Ret(ACT_PASS)))
        m0 = unit.create_prog_map()
        with pytest.raises(CmdError) as err:
            unit.create_prog(prog, [m0])
        assert err.value.status == CmdStatus.VERIFY_FAILED
        assert err.value.syndrome == E_MAP
        m1 = unit.create_prog_map()
        assert unit.create_prog(prog, [m0, m1]).name == "two"
