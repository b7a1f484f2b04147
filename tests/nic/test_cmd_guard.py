"""Conformance guard: NIC resources are born through the firmware
command unit, nowhere else.

The device's raw constructors (``create_cq`` & co.) are firmware
implementation detail; every other module must call the verbs of
:class:`repro.nic.CommandUnit` (``nic.cmd.alloc_cq`` & co.), so that
each resource has a handle, a lifecycle state and a refcounted table
entry.  This AST scan keeps the discipline honest — a direct call
anywhere outside the allowlist fails CI.

The match-action program subsystem (``repro.prog``) extends the rule:
``ProgMap`` and ``load_program`` are firmware-only constructors too —
a program that did not pass through ``create_prog`` never met the
verifier, and a map created outside ``create_prog_map`` has no handle and
no refcount pinning it to the programs that use it.  Those names are
plain functions/classes (called by name, not as attributes), so the
scanner matches both ``ast.Attribute`` and ``ast.Name`` call forms.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Raw control-plane constructors only the firmware may invoke.
BANNED = {
    "create_cq",
    "create_sq",
    "create_rq",
    "create_mprq",
    "create_rc_qp",
    "set_vport_default_queue",
    "register_resume_table",
    "ProgMap",
    "load_program",
}

#: The firmware itself (command executors + the device they run on) and
#: the modules that *define* the banned program/map constructors.
ALLOWED = {
    "nic/cmd.py",
    "nic/device.py",
    "prog/maps.py",      # defines ProgMap
    "prog/engine.py",    # defines load_program
    "prog/__init__.py",  # re-exports only
}


def direct_calls(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in BANNED:
            yield func.attr, node.lineno
        elif isinstance(func, ast.Name) and func.id in BANNED:
            yield func.id, node.lineno


class TestCommandUnitGuard:
    def test_source_tree_exists(self):
        assert SRC.is_dir(), f"source tree not found at {SRC}"
        assert (SRC / "nic" / "cmd.py").is_file()
        assert (SRC / "prog" / "engine.py").is_file()

    def test_no_direct_constructor_calls_outside_firmware(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            if rel in ALLOWED:
                continue
            offenders += [f"{rel}:{line} calls {name}() directly"
                          for name, line in direct_calls(path)]
        assert not offenders, (
            "NIC resources must be created through the command unit "
            "verbs (nic.cmd); direct constructor calls found:\n  "
            + "\n  ".join(offenders))

    def test_guard_catches_a_direct_call(self):
        """The scanner itself works (no false all-clear)."""
        snippet = ast.parse("nic.create_cq(ring, 64)")
        hits = [node for node in ast.walk(snippet)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in BANNED]
        assert len(hits) == 1

    def test_guard_catches_name_form_calls(self):
        """Bare-name constructors (ProgMap(...)) are matched too."""
        snippet = Path(__file__).parent / "_guard_probe.py"
        snippet.write_text("m = ProgMap(64)\np = load_program(prog, [m])\n",
                           encoding="utf-8")
        try:
            hits = sorted(name for name, _ in direct_calls(snippet))
        finally:
            snippet.unlink()
        assert hits == ["ProgMap", "load_program"]
