"""Conformance guard: the fabric and its lanes pick no path by who is
watching.

``PcieFabric`` and ``Link`` choose between their inline recurrences and
the per-record arms from lane state alone; counts are plain ints the
registry pulls.  The observers that remain may only *record* — a span
or a Chrome-trace slice for a TLP that carries a context, the
profiler's tag handoff — never select.  This AST scan fails when a
branch condition in either module starts reading telemetry state again
(the ``tele_up``/``_ctr_bits`` tests this replaced swapped every
observed run onto the per-chunk completion path).
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
GUARDED = ("pcie/fabric.py", "sim/resources.py")

#: Anything that smells of an instrument or an observer ...
OBSERVER = re.compile(r"tele|_ctr|counter|gauge|hist|metric|prof|trac|span")
#: ... except the record-only ones: the Chrome tracer, the span
#: recorder and the ids/contexts they hand out, the profiler handle.
RECORD_ONLY = {"_tracer", "tracer", "_spans", "_span", "span_id",
               "trace_ctx", "prof", "_prof"}


def observer_branches(tree: ast.AST):
    """``(function, line, name)`` of every branch condition that names
    telemetry state.  Constructors are exempt: checking
    ``telemetry.enabled`` once, there, is the idiom."""
    hits = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef) or func.name == "__init__":
            continue
        for node in ast.walk(func):
            if not isinstance(node, (ast.If, ast.IfExp, ast.While)):
                continue
            for leaf in ast.walk(node.test):
                name = (leaf.attr if isinstance(leaf, ast.Attribute)
                        else leaf.id if isinstance(leaf, ast.Name) else "")
                if OBSERVER.search(name) and name not in RECORD_ONLY:
                    hits.add((func.name, node.lineno, name))
    return sorted(hits)


def test_no_branch_in_the_fabric_or_its_lanes_reads_telemetry_state():
    offenders = []
    for rel in GUARDED:
        path = SRC / rel
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{rel}:{line} {func}() branches on {name}"
                      for func, line, name in observer_branches(tree)]
    assert not offenders, (
        "the fabric must select paths from lane state alone:\n  "
        + "\n  ".join(offenders))


def test_guard_catches_the_tests_it_replaced():
    """The scanner itself works (no false all-clear)."""
    snippet = ast.parse(
        "def _reserve_path(self, port, up):\n"
        "    if port.tele_up is not None:\n"
        "        port.tele_up.count(tlp)\n"
        "    if up._ctr_bits is None and not up._lane_keys:\n"
        "        return 1\n"
        "    if self._tracer is not None or tlp.trace_ctx is not None:\n"
        "        return 2\n"
        "    return 3 if self.sim.telemetry.enabled else 4\n")
    assert [name for _func, _line, name in observer_branches(snippet)] == [
        "tele_up", "_ctr_bits", "telemetry"]
