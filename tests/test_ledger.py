"""The executed-function ledger (``benchmarks/ledger.py``) stays true to
the source: its hook loses no call, every function it names still
exists, and its enumerator counts what a call can run."""

import json
import os
import subprocess
import sys

import pytest

from benchmarks import ledger

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="functions are keyed by co_qualname")

FIXTURE = '''
def top():
    def nested():
        return [x for x in range(3)]
    return nested, lambda: 0


class Outer:
    def method(self):
        return {k: v for k, v in ()}

    @property
    def prop(self):
        return (y for y in ())

    class Inner:
        async def coro(self):
            pass
'''


#: Runs under the hook: each bar function stands for one way the hook
#: could lose a call.
HOOKED = """
import os, sys
from repro.core import bar
bar.cq_address(0)                       # a plain call
if os.fork() == 0:                      # a forked worker's os._exit
    bar.tx_ring_address(0)
    os._exit(0)
os.wait()
sys.setprofile(None)                    # re-armed on None
bar.tx_data_address(0)
"""


def run_hooked(tmp_path, code):
    """Run ``code`` in a Python whose sitecustomize is the ledger's hook;
    returns the directory its processes wrote their functions to."""
    hook, out = tmp_path / "hook", tmp_path / "out"
    hook.mkdir()
    out.mkdir()
    (hook / "sitecustomize.py").write_text(ledger.HOOK)
    env = {**os.environ, "LEDGER_SRC": ledger.SRC, "LEDGER_OUT": str(out),
           "PYTHONPATH": os.pathsep.join([str(hook), ledger.SRC])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=60)
    return out


def test_the_hook_keeps_every_call_a_process_and_its_forks_make(tmp_path):
    out = run_hooked(tmp_path, HOOKED)
    assert len(list(out.iterdir())) == 2      # parent and fork
    assert {"repro.core.bar:cq_address", "repro.core.bar:tx_ring_address",
            "repro.core.bar:tx_data_address"} <= ledger.collect(str(out))


def test_a_call_under_cprofile_is_kept(tmp_path):
    out = run_hooked(tmp_path, (
        "import cProfile; from repro.core import bar\n"
        "profile = cProfile.Profile(); profile.enable()\n"
        "bar.cq_address(0); profile.disable()\n"))
    assert "repro.core.bar:cq_address" in ledger.collect(str(out))


def test_every_function_the_ledger_names_exists_in_src():
    with open(ledger.LEDGER, encoding="utf-8") as handle:
        named = json.load(handle)["not_run_by_results"]
    every = {key for keys in ledger.enumerate_src().values() for key in keys}
    stale = sorted(set(named) - every)
    assert not stale, f"regenerate benchmarks/ledger.json: {stale}"
    assert all((entry["reason"] or "").startswith(ledger.REASONS)
               for entry in named.values())


def test_the_enumerator_counts_methods_and_nested_defs_only(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert sorted(ledger.functions(str(path), "fixture")) == [
        "fixture:Outer.Inner.coro",
        "fixture:Outer.method",
        "fixture:Outer.prop",
        "fixture:top",
        "fixture:top.<locals>.nested",
    ]


def test_a_dunder_is_excused_only_in_a_class_a_result_runs():
    unrun = {"m:Used.__init__", "m:Unused.__init__", "m:Unused.__repr__",
             "m:Used.helper", "m:__getattr__"}
    old = {"m:Unused.__init__": {"reason": "dunder"},
           "m:Unused.__repr__": {"reason": "error path: a refused thing"}}
    assert ledger.reasons(unrun, {"m:Used.run", "m:Unused"}, old) == {
        "m:Unused.__init__": None,
        "m:Unused.__repr__": "error path: a refused thing",
        "m:Used.__init__": "dunder",
        "m:Used.helper": None,
        "m:__getattr__": None,
    }


def test_the_ledger_adds_up():
    with open(ledger.LEDGER, encoding="utf-8") as handle:
        book = json.load(handle)
    modules = book["modules"].values()
    assert sum(m["functions"] for m in modules) == book["functions"]
    assert sum(m["run_by_results"] for m in modules) \
        == book["run_by_results"]
    assert all(m["run_by_results"] <= m["functions"] for m in modules)
    assert len(book["not_run_by_results"]) \
        == book["functions"] - book["run_by_results"]


def test_each_first_test_is_a_tier1_node_id():
    with open(ledger.LEDGER, encoding="utf-8") as handle:
        named = json.load(handle)["not_run_by_results"]
    for key, entry in named.items():
        test = entry["test"]
        assert test is None or test == "collection" or (
            test.startswith("tests/") and ".py::" in test), (key, test)


def test_a_programs_own_profiler_still_sees_its_calls(tmp_path):
    out = run_hooked(tmp_path, (
        "import sys; from repro.core import bar\n"
        "seen = []\n"
        "sys.setprofile(lambda frame, event, arg: seen.append(\n"
        "    frame.f_code.co_name) if event == 'call' else None)\n"
        "bar.cq_address(0); sys.setprofile(None)\n"
        "assert 'cq_address' in seen, seen\n"))
    assert "repro.core.bar:cq_address" in ledger.collect(str(out))


def test_only_named_functions_under_src_are_kept(tmp_path):
    """A lambda in ``src`` (a record's ``ack_req`` property) and a
    function outside it run, and neither is a key."""
    out = run_hooked(tmp_path, (
        "from repro.nic.wqe import TxWqeRecord\n"
        "def outside():\n"
        "    return TxWqeRecord((0,) * 13).ack_req\n"
        "outside()\n"))
    found = ledger.collect(str(out))
    assert found and all(key.startswith("repro") for key in found)
    assert not [key for key in found if "<" in key or "outside" in key]


def test_a_package_function_is_keyed_by_its_package(tmp_path):
    """``repro/topology/__init__.py``'s lazy ``__getattr__`` is
    ``repro.topology:__getattr__`` to both the hook and the enumerator."""
    out = run_hooked(tmp_path, "import repro.topology as t; t.Node\n")
    assert "repro.topology:__getattr__" in ledger.collect(str(out))
    assert "repro.topology:__getattr__" in ledger.enumerate_src()[
        "repro.topology"]
