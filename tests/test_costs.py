"""Every deterministic cost gate: one row of ``tests.costs.GATES``."""

import pytest

from . import costs
from .costs import (BURSTS, GATES, OPS_GATES, OPS_SKIP, check, check_ops,
                    ledger, stale_sites)


@pytest.mark.parametrize("burst", BURSTS)
def test_burst_carries_its_traffic(burst):
    """A burst's own asserts hold (bytes, replies, traces), its split
    charges every call to one file, and some gate row reads it."""
    led = ledger(burst)
    assert led.total > 0 and sum(led.split.values()) == led.total
    if led.ops is not None:
        assert sum(led.op_split.values()) == sum(led.ops.values()) > 0
    assert any(burst in (gate[1] if isinstance(gate[1], tuple) else (gate[1],))
               for gate in GATES)


@pytest.mark.parametrize("gate", GATES, ids=[gate[0] for gate in GATES])
def test_cost_gate(gate):
    _value, found = check(gate)
    assert not found, f"{gate[0]}: " + "; ".join(found)


@pytest.mark.parametrize("gate", OPS_GATES, ids=[gate[0] for gate in OPS_GATES])
def test_ops_gate(gate):
    if OPS_SKIP:
        pytest.skip(OPS_SKIP)
    _value, found = check_ops(gate)
    assert not found, f"{gate[0]}: " + "; ".join(found)


def test_report_exits_1_naming_each_failing_row(monkeypatch, capsys):
    """``python -m tests.costs`` fails a CI step when a row fails."""
    write = next(gate for gate in GATES if gate[0] == "fabric.write")
    monkeypatch.setattr(costs, "GATES", (
        write, ("tight.calls", *write[1:4], 1, (), ()),
        ("tight.never", *write[1:5], ("pcie/fabric.py:post_write",), ())))
    assert costs.main() == 1
    assert capsys.readouterr().out.splitlines()[-1] == \
        "failing: tight.calls, tight.never"
    monkeypatch.setattr(costs, "GATES", (write,))
    assert costs.main() == 0


def test_every_never_site_names_a_source_function():
    """A ``never`` pattern that names no function under ``src/repro``
    passes whatever runs: deleting a function must not silently disable
    the gate that names it."""
    assert stale_sites() == []


def test_a_site_naming_a_deleted_function_is_stale():
    row = ("probe", "echo", "frame", None, None,
           ("core/buffers.py:free_chunks|chunks_for", "core/descriptors.py:*",
            ("~:<built-in method builtins.len>", ("sim/engine.py:gone",)),
            ":<built-in method _bisect.*>"), ())
    assert stale_sites([row]) == [
        "probe: 'core/buffers.py:free_chunks|chunks_for' (chunks_for)",
        "probe: 'core/descriptors.py:*' (*)",
        "probe: 'sim/engine.py:gone' (gone)"]
