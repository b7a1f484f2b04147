"""Deterministic cost gate: a steered frame is one pass.

Each table a frame crosses is one ``SteeringPipeline.process`` frame
(rules scanned inline, the verdict a tuple built with no Python code),
and each eSwitch crossing one ``ESwitch.forward`` frame that applies the
FDB's verdict and runs the vPort receive table(s) after it.  An echoed
frame crosses six tables: the client's FDB on transmit, the server's FDB
and FLD vPort receive table, the server's FDB again as FLD sends it
back, then the client's FDB and its host vPort receive table.  Shaped
like ``tests/net/test_frame_cost.py``: the same warmed paced 64 B
FLD-E echo burst, only the steady state profiled.
"""

import pytest

from ..net.test_frame_cost import FRAMES, calls, profiled_echo

#: (file, function) pairs no echoed frame may reach: the per-rule and
#: per-verdict frames the table walk and the crossing fold in.
NEVER = {
    ("steering.py", "lookup"), ("steering.py", "matches"),
    ("steering.py", "__init__"), ("eswitch.py", "_apply_fdb"),
    ("eswitch.py", "ingress_to_vport"), ("eswitch.py", "apply_at"),
}


@pytest.fixture(scope="module")
def stats():
    return profiled_echo()


def test_no_per_rule_or_per_verdict_frame_runs(stats):
    seen = {(filename.rsplit("/", 1)[-1], name)
            for filename, _line, name in stats.stats}
    assert not seen & NEVER


def test_one_process_per_table_crossed(stats):
    assert calls(stats, "nic/steering.py", "process") == 6 * FRAMES
    assert calls(stats, "nic/eswitch.py", "forward") == 2 * FRAMES


def test_calls_per_echoed_frame(stats):
    """458.4 calls a frame here (496.4 before FLD's per-packet
    bookkeeping folded into its stages); 524.4 when each table hop asked
    ``FlowTable.lookup`` → ``MatchSpec.matches``, each verdict ran
    ``Disposition.__init__``, and a crossing chained ``_apply_fdb`` →
    ``ingress_to_vport`` (``apply_at`` on transmit)."""
    assert stats.total_calls / FRAMES <= 500
