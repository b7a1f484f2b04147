"""An observed run is the sweep's own run, not a copy of it.

For every :mod:`repro.scenario` row, under each observing command and
under every command-specific alias, the result row of
:func:`repro.scenario.observe` must equal (``==``) the row the sweep
entry point returns at the same count, size and seed, and a run with no
telemetry at all must return that same row.  The audit of every
observed run must be clean.
"""

import random

import pytest

from repro.experiments.echo import (
    echo_latency,
    echo_throughput,
    fldr_throughput,
    trace_forwarding,
)
from repro.scenario import ALIASES, SCENARIOS, observe, run

COUNT = 40

#: Scenario -> its sweep entry point, called as (count, size).
ENTRY_POINTS = {
    "fig7b": lambda count, size: echo_throughput(
        "flde-remote", size, count=count),
    "fig7b-local": lambda count, size: echo_throughput(
        "flde-local", size, count=count),
    "fig7b-cpu": lambda count, size: echo_throughput(
        "cpu-remote", size, count=count),
    "table6": lambda count, size: echo_latency(
        "flde", count=count, frame_size=size),
    "table6-cpu": lambda count, size: echo_latency(
        "cpu", count=count, frame_size=size),
    "forwarding": lambda count, size: trace_forwarding("flde", count=count),
    "forwarding-cpu": lambda count, size: trace_forwarding(
        "cpu", count=count),
    "fldr": lambda count, size: fldr_throughput(size, count=count),
    "fldr-local": lambda count, size: fldr_throughput(
        size, count=count, local=True),
}

#: What each command-specific name observes: the sweep point it stands
#: for (``profile cpu-echo`` is Fig. 7b's ``cpu-remote`` point, no OS
#: jitter).
ALIAS_ROWS = {
    ("latency", "echo"): "table6",
    ("latency", "cpu-echo"): "table6-cpu",
    ("latency", "forwarding"): "forwarding",
    ("profile", "echo"): "fig7b",
    ("profile", "cpu-echo"): "fig7b-cpu",
    ("profile", "forwarding"): "forwarding",
}

OBSERVED = sorted(
    [(kind, name) for kind in ("trace", "latency", "profile")
     for name in SCENARIOS] + list(ALIAS_ROWS))


def test_every_row_and_alias_has_an_entry_point():
    assert set(ENTRY_POINTS) == set(SCENARIOS)
    assert set(ALIAS_ROWS) == {case for case in ALIASES
                               if case[0] != "objects"}


@pytest.mark.parametrize("kind,name", OBSERVED,
                         ids=[" ".join(case) for case in OBSERVED])
def test_observed_row_is_the_entry_points_row(kind, name, tmp_path):
    target = ALIAS_ROWS.get((kind, name), name)
    size = SCENARIOS[target].size
    random.seed(11)
    expected = ENTRY_POINTS[target](COUNT, size)
    random.seed(11)
    output = str(tmp_path / "trace.json") if kind == "trace" else None
    summary = observe(kind, name, COUNT, output=output)
    assert summary["violations"] == []
    assert summary["result"] == expected
    random.seed(11)
    assert run(target, COUNT)[0] == expected


def test_a_trace_sized_scenario_rejects_a_size():
    with pytest.raises(ValueError, match="size does not apply"):
        run("forwarding", COUNT, 256)
