"""An observed run is the sweep's own run, not a copy of it.

For every :mod:`repro.scenario` row, the family's entry point must
return the row's fingerprint entry (``row/<name>`` in
``tests/golden/fingerprints.json``: the row under
:func:`repro.scenario.run` at the case's count and seed), and so must
:func:`repro.scenario.observe` under each observing command and under
every command-specific alias.  The audit of every observed run must be
clean.
"""

import random

import pytest

from repro.experiments import (
    cpu_mediated,
    defrag,
    iot,
    scale_tenants,
    scaling,
    zuc,
)
from repro.experiments.echo import (
    echo_latency,
    echo_throughput,
    fldr_load_point,
    fldr_throughput,
    trace_forwarding,
)
from repro.scenario import ALIASES, SCENARIOS, observe, run

from ..golden.fingerprints import (ROW_COUNT, ROW_SEED, as_json, entries,
                                   report, row_count)


def _fig7c_rate(size):
    """The Fig. 7c row's default offered load: half of saturation."""
    return 12.5e9 / ((size + 150) * 8)


#: Scenario -> its entry point, called as (count, size) with the row's
#: default shape and traffic.
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
    "fig7c": lambda count, size: fldr_load_point(
        _fig7c_rate(size), size, per_point=count),
    "fig7c-local": lambda count, size: fldr_load_point(
        _fig7c_rate(size), size, local=True, per_point=count),
    "fig8a": lambda count, size: zuc.fld_throughput(size, count=count),
    "iot-line-rate": lambda count, size: iot.line_rate_point(
        size, duration=0.1e-3),
    "iot-isolation": lambda count, size: iot.isolation(
        False, duration=0.5e-3, frame_size=size),
    "defrag": lambda count, size: defrag.run(
        "hw-defrag", rounds=count // defrag.NUM_FLOWS),
    "scale-tenants": lambda count, size: scale_tenants.throughput(
        4, size, count=count),
    # ``python -m repro prog`` runs each prog row through scenario.run.
    **{f"prog-{name}": (lambda count, size, name=name:
                        run(f"prog-{name}", count, size)[0])
       for name in ("firewall", "lb", "nat", "ddos", "null")},
    "cpu-mediated": lambda count, size: cpu_mediated.echo_throughput(
        size, count=count),
    "scaling": lambda count, size: scaling.throughput(
        4, frame_size=size, count=count),
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


def _moved(name, result):
    return report(name, entries()[f"row/{name}"], as_json(result))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_entry_point_returns_the_rows_entry(name):
    random.seed(ROW_SEED)
    assert not _moved(name, ENTRY_POINTS[name](row_count(name),
                                               SCENARIOS[name].size))


@pytest.mark.parametrize("kind,name", OBSERVED,
                         ids=[" ".join(case) for case in OBSERVED])
def test_observed_row_is_the_entry_points_row(kind, name, tmp_path):
    target = ALIAS_ROWS.get((kind, name), name)
    random.seed(ROW_SEED)
    output = str(tmp_path / "trace.json") if kind == "trace" else None
    summary = observe(kind, name, row_count(target), output=output)
    assert summary["violations"] == []
    assert not _moved(target, summary["result"])


def test_a_trace_sized_scenario_rejects_a_size():
    with pytest.raises(ValueError, match="size does not apply"):
        run("forwarding", ROW_COUNT, 256)


def test_a_timed_scenario_rejects_a_count():
    with pytest.raises(ValueError, match="count does not apply"):
        run("iot-isolation", ROW_COUNT)
    with pytest.raises(ValueError, match="count does not apply"):
        observe("trace", "iot-line-rate", ROW_COUNT, output="unused.json")


def test_a_shape_reaches_the_build():
    row = run("scale-tenants", ROW_COUNT, shape={"tenants": 2})[0]
    assert [tenant["tenant"] for tenant in row["per_tenant"]] == [
        "tenant0", "tenant1"]
    assert run("iot-isolation", shape={"shaped": True})[0]["shaped"]
