"""Every pinned result of the reproduction, one case each.

``fingerprints.json`` holds each case's result as canonical JSON: the
values themselves, not a hash of them, so a change names the fields it
moved.  The cases:

* ``row/<name>``: every :data:`repro.scenario.SCENARIOS` row at its
  default shape and size, seed 11, count 40 (``defrag``: 120 datagrams,
  two rounds over its 60 flows; a timed row runs its default duration).
  A new row is a new case, and fails until it has an entry.
* ``datapath/<shape>``: one small run per datapath shape (FLD-E remote
  and local echo, the CPU echo's WQE ring fetch and receive-descriptor
  bursts, closed-loop latency, ZUC over FLD-R, IoT shaping, defrag,
  multi-tenant scale, a match-action program).
* ``topology/<run>``: the runs that held the declarative topology layer
  to the numbers of the hand-wired testbeds it replaced.
* ``golden/<name>``: Tables 2a, 3 and 6 and Figs. 4 and 7a, through
  :func:`repro.sweep.run_sweep` and its content-addressed seeds.

After an intentional model change, rewrite every entry, or the named
cases' entries, and review the diff; each field that moved is printed
as ``case path: old -> new``::

    PYTHONPATH=src python -m tests.golden.fingerprints [case ...]
"""

import json
import os
import random
import sys
from functools import lru_cache, partial

from repro.experiments.echo import table6_points
from repro.scenario import SCENARIOS, run
from repro.sweep import SweepPoint, run_sweep

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fingerprints.json")

#: The seed and count of every row case.
ROW_SEED, ROW_COUNT = 11, 40


def row_count(name):
    """Row ``name``'s case count: none for timed traffic, and defrag
    counts datagrams."""
    if SCENARIOS[name].count is None:
        return None
    return 120 if name == "defrag" else ROW_COUNT


#: Case -> (scenario row, count, size, seed, shape, traffic): the
#: result row of ``repro.scenario.run`` after seeding ``random``.
RUNS = {
    **{f"row/{name}": (name, row_count(name), None, ROW_SEED, {}, {})
       for name in SCENARIOS},
    "datapath/echo_flde_remote": ("fig7b", 150, 64, 1234, {}, {}),
    "datapath/echo_flde_local": ("fig7b-local", 150, 256, 1234, {}, {}),
    "datapath/echo_cpu_remote": ("fig7b-cpu", 150, 512, 1234, {}, {}),
    "datapath/echo_latency_flde": ("table6", 100, 64, 99, {}, {}),
    "datapath/zuc_fld": ("fig8a", 80, 512, 5, {}, {}),
    "datapath/iot_line_rate": ("iot-line-rate", None, 512, 0, {},
                               {"duration": 0.1e-3}),
    "datapath/defrag": ("defrag", 240, None, 11, {"config": "hw-defrag"},
                        {}),
    "datapath/scale_tenants": ("scale-tenants", 80, 256, 21,
                               {"tenants": 2}, {}),
    "datapath/prog_echo": ("prog-null", 80, 256, 31, {}, {}),
    "topology/flde_echo_remote": ("fig7b", 400, 256, 1234, {}, {}),
    "topology/flde_echo_local": ("fig7b-local", 400, 256, 1234, {}, {}),
    "topology/flde_latency": ("table6", 300, 64, 99, {}, {}),
}


def _run(row, count, size, seed, shape, traffic):
    random.seed(seed)
    return run(row, count, size, shape=shape, **traffic)[0]


def _point(experiment, target):
    return run_sweep([SweepPoint(experiment, target)]).rows[0]


CASES = {
    **{name: partial(_run, *spec) for name, spec in RUNS.items()},
    "golden/table2a": partial(_point, "table2",
                              "repro.models.memory:table2a"),
    "golden/table3": partial(_point, "table3", "repro.models.memory:table3"),
    "golden/table6": lambda: run_sweep(table6_points(count=400)).rows,
    "golden/fig4_bandwidth": partial(
        _point, "fig4", "repro.models.memory:figure4_bandwidth_sweep"),
    "golden/fig4_queues": partial(
        _point, "fig4", "repro.models.memory:figure4_queue_sweep"),
    "golden/fig7a": partial(_point, "fig7a", "repro.models.perf:figure7a"),
}


def as_json(value):
    """``value`` as it reads back from JSON."""
    return json.loads(json.dumps(value, default=str))


def fingerprint(name):
    """Case ``name``'s result, as its entry holds it."""
    return as_json(CASES[name]())


@lru_cache(maxsize=None)
def entries():
    """The committed entries, by case."""
    if not os.path.exists(FIXTURE):
        return {}
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


ABSENT = object()


def _text(value):
    return "(absent)" if value is ABSENT else json.dumps(value,
                                                         sort_keys=True)


def moved(old, new, path=""):
    """Yield ``(path, old, new)``, as text, for each field that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from moved(old.get(key, ABSENT), new.get(key, ABSENT),
                             f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list):
        for index in range(max(len(old), len(new))):
            yield from moved(old[index] if index < len(old) else ABSENT,
                             new[index] if index < len(new) else ABSENT,
                             f"{path}[{index}]")
    elif _text(old) != _text(new):
        yield path, _text(old), _text(new)


def report(name, old, new):
    """``case path: old -> new`` lines for case ``name``."""
    return [f"{name}{' ' + path if path else ''}: {was} -> {now}"
            for path, was, now in moved(old, new)]


def main(names) -> int:
    unknown = [name for name in names if name not in CASES]
    if unknown:
        print(f"unknown case(s): {', '.join(unknown)}; "
              f"available: {', '.join(sorted(CASES))}")
        return 2
    old = entries()
    table = dict(old) if names else {}
    for name in names or sorted(CASES):
        table[name] = fingerprint(name)
    for name in sorted(old.keys() | table.keys()):
        for line in report(name, old.get(name, ABSENT),
                           table.get(name, ABSENT)):
            print(line)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True, allow_nan=False)
        handle.write("\n")
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
