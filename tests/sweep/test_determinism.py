"""Determinism regression tests (the tentpole's core guarantee).

Serial and ``--jobs 4`` executions of real experiment sweeps must
produce byte-identical result dicts.  These run the actual simulated
stack (small counts): any nondeterminism the unit tests missed — an
unseeded RNG, worker-order-dependent accumulation, set iteration —
shows up here as a diff.
"""

import json

from repro.experiments.echo import fig7b_points
from repro.experiments.zuc import fig8a_points
from repro.sweep import run_sweep


def _dumps(rows):
    return json.dumps(rows, sort_keys=True, allow_nan=False)


def test_fig7b_serial_vs_jobs4_byte_identical():
    points = fig7b_points(sizes=[64, 512], count=120,
                          modes=["flde-remote", "cpu-remote"])
    serial = run_sweep(points, jobs=1)
    parallel = run_sweep(points, jobs=4)
    assert len(serial) == len(parallel) == len(points)
    assert _dumps(serial.rows) == _dumps(parallel.rows)


def test_zuc_serial_vs_jobs4_byte_identical():
    points = fig8a_points(sizes=[64, 256], count=80)
    serial = run_sweep(points, jobs=1)
    parallel = run_sweep(points, jobs=4)
    assert _dumps(serial.rows) == _dumps(parallel.rows)


def test_repeated_serial_runs_are_byte_identical():
    """The seeding is content-addressed, not process-lifetime state:
    running the same sweep twice in one process gives the same bytes."""
    points = fig7b_points(sizes=[64], count=120, modes=["flde-remote"])
    first = run_sweep(points, jobs=1)
    second = run_sweep(points, jobs=1)
    assert _dumps(first.rows) == _dumps(second.rows)
