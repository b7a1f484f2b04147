"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures,
prints the rows in the paper's format (so `pytest benchmarks/
--benchmark-only -s` reads like the evaluation section), asserts the
reproduction's *shape* claims, and reports wall time via
pytest-benchmark.

Benches hold **no state at module scope**: each test builds its own
:class:`~repro.experiments.setups.Calibration` (via the ``calibration``
fixture) and its own testbed, so pool workers / parallel pytest runs
cannot cross-contaminate.  Sweep-shaped benches execute through
:func:`repro.sweep.run_sweep` via :func:`run_points`.

``REPRO_JOBS=N`` runs each sweep across N worker processes
(bit-identical results — CI diffs them).
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence

import pytest

from repro.experiments.setups import Calibration
from repro.reporting import format_table
from repro.sweep import SweepPoint, run_sweep


def sweep_jobs() -> int:
    """Worker count for sweep-shaped benches (REPRO_JOBS, default 1)."""
    return max(1, int(os.environ.get("REPRO_JOBS", "1")))


def run_points(points: Sequence[SweepPoint]) -> List:
    """Execute a benchmark's sweep under the environment's knobs."""
    return run_sweep(points, jobs=sweep_jobs()).rows


@pytest.fixture
def calibration() -> Calibration:
    """A fresh calibration per test — never share one across benches."""
    return Calibration()


def print_table(title: str, rows: List[Dict], columns=None) -> None:
    """Render rows as an aligned text table under a banner."""
    print(format_table(title, rows, columns))


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
