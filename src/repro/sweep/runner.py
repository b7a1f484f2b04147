"""Execute sweep points serially or across a process pool.

The contract that everything else leans on: **the output is a pure
function of the point list**.  Guarantees, in order of load-bearing:

* results come back in point order, regardless of completion order;
* each point runs with the global ``random`` module seeded from the
  point's own identity (:meth:`repro.sweep.points.SweepPoint.seed`),
  so a worker process and an in-process run produce identical bytes;
* results are canonicalized through a JSON round-trip, so a point that
  returns something JSON cannot hold fails loudly;
* telemetry exports merge in point order, keeping float accumulation
  deterministic even though workers finish in arbitrary order.
"""

from __future__ import annotations

import json
import multiprocessing
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..telemetry.metrics import MetricsRegistry
from .points import SweepPoint, resolve_target


def _execute_point(point: SweepPoint) -> Tuple[Any, Optional[Dict]]:
    """Run one point: seed, call the target, canonicalize the result.

    This is the single choke point both the serial path and the pool
    workers go through — tests monkeypatch or count it, and any future
    instrumentation belongs here.
    """
    func = resolve_target(point.target)
    kwargs = dict(point.params)
    metrics_export: Optional[Dict] = None
    telemetry = None
    if point.telemetry:
        from ..telemetry.sink import Telemetry
        # "spans" turns on per-packet span trees; finished traces feed
        # spans.* histograms in the registry, so the export carries the
        # latency attribution.  "profile" turns on the simulator
        # profiler; event counts flush into profile.* counters
        # (wall-clock timing stays off — registry exports must be
        # machine-independent).
        telemetry = Telemetry(trace=False,
                              spans=(point.telemetry == "spans"),
                              profile=(point.telemetry == "profile"))
        kwargs["telemetry"] = telemetry
    # Deterministic per-point seeding: the global RNG is the only
    # simulator-visible nondeterminism (e.g. Flow IP idents), and it is
    # reset from the point's identity so serial == parallel.
    random.seed(point.seed())
    result = func(**kwargs)
    if telemetry is not None:
        metrics_export = telemetry.metrics.to_dict()
    # JSON round-trip: tuples become lists and NaN or a non-JSON value
    # is rejected, so every row is plain data that pickles back from a
    # worker and renders the same from --jobs 1 and --jobs N.
    try:
        result = json.loads(json.dumps(result, allow_nan=False))
    except (TypeError, ValueError) as exc:
        raise RuntimeError(
            f"sweep point {point.label()} returned a result that does "
            f"not round-trip through JSON: {exc}") from exc
    return result, metrics_export


@dataclass
class SweepResult:
    """What a sweep produced: rows in point order, merged telemetry."""

    rows: List[Any] = field(default_factory=list)
    metrics: Optional[MetricsRegistry] = None

    @property
    def points(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        return self.rows[index]


def _pool_context():
    """Prefer fork (fast, inherits sys.path/imports); fall back to the
    platform default where fork does not exist."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_sweep(points: Sequence[SweepPoint], jobs: int = 1) -> SweepResult:
    """Run ``points``, returning results in point order.

    ``jobs``
        1 runs in-process; N > 1 fans the points out over a
        ``multiprocessing`` pool of N workers.  The output is
        bit-identical either way.

    When at least one point exports metrics, their exports merge into
    a fresh registry, returned as ``SweepResult.metrics``.
    """
    points = list(points)
    jobs = max(1, int(jobs))
    if jobs == 1 or len(points) <= 1:
        outcomes = [_execute_point(point) for point in points]
    else:
        pool = _pool_context().Pool(processes=min(jobs, len(points)))
        try:
            # map returns in point order whatever order workers finish.
            outcomes = pool.map(_execute_point, points, chunksize=1)
        finally:
            pool.close()
            pool.join()

    # Merge telemetry in point order (commutative counters, but float
    # addition order still matters for bit-identity).
    registry = None
    exports = [export for _, export in outcomes if export]
    if exports:
        registry = MetricsRegistry()
        for export in exports:
            registry.merge_from(export)
    return SweepResult(rows=[row for row, _ in outcomes], metrics=registry)
