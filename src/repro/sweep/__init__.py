"""Parallel sweep execution.

Every figure and table in the reproduction is an aggregation over
*sweep points*: independent (experiment, parameters, seed) simulations
that share no state.  :func:`run_sweep` is a seeded parallel map over
them:

* each point reseeds the global ``random`` module from its own
  identity, never from interpreter state, so a run is a pure function
  of the point list;
* ``jobs=N`` fans the points out across a ``multiprocessing`` pool,
  bit-identical to a serial run;
* per-point telemetry exports are merged back, in point order, into
  one :class:`~repro.telemetry.metrics.MetricsRegistry` via
  ``Histogram.merge``/``MetricsRegistry.merge_from``.

Experiment modules declare their sweeps as picklable
:class:`SweepPoint` lists (see ``repro.experiments.*``); the CLI
(``python -m repro figures --jobs 4``), the benchmark suite and the
regression tests all consume the same lists through the same runner.
"""

from .points import (
    SEED_SCHEMA_VERSION,
    SEED_VERSION,
    SweepError,
    SweepPoint,
    canonical_params,
    point_seed,
    resolve_target,
    seed_payload_key,
)
from .runner import SweepResult, run_sweep

__all__ = [
    "SweepError",
    "SweepPoint",
    "SweepResult",
    "SEED_SCHEMA_VERSION",
    "SEED_VERSION",
    "canonical_params",
    "point_seed",
    "resolve_target",
    "run_sweep",
    "seed_payload_key",
]
