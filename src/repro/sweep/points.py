"""Sweep points: picklable units of work with content-derived seeds.

A :class:`SweepPoint` names a module-level callable (``target``,
written ``"package.module:function"``) and the keyword arguments to
call it with.  Its RNG seed derives from that identity alone, so two
processes that agree on the point agree on the result.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict

#: The version string every seed payload hashes.  Frozen: the seed
#: defines the simulated bytes, and the ``golden/*`` fingerprints
#: (tests/golden/fingerprints.json) pin results produced under it, so
#: a package release must not reseed every point.
SEED_VERSION = "1.1.0"

#: The schema the seed payload is frozen at (see :data:`SEED_VERSION`).
SEED_SCHEMA_VERSION = 2


class SweepError(RuntimeError):
    """Raised for malformed points, targets or parameters."""


def canonical_params(params: Dict[str, Any]) -> str:
    """A canonical JSON encoding of ``params``.

    Key order never matters: ``{"a": 1, "b": 2}`` and the same dict
    built in the opposite insertion order produce the same string
    (``sort_keys`` applies recursively).  Only JSON-representable
    values are allowed — a param that cannot round-trip through JSON
    would make the seed ambiguous.
    """
    try:
        return json.dumps(params, sort_keys=True,
                          separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise SweepError(
            f"sweep params must be JSON-representable: {exc}") from exc


def seed_payload_key(experiment: str, target: str, params: Dict[str, Any],
                     telemetry: Any = False) -> str:
    """The digest the per-point RNG seed derives from.

    sha256 over (experiment, target, canonical params,
    :data:`SEED_VERSION`, :data:`SEED_SCHEMA_VERSION`, telemetry mode).
    Reordering the params dict does not change it; any other change to
    the point does.
    """
    payload = "\x00".join([
        experiment,
        target,
        canonical_params(params),
        SEED_VERSION,
        str(SEED_SCHEMA_VERSION),
        str(telemetry),
    ])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def point_seed(key: str) -> int:
    """Derive the point's RNG seed from its seed payload digest.

    Seeding from the point's identity (not from wall clock, worker id
    or submission order) is what makes ``--jobs N`` bit-identical to
    ``--jobs 1``: whichever process runs the point, the global
    ``random`` module is reset to the same state first.
    """
    return int(key[:16], 16)


def resolve_target(target: str) -> Callable[..., Any]:
    """Import ``"package.module:function"`` and return the callable."""
    module_name, _, func_name = target.partition(":")
    if not module_name or not func_name:
        raise SweepError(
            f"target {target!r} must look like 'package.module:function'")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise SweepError(f"cannot import target module "
                         f"{module_name!r}: {exc}") from exc
    func = getattr(module, func_name, None)
    if not callable(func):
        raise SweepError(f"target {target!r} does not name a callable")
    return func


@dataclass
class SweepPoint:
    """One independent simulation in a sweep.

    ``experiment``
        The figure/table this point belongs to (``"fig7b"``); part of
        the seed and of error labels.
    ``target``
        Dotted path of a module-level callable,
        ``"repro.experiments.echo:echo_throughput"``.  Referencing by
        path keeps points picklable.
    ``params``
        Keyword arguments for the target; must round-trip through JSON.
    ``telemetry``
        When truthy the runner constructs a metrics-only
        :class:`~repro.telemetry.sink.Telemetry`, passes it as the
        ``telemetry=`` kwarg, and merges the export into the sweep's
        registry.  The string ``"spans"`` additionally turns on
        per-packet span tracing, so the export carries the
        ``spans.stage.*`` attribution histograms (``python -m repro
        latency --sweep``).
    """

    experiment: str
    target: str
    params: Dict[str, Any] = field(default_factory=dict)
    telemetry: Any = False

    def seed(self) -> int:
        return point_seed(seed_payload_key(
            self.experiment, self.target, self.params,
            telemetry=self.telemetry))

    def label(self) -> str:
        """A short human-readable identity for errors."""
        parts = ", ".join(f"{k}={v!r}" for k, v in
                          sorted(self.params.items()))
        return f"{self.experiment}({parts})"
