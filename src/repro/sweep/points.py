"""Sweep points: picklable units of work with content-addressed keys.

A :class:`SweepPoint` names a module-level callable (``target``,
written ``"package.module:function"``) and the keyword arguments to
call it with.  Everything about the point — its cache key, its RNG
seed — derives from that identity, so two processes that agree on the
point agree on the result.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

#: Bump when the meaning of cached results changes (result schema,
#: seeding scheme, calibration defaults).  Combined with the package
#: version so releases invalidate stale caches automatically.
#: v2: telemetry mode joined the cache key (a metrics-only entry no
#: longer satisfies a span-instrumented request).
#: v3: the serialized topology spec joined the cache key, so cached
#: points are addressed by the testbed shape they ran on.
SWEEP_SCHEMA_VERSION = 3

#: The schema the RNG *seed* derivation is frozen at.  Seeds must stay
#: stable across cache-schema bumps — they define the simulated bytes,
#: and the ``golden/*`` fingerprints (tests/golden/fingerprints.json)
#: pin results produced under schema 2.  Cache addressing evolves; the
#: seed payload does not.
SEED_SCHEMA_VERSION = 2


class SweepError(RuntimeError):
    """Raised for malformed points, targets or parameters."""


def _repro_version() -> str:
    from .. import __version__
    return __version__


def canonical_params(params: Dict[str, Any]) -> str:
    """A canonical JSON encoding of ``params``.

    Key order never matters: ``{"a": 1, "b": 2}`` and the same dict
    built in the opposite insertion order produce the same string
    (``sort_keys`` applies recursively).  Only JSON-representable
    values are allowed — a param that cannot round-trip through JSON
    would make the cache key ambiguous.
    """
    try:
        return json.dumps(params, sort_keys=True,
                          separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise SweepError(
            f"sweep params must be JSON-representable: {exc}") from exc


def cache_key(experiment: str, target: str, params: Dict[str, Any],
              version: Optional[str] = None,
              telemetry: Any = False,
              topology: Optional[Dict[str, Any]] = None) -> str:
    """The content address of one sweep point.

    sha256 over (experiment, target, canonical params, repro version,
    sweep schema version, telemetry mode, and — when the point declares
    one — the canonical serialized topology).  Any change to the
    parameters or to the code version yields a new key; reordering the
    params dict does not.  The telemetry mode is part of the key
    because it changes what the cached entry *contains*: a point run
    without span tracing must not satisfy a ``telemetry="spans"``
    request whose merged report depends on the ``spans.*`` histograms.
    The topology is part of the key because the same target + params
    can elaborate different testbed shapes (``scale-tenants`` tenant
    mixes): a cached result is only valid for the shape it ran on.
    """
    version = version if version is not None else _repro_version()
    parts = [
        experiment,
        target,
        canonical_params(params),
        str(version),
        str(SWEEP_SCHEMA_VERSION),
        str(telemetry),
    ]
    if topology is not None:
        parts.append(canonical_params(topology))
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()


def seed_payload_key(experiment: str, target: str, params: Dict[str, Any],
                     version: Optional[str] = None,
                     telemetry: Any = False) -> str:
    """The digest the per-point RNG seed derives from.

    Identical to the schema-2 :func:`cache_key` payload and frozen
    there on purpose: the seed determines the simulated bytes, so it
    must not move when cache *addressing* evolves (schema bumps, the
    topology joining the key).  The topology is deliberately excluded —
    it is derived from the params, so including it would change every
    seed the moment a builder adds a field to its spec.
    """
    version = version if version is not None else _repro_version()
    payload = "\x00".join([
        experiment,
        target,
        canonical_params(params),
        str(version),
        str(SEED_SCHEMA_VERSION),
        str(telemetry),
    ])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def point_seed(key: str) -> int:
    """Derive the point's RNG seed from its cache key.

    Seeding from the key (not from wall clock, worker id or submission
    order) is what makes ``--jobs N`` bit-identical to ``--jobs 1``:
    whichever process runs the point, the global ``random`` module is
    reset to the same state first.
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
        the cache key and of progress reporting.
    ``target``
        Dotted path of a module-level callable,
        ``"repro.experiments.echo:echo_throughput"``.  Referencing by
        path keeps points picklable and keeps the cache key independent
        of pickle details.
    ``params``
        Keyword arguments for the target; must round-trip through JSON.
    ``telemetry``
        When truthy the runner constructs a metrics-only
        :class:`~repro.telemetry.sink.Telemetry`, passes it as the
        ``telemetry=`` kwarg, and merges the export into the sweep's
        registry (cached alongside the result, so warm runs merge too).
        The string ``"spans"`` additionally turns on per-packet span
        tracing, so the export carries the ``spans.stage.*``
        attribution histograms (``python -m repro latency --sweep``).
    ``topology``
        The serialized :class:`repro.topology.TopologySpec` the target
        elaborates (``spec.to_dict()``), when the experiment builds
        through the topology layer.  Joins the cache key — cached
        results are addressed by the shape they ran on — but not the
        seed (the seed payload is frozen at schema 2; see
        :func:`seed_payload_key`).
    """

    experiment: str
    target: str
    params: Dict[str, Any] = field(default_factory=dict)
    telemetry: Any = False
    topology: Optional[Dict[str, Any]] = None

    def key(self, version: Optional[str] = None) -> str:
        return cache_key(self.experiment, self.target, self.params,
                         version, telemetry=self.telemetry,
                         topology=self.topology)

    def seed(self, version: Optional[str] = None) -> int:
        return point_seed(seed_payload_key(
            self.experiment, self.target, self.params, version,
            telemetry=self.telemetry))

    def label(self) -> str:
        """A short human-readable identity for progress/errors."""
        parts = ", ".join(f"{k}={v!r}" for k, v in
                          sorted(self.params.items()))
        return f"{self.experiment}({parts})"
