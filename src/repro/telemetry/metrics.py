"""Hierarchically-named counters, gauges and log-bucketed histograms.

Every observability claim in the reproduction (Fig. 7a's PCIe byte
accounting, queue depths behind the throughput knees of Fig. 7b, the
retransmit behaviour of the RoCE engine) bottoms out in a number some
component increments.  The :class:`MetricsRegistry` is the single home
for those numbers:

* metrics are named hierarchically with dots (``pcie.server.nic.up.tlps``)
  so exports can be grouped per component;
* :class:`Histogram` buckets values at power-of-two boundaries — constant
  memory regardless of sample count, cheap ``observe``, and mergeable
  across experiment shards without copying samples;
* ``snapshot()``/``Snapshot.diff`` bracket a workload phase and report
  exactly what moved — the idiom the telemetry tests are written in;
* component counts are *pulled*: the owner keeps plain-int ``stats_*``
  attributes and registers one source (``register_counters``) sampled
  at export time, under ``counters`` so shards still sum; a pushed
  :class:`Counter` is for what telemetry itself produces (span sampler,
  profiler flush, ``merge_from``);
* component levels are pulled the same way: the owner keeps its level
  and high-water mark as plain ints and registers a source
  (``register_gauges``) of ``(value, peak)`` pairs, exported under
  ``gauges``; a pushed :class:`Gauge` is only what ``merge_from`` makes;
* *probes* publish point-in-time levels (cuckoo occupancy, free pool
  slots) the same lazy way, outside ``counters`` and ``gauges``;
* histograms are pushed, by components that checked
  ``telemetry.enabled`` once at construction (the span recorder and
  ``Store`` fold a sample in place, in their own frame, on their hot
  paths).

This module has no dependencies on the simulator so every layer of the
stack can import it freely.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Dict, List, Optional, Tuple


class MetricsError(RuntimeError):
    """Raised on metric name/type collisions and bad queries."""


class Counter:
    """A monotonically-increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time level (queue depth, credits, occupancy).

    Tracks the high-water mark alongside the current value because the
    peak is what sizing arguments (ring depths, SRAM budgets) need.
    """

    __slots__ = ("name", "value", "peak")

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0
        self.peak = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value}, peak={self.peak})"


class Histogram:
    """A log2-bucketed histogram of positive samples.

    Bucket ``e`` holds samples ``v`` with ``2**(e-1) < v <= 2**e`` (the
    exponent returned by :func:`math.frexp`); non-positive samples land
    in a dedicated underflow bucket.  The representation is a dict of
    bucket -> count, so two histograms merge by adding bucket counts —
    no sample buffers are kept or copied.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets",
                 "underflow")

    def __init__(self, name: str = ""):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}
        self.underflow = 0

    def observe(self, value: float) -> None:
        # SpanRecorder.end_trace and a Store hand-off repeat this update
        # inline, without the call; tests/property/test_property_fold.py
        # holds them to it.
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0:
            self.underflow += 1
            return
        exponent = math.frexp(value)[1]
        buckets = self.buckets
        if exponent in buckets:
            buckets[exponent] += 1
        else:
            buckets[exponent] = 1

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise MetricsError(f"histogram {self.name!r} has no samples")
        return self.total / self.count

    def percentile(self, pct: float) -> float:
        """Estimate a percentile by linear interpolation within a bucket.

        Resolution is the bucket width (a factor of two), which is the
        usual trade histograms like HdrHistogram's coarse mode make.
        The estimate is clamped to the observed ``[min, max]`` range so
        degenerate cases (one sample, all samples equal) come back
        exact, and extreme percentiles never escape the data.
        """
        if not 0.0 <= pct <= 100.0:
            raise MetricsError(f"percentile {pct} outside [0, 100]")
        if self.count == 0:
            raise MetricsError(f"histogram {self.name!r} has no samples")
        rank = pct / 100.0 * self.count
        seen = self.underflow
        if rank <= seen:
            if self.underflow:
                return min(0.0, self.min)
            # pct == 0 of an all-positive histogram: the observed min.
            return self.min
        for exponent in sorted(self.buckets):
            in_bucket = self.buckets[exponent]
            if rank <= seen + in_bucket:
                low = 2.0 ** (exponent - 1)
                high = 2.0 ** exponent
                frac = (rank - seen) / in_bucket
                estimate = low + (high - low) * frac
                return min(max(estimate, self.min), self.max)
            seen += in_bucket
        return self.max if self.max is not None else 0.0

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s buckets into this histogram (in place)."""
        if not isinstance(other, Histogram):
            raise MetricsError(f"cannot merge {type(other).__name__}")
        self.count += other.count
        self.total += other.total
        self.underflow += other.underflow
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for exponent, count in other.buckets.items():
            self.buckets[exponent] = self.buckets.get(exponent, 0) + count
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "underflow": self.underflow,
            # JSON object keys must be strings; exponents round-trip.
            "buckets": {str(e): c for e, c in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        histogram = cls(data.get("name", ""))
        histogram.count = data["count"]
        histogram.total = data["sum"]
        histogram.min = data["min"]
        histogram.max = data["max"]
        histogram.underflow = data.get("underflow", 0)
        histogram.buckets = {int(e): c
                             for e, c in data.get("buckets", {}).items()}
        return histogram

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count})"


def _may_share(pulled: type, pushed: type) -> bool:
    """A pulled name takes a pushed metric only as counts adding up."""
    return pulled is Counter and issubclass(pushed, Counter)


class Snapshot:
    """A frozen flat view of every scalar the registry knew at one instant."""

    __slots__ = ("values",)

    def __init__(self, values: Dict[str, float]):
        self.values = dict(values)

    def __getitem__(self, name: str) -> float:
        return self.values[name]

    def get(self, name: str, default: float = 0.0) -> float:
        return self.values.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self.values

    def diff(self, earlier: "Snapshot") -> Dict[str, float]:
        """What moved between ``earlier`` and this snapshot (delta != 0)."""
        deltas: Dict[str, float] = {}
        for name, value in self.values.items():
            delta = value - earlier.get(name, 0.0)
            if delta:
                deltas[name] = delta
        for name, value in earlier.values.items():
            if name not in self.values and value:
                deltas[name] = -value
        return deltas

    def as_dict(self) -> Dict[str, float]:
        return dict(self.values)


class MetricsRegistry:
    """Get-or-create registry of named metrics plus lazy probes."""

    enabled = True

    def __init__(self):
        self._metrics: Dict[str, Any] = {}
        self._probes: Dict[str, Callable[[], Dict[str, float]]] = {}
        self._sources: List[Tuple[str, Callable[[], Dict[str, float]]]] = []
        self._gauge_sources: List[Tuple[str, Callable[[], Dict[str, Any]]]] = []
        # Pulled name -> Counter or Gauge, the kind its sources publish.
        self._pulled_names: Dict[str, type] = {}

    # -- creation ---------------------------------------------------------

    def _check_pushable(self, name: str, cls) -> None:
        pulled = self._pulled_names.get(name)
        if pulled is not None and not _may_share(pulled, cls):
            raise MetricsError(f"metric {name!r} already registered as a "
                               f"pulled {pulled.__name__}, not "
                               f"{cls.__name__}")

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            self._check_pushable(name, cls)
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise MetricsError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def attach(self, name: str, metric) -> None:
        """Adopt an externally-built metric (no copying) under ``name``.

        This is how experiment-local collectors feed the registry: build
        a :class:`Histogram` while the run owns it, then attach it.
        """
        existing = self._metrics.get(name)
        if existing is not None and existing is not metric:
            raise MetricsError(f"metric {name!r} already registered")
        self._check_pushable(name, type(metric))
        metric.name = name
        self._metrics[name] = metric

    def register_probe(self, name: str,
                       probe: Callable[[], Dict[str, float]]) -> None:
        """Register a callable sampled at export time.

        ``probe()`` returns a flat dict; keys are published under
        ``name.<key>``.  Probes make component-internal stats (cuckoo
        kicks, pool occupancy, ring depths) visible with zero cost on
        the simulation hot path.
        """
        self._probes[name] = probe

    def register_counters(self, prefix: str,
                          source: Callable[[], Dict[str, float]]) -> None:
        """Register a callable returning the owner's plain-int counts.

        Keys are exported as counters named ``prefix.<key>``; sources
        (and a pushed :class:`Counter`, e.g. one ``merge_from`` made)
        publishing the same name add up, so a rebuilt component reads
        as one monotone count.  The source is called once here, so a
        name a gauge or histogram holds collides now, not at export.
        """
        self._pull(prefix, source, {})
        self._sources.append((prefix, source))

    def register_gauges(self, prefix: str,
                        source: Callable[[], Dict[str, Any]]) -> None:
        """Register a callable returning the owner's levels.

        ``source()`` maps each key to ``(value, peak)`` — the level now
        and its high-water mark, plain ints the owner keeps — exported
        as the gauge ``prefix.<key>``.  Sources publishing the same name
        (two NICs' queues sharing a qpn) sum their values and take the
        largest peak.  A pushed metric of a pulled gauge's name is a
        collision, raised now whichever side came first.
        """
        self._pull_gauges(prefix, source, {})
        self._gauge_sources.append((prefix, source))

    def _claim(self, name: str, kind: type) -> None:
        """Record ``name`` as pulled ``kind``, refusing a collision."""
        pulled = self._pulled_names.get(name, kind)
        held = self._metrics.get(name)
        if pulled is not kind:
            other = f"a pulled {pulled.__name__}"
        elif held is not None and not _may_share(kind, type(held)):
            other = type(held).__name__
        else:
            self._pulled_names[name] = kind
            return
        raise MetricsError(f"pulled {kind.__name__.lower()} {name!r} "
                           f"already registered as {other}")

    def _pull(self, prefix: str, source, pulled: Dict[str, float]) -> None:
        for key, value in source().items():
            name = f"{prefix}.{key}"
            self._claim(name, Counter)
            pulled[name] = pulled.get(name, 0) + value

    def _pull_gauges(self, prefix: str, source,
                     pulled: Dict[str, Tuple[float, float]]) -> None:
        for key, (value, peak) in source().items():
            name = f"{prefix}.{key}"
            self._claim(name, Gauge)
            other_value, other_peak = pulled.get(name, (0, peak))
            pulled[name] = (other_value + value, max(other_peak, peak))

    # -- export -----------------------------------------------------------

    def pulled_counters(self) -> Dict[str, float]:
        pulled: Dict[str, float] = {}
        for prefix, source in self._sources:
            self._pull(prefix, source, pulled)
        return pulled

    def pulled_gauges(self) -> Dict[str, Tuple[float, float]]:
        """Every pulled gauge as ``name -> (value, peak)``."""
        pulled: Dict[str, Tuple[float, float]] = {}
        for prefix, source in self._gauge_sources:
            self._pull_gauges(prefix, source, pulled)
        return pulled

    def sample_probes(self) -> Dict[str, float]:
        sampled: Dict[str, float] = {}
        for prefix, probe in self._probes.items():
            for key, value in probe().items():
                sampled[f"{prefix}.{key}"] = value
        return sampled

    def _flat_values(self, include_probes: bool = True) -> Dict[str, float]:
        values: Dict[str, float] = self.pulled_counters()
        for name, (value, peak) in self.pulled_gauges().items():
            values[name] = value
            values[f"{name}.peak"] = peak
        for name, metric in self._metrics.items():
            if isinstance(metric, Counter):
                values[name] = values.get(name, 0) + metric.value
            elif isinstance(metric, Gauge):
                values[name] = metric.value
                values[f"{name}.peak"] = metric.peak
            elif isinstance(metric, Histogram):
                values[f"{name}.count"] = metric.count
                values[f"{name}.sum"] = metric.total
        if include_probes:
            values.update(self.sample_probes())
        return values

    def snapshot(self, include_probes: bool = True) -> Snapshot:
        return Snapshot(self._flat_values(include_probes))

    def to_dict(self) -> Dict[str, Any]:
        """Full structured export: metrics by kind, probes sampled now."""
        counters: Dict[str, float] = self.pulled_counters()
        gauges: Dict[str, Dict[str, float]] = {
            name: {"value": value, "peak": peak}
            for name, (value, peak) in self.pulled_gauges().items()}
        histograms: Dict[str, Dict[str, Any]] = {}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Counter):
                counters[name] = counters.get(name, 0) + metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = {"value": metric.value, "peak": metric.peak}
            elif isinstance(metric, Histogram):
                histograms[name] = metric.to_dict()
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": histograms,
            "probes": dict(sorted(self.sample_probes().items())),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def merge_from(self, data: Dict[str, Any]) -> "MetricsRegistry":
        """Fold another registry's :meth:`to_dict` export into this one.

        The aggregation story for sharded experiments (sweep workers,
        per-process benchmark shards): counters add, gauges keep the
        last value but the maximum peak (a gauge a live component
        publishes is a collision: merge into a fresh registry),
        histograms merge bucket-wise
        via :meth:`Histogram.merge`.  Probe samples are point-in-time
        readings of live objects in the exporting process and have no
        meaningful aggregate, so they are ignored.
        """
        for name, value in data.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, gauge_data in data.get("gauges", {}).items():
            gauge = self.gauge(name)
            gauge.set(gauge_data.get("value", 0))
            peak = gauge_data.get("peak", 0)
            if peak > gauge.peak:
                gauge.peak = peak
        for name, histogram_data in data.get("histograms", {}).items():
            if histogram_data:
                self.histogram(name).merge(
                    Histogram.from_dict(histogram_data))
        return self

    def names(self) -> List[str]:
        return sorted({*self._metrics, *self.pulled_counters(),
                       *self.pulled_gauges()})

    def __contains__(self, name: str) -> bool:
        return (name in self._metrics or name in self.pulled_counters()
                or name in self.pulled_gauges())

    def __len__(self) -> int:
        return len(self.names())
