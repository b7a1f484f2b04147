"""Deterministic simulator profiler: per-event / per-stage cost attribution.

The profiler answers the question ROADMAP item 1 needs answered before the
event-engine rearchitecture: *which* heap events, handlers and pipeline
stages burn the ~32 events that every delivered packet currently costs.

Design mirrors the rest of the telemetry stack:

* :class:`SimProfiler` is handed to the engine through
  ``Telemetry(profile=True)``; :data:`NULL_PROFILER` is the shared no-op
  twin.  The engine has one set of scheduling entry points and one run
  loop: with the null profiler :meth:`SimProfiler.account` is never
  called, so profiled, disabled and untraced runs share one
  ``(time, seq)`` schedule (pinned by ``tests/identity``).
* **Event accounting** is deterministic: each dispatch files under its
  callable's owner, ``func.__self__.profile_tag`` (:func:`owner_tag`),
  read when the entry is dispatched — a component's tag is fixed when
  it is built, so nothing is worked out per push.  A callable with no
  tagged owner files under ``unowned:<its __qualname__>``, whoever
  pushed it.  Dispatch bumps one counter per tag, so per-tag counts sum
  *exactly* to the engine's total event count.
* **Stage classification** maps tags onto the paper's pipeline stages
  (host driver, PCIe fabric, NIC queues/rdma/shaper, wire, FLD tx/rx,
  accelerator, application).  Components may :meth:`declare` explicit
  prefix rules; undeclared tags fall through to built-in heuristics and
  finally to ``other`` — classification is total, so stage sums equal
  the total event count too.
* **Wall-clock attribution** (``wallclock=True``) additionally times each
  handler with ``perf_counter`` and aggregates per ``(tag, callsite)``.
  Wall times are machine-dependent and are therefore *never* flushed
  into the metrics registry (which must stay bit-identical across sweep
  workers); only event counts are.
* The **heap-depth timeline** samples queue depth every
  ``depth_sample_every`` dispatches; when the sample buffer fills it is
  compacted deterministically (drop every other sample, double the
  interval), so the timeline is identical for identical runs.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

#: Collapsed-stack separator (flamegraph.pl / speedscope compatible).
_FRAME_SEP = ";"

#: Built-in tag → stage heuristics, checked in order after declared rules.
#: Substring fragments first (most specific), then prefix/name rules.
_BUILTIN_FRAGMENTS: Tuple[Tuple[str, str], ...] = (
    (".shaper", "nic.shaper"),
    (".rdma", "nic.rdma"),
    (".wire", "wire"),
    (".kdriver", "host"),
    (".mem", "host"),
    (".fe", "accel"),
    (".unit", "accel"),
    (".demux", "accel"),
    (".core", "accel"),
    (".nic", "nic.queues"),
)

#: Prefix of the tag an owner-less callable files under.
UNOWNED = "unowned:"

#: Process names spawned by experiment drivers / load generators.
_APP_NAMES = frozenset({
    "run", "runner", "drive", "sender", "receiver", "_sender",
    "put", "process", "echo.tx", "mediated.relay",
})


def owner_tag(func) -> str:
    """The tag a dispatch of ``func`` files under: its owner's
    ``profile_tag`` (``func.__self__``; an owner may resolve it through
    a callable it carries), else ``unowned:`` + ``func``'s qualname."""
    tag = getattr(getattr(func, "__self__", None), "profile_tag", None)
    if tag is None:
        return UNOWNED + getattr(func, "__qualname__",
                                 type(func).__qualname__)
    return tag


class SimProfiler:
    """Deterministic per-event accounting for one simulation run."""

    enabled = True

    def __init__(self, wallclock: bool = False,
                 depth_sample_every: int = 1024,
                 max_depth_samples: int = 4096,
                 registry=None):
        self.wallclock = wallclock
        self.registry = registry
        self.total_events = 0
        self.event_counts: Dict[str, int] = {}
        #: ``(tag, callsite) -> [seconds, events]`` — wallclock mode only.
        self.wall_times: Dict[Tuple[str, str], List[float]] = {}
        self.depth_every = depth_sample_every
        self.max_depth_samples = max_depth_samples
        #: ``(event_index, heap_depth)`` samples, deterministic.
        self.depth_samples: List[Tuple[int, int]] = []
        self._rules: List[Tuple[str, str]] = []  # (prefix, stage), longest first
        self._stage_cache: Dict[str, str] = {}
        self._flushed: Dict[str, int] = {}
        self._flushed_total = 0
        # Wallclock mode: the dispatch being timed and when it began.
        self._wall_key: Optional[Tuple[str, str]] = None
        self._wall_started = 0.0

    # -- stage classification -------------------------------------------

    def declare(self, prefix: str, stage: str) -> None:
        """Register an explicit tag-prefix → stage rule.

        Longest declared prefix wins; declared rules beat the built-in
        heuristics.  Re-declaring the same prefix overwrites.
        """
        for i, (pfx, _) in enumerate(self._rules):
            if pfx == prefix:
                self._rules[i] = (prefix, stage)
                break
        else:
            self._rules.append((prefix, stage))
        self._rules.sort(key=lambda r: -len(r[0]))
        self._stage_cache.clear()

    def classify(self, tag: str) -> str:
        """Map a tag to a pipeline stage.  Total: never raises."""
        stage = self._stage_cache.get(tag)
        if stage is None:
            stage = self._classify_uncached(tag)
            self._stage_cache[tag] = stage
        return stage

    def _classify_uncached(self, tag: str) -> str:
        if tag.startswith(UNOWNED):
            return "other"
        for prefix, stage in self._rules:
            if tag.startswith(prefix):
                return stage
        if tag.startswith("pcie"):
            return "pcie"
        for fragment, stage in _BUILTIN_FRAGMENTS:
            if fragment in tag:
                return stage
        if tag.startswith("ethqp") or tag.startswith("rc"):
            return "host"
        if tag.startswith("mediated"):
            return "host"
        if tag in _APP_NAMES:
            return "app"
        return "other"

    # -- recording (called from the engine's run loop) -------------------

    def account(self, func, depth: int) -> None:
        """The engine is about to dispatch ``func`` with ``depth``
        entries still pending.

        Counts the event under ``func``'s :func:`owner_tag`, samples the
        heap depth on a fixed event cadence and (wallclock mode) times
        the dispatch: its interval runs until the next :meth:`account`
        or :meth:`end_run`.
        """
        tag = owner_tag(func)
        counts = self.event_counts
        counts[tag] = counts.get(tag, 0) + 1
        self.total_events = index = self.total_events + 1
        if index % self.depth_every == 0:
            self.record_depth(index, depth)
        if self.wallclock:
            self._wall_mark(
                (tag, getattr(func, "__qualname__", repr(func))))

    def _wall_mark(self, key: Optional[Tuple[str, str]]) -> None:
        now = perf_counter()
        open_key = self._wall_key
        if open_key is not None:
            elapsed = now - self._wall_started
            acc = self.wall_times.get(open_key)
            if acc is None:
                self.wall_times[open_key] = [elapsed, 1]
            else:
                acc[0] += elapsed
                acc[1] += 1
        self._wall_key = key
        self._wall_started = now

    def end_run(self) -> None:
        """:meth:`Simulator.run` returned: close the open wall interval
        and sync the registry."""
        if self._wall_key is not None:
            self._wall_mark(None)
        self.flush()

    def record_depth(self, index: int, depth: int) -> None:
        """Append one heap-depth sample, compacting deterministically."""
        samples = self.depth_samples
        samples.append((index, depth))
        if len(samples) >= self.max_depth_samples:
            # Keep every other sample and double the interval: the
            # timeline stays bounded and identical for identical runs.
            del samples[1::2]
            self.depth_every *= 2

    # -- aggregation ----------------------------------------------------

    def stage_counts(self) -> Dict[str, int]:
        """Per-stage event counts; values sum to :attr:`total_events`."""
        out: Dict[str, int] = {}
        for tag, count in self.event_counts.items():
            stage = self.classify(tag)
            out[stage] = out.get(stage, 0) + count
        return dict(sorted(out.items(), key=lambda kv: (-kv[1], kv[0])))

    def top_tags(self, n: int = 20) -> List[Tuple[str, int]]:
        ranked = sorted(self.event_counts.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]

    def top_callsites(self, n: int = 20) -> List[Dict[str, Any]]:
        """Hottest ``(tag, callsite)`` pairs by wall seconds (wallclock
        mode) — empty when wall-clock attribution is off."""
        ranked = sorted(self.wall_times.items(),
                        key=lambda kv: (-kv[1][0], kv[0]))
        return [
            {"tag": tag, "callsite": callsite,
             "seconds": acc[0], "events": int(acc[1]),
             "stage": self.classify(tag)}
            for (tag, callsite), acc in ranked[:n]
        ]

    def collapsed_stacks(self) -> List[str]:
        """Flamegraph-compatible ``stage;tag;callsite <count>`` lines.

        Counts are wall-clock microseconds in wallclock mode (what a
        flamegraph of handler cost wants), else event counts.
        """
        lines: List[str] = []
        if self.wall_times:
            for (tag, callsite), (seconds, _events) in sorted(
                    self.wall_times.items()):
                weight = int(round(seconds * 1e6))
                if weight <= 0:
                    continue
                stack = _FRAME_SEP.join(
                    (self.classify(tag), tag, callsite))
                lines.append(f"{stack} {weight}")
        else:
            for tag, count in sorted(self.event_counts.items()):
                stack = _FRAME_SEP.join((self.classify(tag), tag))
                lines.append(f"{stack} {count}")
        return lines

    # -- registry integration -------------------------------------------

    def flush(self) -> None:
        """Sync event counts into the metrics registry as counters.

        Delta-based so repeated ``run()`` calls don't double-count.
        Deliberately excludes wall-clock numbers: registry exports must
        be bit-identical across sweep workers and machines.
        """
        registry = self.registry
        if registry is None:
            return
        delta_total = self.total_events - self._flushed_total
        if delta_total:
            registry.counter("profile.events.total").inc(delta_total)
            self._flushed_total = self.total_events
        for stage, count in self.stage_counts().items():
            done = self._flushed.get(stage, 0)
            if count != done:
                registry.counter(f"profile.stage.{stage}.events").inc(
                    count - done)
                self._flushed[stage] = count

    # -- reporting ------------------------------------------------------

    def report(self, delivered: Optional[int] = None) -> Dict[str, Any]:
        """A JSON-ready summary of everything recorded."""
        total = self.total_events
        stages = self.stage_counts()
        doc: Dict[str, Any] = {
            "schema": 1,
            "wallclock": self.wallclock,
            "total_events": total,
            "stages": {
                stage: {
                    "events": count,
                    "share": (count / total) if total else 0.0,
                }
                for stage, count in stages.items()
            },
            "tags": [
                {"tag": tag, "events": count, "stage": self.classify(tag)}
                for tag, count in self.top_tags(40)
            ],
            "heap_depth": {
                "sample_every": self.depth_every,
                "max": max((d for _, d in self.depth_samples), default=0),
                "samples": [list(s) for s in self.depth_samples],
            },
        }
        if delivered is not None:
            doc["delivered"] = delivered
            doc["events_per_packet"] = (total / delivered) if delivered else 0.0
        if self.wallclock:
            doc["wall"] = {
                "seconds": sum(acc[0] for acc in self.wall_times.values()),
                "top": self.top_callsites(40),
            }
            doc["collapsed"] = self.collapsed_stacks()
        return doc

    def render(self, delivered: Optional[int] = None, top: int = 10) -> str:
        """Human-readable top-N tables."""
        total = self.total_events
        lines = [f"total heap events: {total}"]
        if delivered:
            lines.append(
                f"delivered packets: {delivered} "
                f"({total / delivered:.2f} events/packet)")
        lines.append("")
        lines.append("per-stage event counts")
        lines.append(f"  {'stage':<12} {'events':>10} {'share':>7}")
        stage_sum = 0
        for stage, count in self.stage_counts().items():
            stage_sum += count
            share = (count / total * 100) if total else 0.0
            lines.append(f"  {stage:<12} {count:>10} {share:>6.1f}%")
        assert stage_sum == total, (stage_sum, total)
        lines.append("")
        lines.append(f"top {top} tags by events")
        lines.append(f"  {'tag':<28} {'stage':<12} {'events':>10}")
        for tag, count in self.top_tags(top):
            lines.append(f"  {tag:<28} {self.classify(tag):<12} {count:>10}")
        if self.wallclock and self.wall_times:
            lines.append("")
            lines.append(f"top {top} callsites by wall clock")
            lines.append(f"  {'tag':<24} {'callsite':<36} "
                         f"{'ms':>9} {'events':>9}")
            for row in self.top_callsites(top):
                lines.append(
                    f"  {row['tag']:<24} {row['callsite']:<36} "
                    f"{row['seconds'] * 1e3:>9.3f} {row['events']:>9}")
        if self.depth_samples:
            peak = max(d for _, d in self.depth_samples)
            lines.append("")
            lines.append(
                f"heap depth: {len(self.depth_samples)} samples "
                f"(every {self.depth_every} events), peak {peak}")
        return "\n".join(lines)


class NullSimProfiler:
    """The disabled profiler: API parity, does nothing, shared singleton."""

    enabled = False
    wallclock = False
    registry = None
    total_events = 0
    event_counts: Dict[str, int] = {}
    wall_times: Dict[Tuple[str, str], List[float]] = {}
    depth_samples: List[Tuple[int, int]] = []
    depth_every = 0
    max_depth_samples = 0

    def declare(self, prefix: str, stage: str) -> None:
        pass

    def classify(self, tag: str) -> str:
        return "other"

    def account(self, func, depth: int) -> None:
        pass

    def end_run(self) -> None:
        pass

    def record_depth(self, index: int, depth: int) -> None:
        pass

    def stage_counts(self) -> Dict[str, int]:
        return {}

    def top_tags(self, n: int = 20) -> List[Tuple[str, int]]:
        return []

    def top_callsites(self, n: int = 20) -> List[Dict[str, Any]]:
        return []

    def collapsed_stacks(self) -> List[str]:
        return []

    def flush(self) -> None:
        pass

    def report(self, delivered: Optional[int] = None) -> Dict[str, Any]:
        return {}

    def render(self, delivered: Optional[int] = None, top: int = 10) -> str:
        return ""


NULL_PROFILER = NullSimProfiler()
