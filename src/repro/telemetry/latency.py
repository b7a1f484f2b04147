"""Table-6-style latency attribution reports from span trees.

Turns a :class:`~repro.telemetry.spans.SpanRecorder` full of finished
traces into a per-stage latency breakdown: for every datapath stage the
packets crossed, p50/p99/max of the time attributed to it, split into
*queueing* (waiting for a resource) versus *service* (being worked on).
The per-trace attribution comes from
:func:`~repro.telemetry.spans.attribute_trace`, which partitions the
root interval exactly — so for every traced packet the stage sums (plus
the unattributed residue) reconcile with its end-to-end latency.

Two sources feed the same report shape:

* :func:`build_report` — exact, from the raw traces of one
  instrumented run (the ``python -m repro latency`` path);
* :func:`report_from_registry` — approximate (log2-bucket
  percentiles), from the ``spans.stage.*`` histograms a run feeds into
  its metrics registry.  Because those histograms ride the standard
  :meth:`MetricsRegistry.merge_from` aggregation, this path merges
  attribution across sweep points (:func:`repro.sweep.run_sweep`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .metrics import MetricsRegistry
from .spans import SpanRecorder, attribute_trace

__all__ = ["STAGE_ORDER", "build_report", "report_from_registry",
           "render_report"]

#: Canonical datapath ordering for report rows (Table-6 style: the
#: stages appear in the order a request traverses them).  Stages not
#: listed here sort after, alphabetically.
STAGE_ORDER = [
    "host.tx",
    "pcie.doorbell",
    "pcie.wqe_fetch",
    "nic.tx",
    "pcie.dma_read",
    "nic.shaper",
    "rdma",
    "wire",
    "nic.rx",
    "pcie.dma_write",
    "fld.rx",
    "accel",
    "fld.tx",
    "pcie.cqe_write",
    "host.rx",
]

_UNATTRIBUTED = "(unattributed)"


def _stage_sort_key(stage: str, kind: str) -> Tuple:
    try:
        position = (0, STAGE_ORDER.index(stage))
    except ValueError:
        position = (1, 0)
    # Queue wait precedes service within a stage.
    return (*position, stage, 0 if kind == "queue" else 1)


def _exact_percentile(ordered: List[float], pct: float) -> float:
    """Linear-interpolated percentile of an already-sorted list."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = pct / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * frac


def build_report(spans: SpanRecorder,
                 registry: Optional[MetricsRegistry] = None
                 ) -> Dict[str, Any]:
    """Exact attribution report from one run's finished traces.

    Returns a JSON-ready dict; see :func:`render_report` for the text
    rendering.  ``reconciliation.max_error`` is the worst per-trace
    relative difference between the attributed stage sums and the
    end-to-end duration — by construction it should sit at float
    epsilon, and the acceptance bar is 1%.  ``registry`` is accepted so
    callers can name the pairing; the recorder already fed it.
    """
    per_stage: Dict[Tuple[str, str], List[float]] = {}
    e2e: List[float] = []
    unattributed: List[float] = []
    max_error = 0.0
    finished = spans.finished_traces()
    for trace in finished:
        totals, residue = attribute_trace(trace)
        duration = trace.end - trace.start
        e2e.append(duration)
        unattributed.append(residue)
        attributed_sum = sum(totals.values()) + residue
        if duration > 0:
            error = abs(attributed_sum - duration) / duration
            if error > max_error:
                max_error = error
        for key, seconds in totals.items():
            per_stage.setdefault(key, []).append(seconds)

    rows: List[Dict[str, Any]] = []
    total_mean = sum(e2e) / len(e2e) if e2e else 0.0
    ordered_keys = sorted(per_stage, key=lambda k: _stage_sort_key(*k))
    for stage, kind in ordered_keys:
        values = sorted(per_stage[(stage, kind)])
        mean = sum(values) / len(values)
        rows.append({
            "stage": stage,
            "kind": kind,
            "count": len(values),
            "p50_us": _exact_percentile(values, 50) * 1e6,
            "p99_us": _exact_percentile(values, 99) * 1e6,
            "max_us": values[-1] * 1e6,
            "mean_us": mean * 1e6,
            "share_pct": (100.0 * mean / total_mean
                          if total_mean > 0 else 0.0),
        })
    if any(unattributed):
        values = sorted(unattributed)
        mean = sum(values) / len(values)
        rows.append({
            "stage": _UNATTRIBUTED,
            "kind": "-",
            "count": len(values),
            "p50_us": _exact_percentile(values, 50) * 1e6,
            "p99_us": _exact_percentile(values, 99) * 1e6,
            "max_us": values[-1] * 1e6,
            "mean_us": mean * 1e6,
            "share_pct": (100.0 * mean / total_mean
                          if total_mean > 0 else 0.0),
        })

    ordered_e2e = sorted(e2e)
    report = {
        "source": "traces",
        "traces": len(finished),
        "unfinished": len(spans.unfinished_traces()),
        "orphaned_spans": len(spans.orphan_spans()),
        "stages": rows,
        "e2e": {
            "count": len(ordered_e2e),
            "p50_us": _exact_percentile(ordered_e2e, 50) * 1e6,
            "p99_us": _exact_percentile(ordered_e2e, 99) * 1e6,
            "max_us": (ordered_e2e[-1] * 1e6 if ordered_e2e else 0.0),
            "mean_us": total_mean * 1e6,
        },
        "reconciliation": {
            "max_error": max_error,
            "within_1pct": max_error <= 0.01,
        },
    }
    return report


_STAGE_PREFIX = "spans.stage."


def report_from_registry(registry: MetricsRegistry) -> Dict[str, Any]:
    """Approximate attribution report from merged stage histograms.

    The inverse of the recorder's aggregation: reads every
    ``spans.stage.<stage>.<kind>`` histogram (plus ``spans.e2e`` and
    ``spans.unattributed``) and estimates percentiles with
    :meth:`Histogram.percentile`.  Works on a registry assembled by
    ``run_sweep`` — i.e. merged across sweep points.
    """
    keys: List[Tuple[str, str]] = []
    for name in registry.names():
        if not name.startswith(_STAGE_PREFIX):
            continue
        remainder = name[len(_STAGE_PREFIX):]
        stage, _, kind = remainder.rpartition(".")
        if stage:
            keys.append((stage, kind))
    keys.sort(key=lambda k: _stage_sort_key(*k))

    e2e_mean = 0.0
    if "spans.e2e" in registry:
        hist = registry.histogram("spans.e2e")
        if hist.count:
            e2e_mean = hist.mean

    rows: List[Dict[str, Any]] = []
    for stage, kind in keys:
        hist = registry.histogram(f"{_STAGE_PREFIX}{stage}.{kind}")
        if not hist.count:
            continue
        rows.append({
            "stage": stage,
            "kind": kind,
            "count": hist.count,
            "p50_us": hist.percentile(50) * 1e6,
            "p99_us": hist.percentile(99) * 1e6,
            "max_us": hist.max * 1e6,
            "mean_us": hist.mean * 1e6,
            "share_pct": (100.0 * hist.mean / e2e_mean
                          if e2e_mean > 0 else 0.0),
        })
    if "spans.unattributed" in registry:
        hist = registry.histogram("spans.unattributed")
        if hist.count and hist.total > 0:
            rows.append({
                "stage": _UNATTRIBUTED,
                "kind": "-",
                "count": hist.count,
                "p50_us": hist.percentile(50) * 1e6,
                "p99_us": hist.percentile(99) * 1e6,
                "max_us": hist.max * 1e6,
                "mean_us": hist.mean * 1e6,
                "share_pct": (100.0 * hist.mean / e2e_mean
                              if e2e_mean > 0 else 0.0),
            })

    report: Dict[str, Any] = {
        "source": "registry",
        "stages": rows,
    }
    if "spans.e2e" in registry:
        hist = registry.histogram("spans.e2e")
        if hist.count:
            report["e2e"] = {
                "count": hist.count,
                "p50_us": hist.percentile(50) * 1e6,
                "p99_us": hist.percentile(99) * 1e6,
                "max_us": hist.max * 1e6,
                "mean_us": hist.mean * 1e6,
            }
            report["traces"] = hist.count
    return report


def render_report(report: Dict[str, Any], title: str = "Latency "
                  "attribution") -> str:
    """Text table rendering (shares the reporting table formatter)."""
    from ..reporting import format_table

    def us(value: float) -> str:
        return f"{value:.3f}"

    rows = []
    for row in report["stages"]:
        rows.append({
            "stage": row["stage"],
            "kind": row["kind"],
            "count": row["count"],
            "p50 (us)": us(row["p50_us"]),
            "p99 (us)": us(row["p99_us"]),
            "max (us)": us(row["max_us"]),
            "mean (us)": us(row["mean_us"]),
            "share": f"{row['share_pct']:.1f}%",
        })
    e2e = report.get("e2e")
    if e2e:
        rows.append({
            "stage": "end-to-end",
            "kind": "=",
            "count": e2e["count"],
            "p50 (us)": us(e2e["p50_us"]),
            "p99 (us)": us(e2e["p99_us"]),
            "max (us)": us(e2e["max_us"]),
            "mean (us)": us(e2e["mean_us"]),
            "share": "100.0%",
        })
    lines = [format_table(title, rows)]
    reconciliation = report.get("reconciliation")
    if reconciliation is not None and not report.get("traces"):
        lines.append("reconciliation: no packet traced")
    elif reconciliation is not None:
        lines.append(
            f"reconciliation: max per-packet error "
            f"{reconciliation['max_error'] * 100:.4f}% "
            f"({'OK' if reconciliation['within_1pct'] else 'FAIL'}, "
            f"bar is 1%)")
    if report.get("source") == "traces":
        lines.append(
            f"traces: {report['traces']} finished, "
            f"{report.get('unfinished', 0)} unfinished, "
            f"{report.get('orphaned_spans', 0)} orphaned spans")
    return "\n".join(lines)
