"""Causal per-packet span trees for latency attribution.

The paper's latency story (Table 6, Fig. 7c) is an *attribution* claim:
end-to-end latency decomposes into doorbell, descriptor fetch, DMA,
wire, and completion stages.  This module provides the mechanism for
making that decomposition observable in the simulator: each sampled
packet carries a :class:`TraceContext` through the datapath, and every
stage it crosses records a span (enter/exit timestamps) into the
packet's trace.

Design notes
------------

* The context a packet carries *is* its :class:`Trace`
  (``TraceContext`` is the name instrumented code knows it by), and a
  trace is its span table: one row of floats a span plus a column of
  stage codes, so the recorder reaches it without looking anything up
  and a span leaves no object behind.  The handle
  :meth:`SpanRecorder.enter` returns names the open span's end in that
  table.  Components propagate the context side-band — in
  ``Packet.meta``, as the last field of a decoded WQE or CQE record, in
  TLP metadata — and hand it back to the recorder together with
  timestamps.  Stages never mutate the trace directly.
* Descriptors cross every DMA as bytes (WQEs packed into MMIO/host-memory
  rings, CQEs written by the NIC), which have no room for a context.
  Two bridges carry it across:

  - a *stash/claim* registry keyed by ``(kind, scope, qpn, index)`` for
    descriptors fetched from host-memory rings, and
  - the PCIe fabric's *inbound context* — the context attached to the
    TLP currently being delivered — which the receiving endpoint may
    claim inside ``handle_write``.

* Sampling is deterministic: the ``sample_rate``-th, ``2×sample_rate``-th,
  ... calls to :meth:`SpanRecorder.start_trace` return a context; the
  rest return ``None``.  Every instrumentation site guards on
  ``ctx is not None``, so an unsampled packet costs one attribute read
  per stage.  With spans disabled entirely, :data:`NULL_SPANS` keeps
  ``start_trace`` returning ``None`` and the datapath is the unobserved
  one.

* When a trace's root ends, the recorder attributes the root interval
  across its spans (see :func:`attribute_trace`) and feeds per-stage
  log2 histograms in the attached metrics registry under
  ``spans.stage.<stage>.<kind>`` — which makes stage latencies merge
  across sweep points (:func:`repro.sweep.run_sweep`) for free.
"""

from __future__ import annotations

from array import array
from math import frexp, inf
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

__all__ = [
    "Span",
    "Trace",
    "TraceContext",
    "SpanRecorder",
    "NullSpanRecorder",
    "NULL_SPANS",
    "OPEN",
    "attribute_trace",
    "SPAN_SCHEMA_VERSION",
]

#: Version stamp embedded in exported span JSON (see DESIGN.md).
SPAN_SCHEMA_VERSION = 1

KIND_SERVICE = "service"
KIND_QUEUE = "queue"


class Span(NamedTuple):
    """One stage crossing: ``[start, end)`` at ``stage``, as read back.

    ``end`` is ``None`` while the packet is inside the stage; a span
    whose trace has ended but whose ``end`` is still ``None`` is an
    *orphan* — the invariant auditor reports it.

    The recorder keeps no ``Span``: a trace holds its spans as columns
    (see :class:`Trace`), and a ``Span`` is built only when something
    reads :attr:`Trace.spans` or :meth:`Trace.orphan_spans`.
    """

    span_id: int
    trace_id: int
    stage: str
    kind: str
    start: float
    end: Optional[float]

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def __repr__(self) -> str:
        return (f"Span({self.stage!r}, kind={self.kind}, "
                f"[{self.start}, {self.end}])")


#: An open span's end.  Simulated time is finite, so no stamped end
#: equals it, and it lies past every root end, so attribution's clamp
#: ends an open span at its root's end with no test of its own.
OPEN = inf


class Trace(array):
    """The span tree of one packet: a root interval plus stage spans.

    A trace *is* its span table, an ``array('d')`` of one row per span
    in recording order — ``span_id, start, end`` — with the row's
    ``(stage, kind)`` code in the :attr:`stages` column (a
    ``bytearray`` of two bytes a span); ``stage_keys[code]`` is the
    pair, in the recorder's table.  An open span's end is
    :data:`OPEN`.  A recorded span is 26 bytes of the two columns and
    no Python object, so a finished trace leaves one object for the
    garbage collector to track (the trace), whatever its span count.

    ``events`` is ``()`` until the first :meth:`SpanRecorder.event`.
    Identity is by object, not by row contents.

    There is no constructor of its own: :meth:`SpanRecorder.start_trace`
    makes an empty ``Trace("d")`` and fills the slots in its own frame,
    so a trace costs no Python call of its own.
    """

    __slots__ = ("trace_id", "name", "start", "end", "stages",
                 "stage_keys", "span_count", "events")

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    # An array pickles and copies its items and __dict__, not a
    # subclass's slots: copy through pickling's reduction, which keeps
    # both.
    __copy__ = __deepcopy__ = None

    def __reduce_ex__(self, protocol):
        return _rebuild_trace, (self.tobytes(), {
            name: getattr(self, name) for name in Trace.__slots__})

    def __repr__(self) -> str:
        return (f"Trace({self.trace_id}, {self.name!r}, "
                f"[{self.start}, {self.end}], {self.span_count} spans)")

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def _rows(self):
        """``(span_id, start, end, stage code)`` of every span."""
        return zip(self[0::3], self[1::3], self[2::3],
                   array("H", self.stages))

    @property
    def spans(self) -> List[Span]:
        """The spans in recording order, built on each read (a copy:
        the trace does not change through it)."""
        trace_id, keys = self.trace_id, self.stage_keys
        return [Span(int(span_id), trace_id, *keys[code], start,
                     None if end == OPEN else end)
                for span_id, start, end, code in self._rows()]

    def orphan_spans(self) -> List[Span]:
        """Spans never exited although the root interval has ended."""
        if self.end is None:
            return []
        trace_id, keys = self.trace_id, self.stage_keys
        return [Span(int(span_id), trace_id, *keys[code], start, None)
                for span_id, start, end, code in self._rows()
                if end == OPEN]

    def to_dict(self) -> Dict[str, Any]:
        keys = self.stage_keys
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "spans": [{"span_id": int(span_id),
                       "stage": keys[code][0],
                       "kind": keys[code][1],
                       "start": start,
                       "end": None if end == OPEN else end}
                      for span_id, start, end, code in self._rows()],
            "events": [{"time": t, "name": n} for t, n in self.events],
        }


def _rebuild_trace(rows: bytes, slots: Dict[str, Any]) -> Trace:
    """Unpickle a :class:`Trace`: its rows, then its slots."""
    trace = Trace("d")
    trace.frombytes(rows)
    for name, value in slots.items():
        setattr(trace, name, value)
    return trace


#: What a sampled packet carries through the datapath: its trace.
#: Instrumented code treats it as opaque and hands it back to the
#: recorder.
TraceContext = Trace


def attribute_trace(trace: Trace) -> Tuple[Dict[Tuple[str, str], float],
                                           float]:
    """Partition the root interval among its spans.

    Every instant of ``[trace.start, trace.end)`` is attributed to the
    *innermost* span open at that instant — the open span that entered
    last — so overlapping spans (a DMA read prefetched behind a
    pipeline stage, a queue wait nested in an engine span) are never
    double-counted.  Instants covered by no span fall into the
    ``unattributed`` residue.  By construction the per-stage sums plus
    the residue equal the end-to-end duration (up to float rounding),
    which is what lets the latency report reconcile exactly.

    Returns ``({(stage, kind): seconds}, unattributed_seconds)``.
    Spans are clamped to the root interval; an unfinished span is
    treated as ending at the root's end (the auditor reports it
    separately).

    One sweep over the sorted span boundaries.  Every piece between two
    neighbouring boundaries is added to its owner on its own, in time
    order — never merged with the next piece of the same span — so each
    float sum is the one a per-piece search over all spans arrives at
    (``tests/telemetry/attribution_oracle.py`` is that search).
    """
    if trace.end is None:
        raise ValueError(f"trace {trace.trace_id} has not ended")
    root_start, root_end = trace.start, trace.end
    # What the root interval leaves of each span.  (start, span_id)
    # leads each entry: sorted, the spans stand in entry order, ties
    # broken by creation order so back-to-back stages partition
    # cleanly.  Ids are unique, so no comparison reads on.  An open end
    # is OPEN, past the root's end, so the clamp closes it there.
    # The rows are read as Trace._rows reads them, inline: no call.
    keys = trace.stage_keys
    clamped = sorted([
        (start, span_id, end, keys[code])
        for span_id, begin, finish, code in zip(
            trace[0::3], trace[1::3], trace[2::3], array("H", trace.stages))
        if (start := root_start if begin < root_start else begin)
        < (end := root_end if finish > root_end else finish)])
    cuts = sorted({root_start, root_end, *[entry[0] for entry in clamped],
                   *[entry[2] for entry in clamped]})

    totals: Dict[Tuple[str, str], float] = {}
    unattributed = 0.0
    # The spans entered so far, in entry order: the innermost open span
    # is the last one still running.  One that ended is dropped when it
    # surfaces at the top; buried, it is just never the answer.
    count = len(clamped)
    entered: List[Optional[tuple]] = [None] * count
    depth = 0
    upcoming = 0
    left = cuts[0]
    for right in cuts[1:]:
        while upcoming < count and clamped[upcoming][0] <= left:
            entered[depth] = clamped[upcoming]
            depth += 1
            upcoming += 1
        while depth and entered[depth - 1][2] <= left:
            depth -= 1
        if depth:
            stage_key = entered[depth - 1][3]
            if stage_key in totals:
                totals[stage_key] += right - left
            else:
                totals[stage_key] = right - left
        else:
            unattributed += right - left
        left = right
    return totals, unattributed


class SpanRecorder:
    """Records per-packet span trees with deterministic sampling.

    Parameters
    ----------
    sample_rate:
        Trace one in every ``sample_rate`` packets (1 = every packet).
    max_traces:
        Hard cap on retained traces; once reached, ``start_trace``
        returns ``None`` and bumps :attr:`dropped`.
    registry:
        Optional :class:`~repro.telemetry.metrics.MetricsRegistry`.
        When set, finished traces feed ``spans.stage.<stage>.<kind>``,
        ``spans.e2e`` and ``spans.unattributed`` histograms — the
        mergeable aggregate view used by sweeps.
    """

    enabled = True

    def __init__(self, sample_rate: int = 1, max_traces: int = 100_000,
                 registry=None):
        if sample_rate < 1:
            raise ValueError("sample_rate must be >= 1")
        self.sample_rate = sample_rate
        self.max_traces = max_traces
        self.registry = registry
        self.sampled = 0         # traces actually started
        self.skipped = 0         # offers declined by 1-in-N sampling
        self.dropped = 0         # offers declined by the max_traces cap
        self._seen = 0           # packets offered to start_trace
        self._next_trace = 1
        self._next_span = 1
        self._traces: Dict[int, Trace] = {}
        self._stash: Dict[Any, TraceContext] = {}
        # Registry metrics, resolved by name once and held: the sampler
        # counters from their first increment (a tally still at zero
        # stays out of the export), the histograms from their first
        # sample — keyed "e2e", "unattributed" or (stage, kind).
        self._sampler_counters: Dict[str, Any] = {}
        self._hists: Dict[Any, Any] = {}
        # (stage, kind) pairs, interned: a trace's stage column holds a
        # pair's code, ``_stage_keys[code]`` is the pair, and
        # ``_stage_codes[stage, kind]`` is the code as the two bytes the
        # column appends.
        self._stage_keys: List[Tuple[str, str]] = []
        self._stage_codes: Dict[Tuple[str, str], bytes] = {}

    # -- trace lifecycle -------------------------------------------------
    def start_trace(self, name: str, now: float) -> Optional[TraceContext]:
        """Begin a trace for this packet, or ``None`` if unsampled.

        Every offer is accounted: ``sampled + skipped + dropped ==
        seen``, and the same tallies feed ``spans.sampler.*`` counters
        in the registry so sweep-merged exports say how much of the
        traffic the attribution actually observed.
        """
        self._seen += 1
        if (self._seen - 1) % self.sample_rate != 0:
            outcome = "skipped"
            self.skipped += 1
        elif len(self._traces) >= self.max_traces:
            outcome = "dropped"
            self.dropped += 1
        else:
            outcome = "sampled"
            self.sampled += 1
        if self.registry is not None:
            held = self._sampler_counters
            if outcome not in held:
                held[outcome] = self.registry.counter(
                    f"spans.sampler.{outcome}")
            held[outcome].value += 1
        if outcome != "sampled":
            return None
        trace_id = self._next_trace
        self._next_trace += 1
        trace = self._traces[trace_id] = Trace("d")
        trace.trace_id = trace_id
        trace.name = name
        trace.start = now
        trace.end = None
        trace.stages = bytearray()
        trace.stage_keys = self._stage_keys
        trace.span_count = 0     # rows in the table
        trace.events = ()
        return trace

    @property
    def seen(self) -> int:
        """Packets offered to :meth:`start_trace` so far."""
        return self._seen

    def end_trace(self, ctx: Optional[TraceContext], now: float) -> None:
        if ctx is None or ctx.end is not None:
            return
        ctx.end = now
        if self.registry is None:
            return
        # Fold the finished trace into its histograms in this frame:
        # each sample updates exactly what Histogram.observe would.
        totals, unattributed = attribute_trace(ctx)
        hists = self._hists
        for key, value in (("e2e", now - ctx.start),
                           ("unattributed", unattributed),
                           *totals.items()):
            try:
                histogram = hists[key]
            except KeyError:
                histogram = hists[key] = self.registry.histogram(
                    f"spans.{key}" if isinstance(key, str)
                    else "spans.stage.{}.{}".format(*key))
            histogram.count += 1
            histogram.total += value
            if histogram.min is None or value < histogram.min:
                histogram.min = value
            if histogram.max is None or value > histogram.max:
                histogram.max = value
            if value <= 0:
                histogram.underflow += 1
                continue
            exponent = frexp(value)[1]
            buckets = histogram.buckets
            if exponent in buckets:
                buckets[exponent] += 1
            else:
                buckets[exponent] = 1

    # -- span recording --------------------------------------------------
    # A span is one row appended to its trace — one builtin call (the
    # ``extend``); its stage code goes on by ``+=``, which calls nothing.
    def _stage_code(self, stage: str, kind: str) -> bytes:
        """Intern a pair no span has used yet; its column bytes."""
        code = self._stage_codes[stage, kind] = array(
            "H", [len(self._stage_keys)]).tobytes()
        self._stage_keys.append((stage, kind))
        return code

    def enter(self, ctx: Optional[TraceContext], stage: str, now: float,
              kind: str = KIND_SERVICE) -> Optional[Tuple[Trace, int]]:
        """Open a span; returns a handle for :meth:`exit` (or None).

        The handle is ``(trace, index of the span's end in it)``: whoever
        holds it may close the span in place (``if trace[at] == OPEN:
        trace[at] = now``), as :meth:`exit` does.
        """
        if ctx is None:
            return None
        span_id = self._next_span
        self._next_span = span_id + 1
        ctx.extend((span_id, now, OPEN))
        try:
            ctx.stages += self._stage_codes[stage, kind]
        except KeyError:
            ctx.stages += self._stage_code(stage, kind)
        count = ctx.span_count
        ctx.span_count = count + 1
        return ctx, 3 * count + 2

    def exit(self, span_id: Optional[Tuple[Trace, int]], now: float) -> None:
        """Close the span :meth:`enter` handed out (once; a late exit
        after the root ended still stamps it, for the auditor)."""
        if span_id is not None:
            trace, at = span_id
            if trace[at] == OPEN:
                trace[at] = now

    def record(self, ctx: Optional[TraceContext], stage: str,
               start: float, end: float,
               kind: str = KIND_SERVICE) -> None:
        """Record a closed span retroactively (start/end both known)."""
        if ctx is None:
            return
        span_id = self._next_span
        self._next_span = span_id + 1
        ctx.extend((span_id, start, end))
        try:
            ctx.stages += self._stage_codes[stage, kind]
        except KeyError:
            ctx.stages += self._stage_code(stage, kind)
        ctx.span_count += 1

    def event(self, ctx: Optional[TraceContext], name: str,
              now: float) -> None:
        """Attach a point annotation (e.g. ``rdma.retransmit``)."""
        if ctx is not None:
            if ctx.events:
                ctx.events.append((now, name))
            else:
                ctx.events = [(now, name)]

    # -- serialization-boundary bridges ----------------------------------
    def stash(self, key: Any, ctx: Optional[TraceContext]) -> None:
        """Park a context under ``key`` across a byte boundary.

        Keys must be scoped to the consuming device (e.g.
        ``("wqe", nic_name, qpn, index)``) — the two NICs of a remote
        setup share a qpn space.
        """
        if ctx is None:
            return
        self._stash[key] = ctx

    def claim(self, key: Any) -> Optional[TraceContext]:
        """Retrieve-and-remove a stashed context (None if absent)."""
        return self._stash.pop(key, None)

    def pending_stashes(self) -> List[Any]:
        """Stash keys never claimed — a propagation leak indicator."""
        return list(self._stash)

    # -- introspection ---------------------------------------------------
    @property
    def traces(self) -> List[Trace]:
        return list(self._traces.values())

    def get_trace(self, ctx_or_id) -> Optional[Trace]:
        trace_id = getattr(ctx_or_id, "trace_id", ctx_or_id)
        return self._traces.get(trace_id)

    def finished_traces(self) -> List[Trace]:
        return [t for t in self._traces.values() if t.end is not None]

    def unfinished_traces(self) -> List[Trace]:
        return [t for t in self._traces.values() if t.end is None]

    def orphan_spans(self) -> List[Span]:
        orphans: List[Span] = []
        for trace in self._traces.values():
            orphans.extend(trace.orphan_spans())
        return orphans

    def __len__(self) -> int:
        return len(self._traces)

    def to_dict(self) -> Dict[str, Any]:
        """Export all traces (the span JSON schema in DESIGN.md)."""
        return {
            "schema": SPAN_SCHEMA_VERSION,
            "sample_rate": self.sample_rate,
            "seen": self._seen,
            "sampled": self.sampled,
            "skipped": self.skipped,
            "dropped": self.dropped,
            "traces": [t.to_dict()
                       for t in sorted(self._traces.values(),
                                       key=lambda t: t.trace_id)],
        }


class NullSpanRecorder:
    """The disabled recorder: ``enabled`` is False, and every site that
    would start or extend a trace checks it first."""

    enabled = False


#: Shared no-op recorder used when span tracing is disabled.
NULL_SPANS = NullSpanRecorder()
