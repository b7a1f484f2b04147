"""Latency attribution, written the way its definition reads.

This is the body ``repro.telemetry.spans.attribute_trace`` had before it
became one sorted sweep: for every piece of the root interval between
two neighbouring span boundaries, search *all* spans for the innermost
one covering it.  Quadratic, and the reference: the property in
``tests/property/test_property_spans.py`` holds the sweep to it with
``==`` on every float sum and on the order the stage keys appear.
"""

from typing import Dict, List, Optional, Tuple

from repro.telemetry.spans import Span, Trace


def attribute_trace(trace: Trace) -> Tuple[Dict[Tuple[str, str], float],
                                           float]:
    if trace.end is None:
        raise ValueError(f"trace {trace.trace_id} has not ended")
    root_start, root_end = trace.start, trace.end
    clamped: List[Tuple[float, float, Span]] = []
    for span in trace.spans:
        end = span.end if span.end is not None else root_end
        start = max(span.start, root_start)
        end = min(end, root_end)
        if end > start:
            clamped.append((start, end, span))

    totals: Dict[Tuple[str, str], float] = {}
    unattributed = 0.0
    boundaries = {root_start, root_end}
    for start, end, _span in clamped:
        boundaries.add(start)
        boundaries.add(end)
    cuts = sorted(boundaries)
    for left, right in zip(cuts, cuts[1:]):
        # The innermost open span: latest entry wins; ties broken by
        # creation order so back-to-back stages partition cleanly.
        innermost: Optional[Span] = None
        innermost_key = None
        for start, end, span in clamped:
            if start <= left and end >= right:
                key = (start, span.span_id)
                if innermost_key is None or key > innermost_key:
                    innermost_key = key
                    innermost = span
        width = right - left
        if innermost is None:
            unattributed += width
        else:
            stage_key = (innermost.stage, innermost.kind)
            totals[stage_key] = totals.get(stage_key, 0.0) + width
    return totals, unattributed
