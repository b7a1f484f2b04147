"""The attribution sweep against the per-piece search it replaced.

``attribute_trace`` walks the sorted span boundaries once; the oracle in
``tests/telemetry/attribution_oracle.py`` searches every span for every
piece.  Both add the same pieces to the same stage in the same order, so
the float sums must be *equal*, not close — that is what keeps
``python -m repro latency`` reports byte-identical.
"""

import pytest
from hypothesis import given, strategies as st

from repro.telemetry import SpanRecorder, attribute_trace

from ..telemetry.attribution_oracle import attribute_trace as oracle

# Tenths are not exact in binary, so a sum that adds the same pieces in
# another order (or merges two of them first) lands on another float;
# drawing most instants from one grid makes equal instants — back-to-back
# stages, equal starts, zero-width spans — the common case, not a fluke.
GRID = [tenth * 0.1 for tenth in range(-20, 121)]
instants = st.one_of(st.sampled_from(GRID),
                     st.floats(-2.0, 12.0, allow_nan=False))
#: (stage, kind, start, end); ``end`` None is a span entered and never
#: exited, ``end < start`` a span the clamp must discard.
span_shapes = st.tuples(
    st.sampled_from(["nic.tx", "wire", "accel"]),
    st.sampled_from(["service", "queue"]),
    instants,
    st.one_of(st.none(), instants))


def build(root_start, root_end, shapes):
    spans = SpanRecorder()
    ctx = spans.start_trace("pkt", root_start)
    for stage, kind, start, end in shapes:
        if end is None:
            spans.enter(ctx, stage, start, kind=kind)
        else:
            spans.record(ctx, stage, start, end, kind=kind)
    spans.end_trace(ctx, root_end)
    return spans.get_trace(ctx)


def assert_same_as_oracle(trace):
    totals, unattributed = attribute_trace(trace)
    expected_totals, expected_unattributed = oracle(trace)
    assert totals == expected_totals
    assert list(totals) == list(expected_totals)    # same key order
    assert unattributed == expected_unattributed
    return totals, unattributed


@given(st.sampled_from(GRID[20:60]), st.sampled_from(GRID[20:]),
       st.lists(span_shapes, max_size=12))
def test_sweep_equals_the_per_piece_search(root_start, root_end, shapes):
    # Nested, partially overlapping, back-to-back, equal starts under
    # different ids, zero-width, reaching outside the root, unfinished,
    # none at all — and a root that ends where (or before) it starts.
    trace = build(root_start, root_end, shapes)
    totals, unattributed = assert_same_as_oracle(trace)
    assert sum(totals.values()) + unattributed == pytest.approx(
        abs(root_end - root_start), rel=1e-9, abs=1e-12)


def test_outer_span_regains_the_interval_after_the_inner_one_ends():
    trace = build(0.0, 10.0, [
        ("nic.tx", "service", 0.0, 10.0),   # entered first, ends last
        ("wire", "service", 1.0, 5.0),      # buried under accel, ends under it
        ("accel", "service", 2.0, 7.0),
        ("accel", "queue", 3.0, 4.0),       # innermost; accel regains 4..7
    ])
    totals, unattributed = assert_same_as_oracle(trace)
    assert totals == {("nic.tx", "service"): 1.0 + 3.0,
                      ("wire", "service"): 1.0,
                      ("accel", "service"): 1.0 + 3.0,
                      ("accel", "queue"): 1.0}
    assert unattributed == 0.0


def test_equal_starts_go_to_the_span_created_last():
    trace = build(0.0, 4.0, [
        ("nic.tx", "queue", 1.0, 3.0),
        ("nic.tx", "service", 1.0, 2.0),    # same start, later id: wins 1..2
    ])
    totals, unattributed = assert_same_as_oracle(trace)
    assert totals == {("nic.tx", "service"): 1.0, ("nic.tx", "queue"): 1.0}
    assert unattributed == 2.0
