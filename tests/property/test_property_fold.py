"""The in-place histogram updates against ``Histogram.observe``.

Two hot paths update a registry histogram in their own frame instead of
calling ``observe``: ``SpanRecorder.end_trace`` folds a finished trace's
``spans.e2e``, ``spans.unattributed`` and per-stage samples, and a
``Store`` hand-off (a put straight to a parked getter) files its zero
wait.  Each must leave the histogram exactly as ``observe`` applied one
sample at a time would — count, sum, min, max, underflow and buckets —
over zero, negative, subnormal and same-bucket samples; ``to_dict()``
is compared with ``==``, so the sums must be equal, not close, and the
exported ``min`` and ``max`` must keep the sign of a zero.
"""

from hypothesis import given, strategies as st

from repro.sim import Simulator, Store
from repro.telemetry import (
    Histogram,
    MetricsRegistry,
    SpanRecorder,
    Telemetry,
    attribute_trace,
)

#: Edge samples drawn often: signed zeros, subnormals, negatives, and
#: values sharing a power-of-two bucket (1.0 and 2.0 close theirs).
EDGES = [0.0, -0.0, 5e-324, 1e-310, -1e-310, -1.0, -2.5,
         0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 3.0, 1e-6, 1.5e-6]
samples = st.one_of(st.sampled_from(EDGES),
                     st.floats(-1e6, 1e6, allow_nan=False))
fractions = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                      st.floats(0.0, 1.0))
#: (stage, kind, start, end) as fractions of the root interval.
span_shapes = st.tuples(st.sampled_from(["nic.tx", "wire"]),
                        st.sampled_from(["service", "queue"]),
                        fractions, fractions)


def _observed(name, values):
    histogram = Histogram(name)
    for value in values:
        histogram.observe(value)
    return histogram.to_dict()


def assert_same(actual, expected):
    assert actual == expected
    # ``==`` takes -0.0 for 0.0; an export writes them apart.
    assert [repr((d["min"], d["max"])) for d in actual] == \
        [repr((d["min"], d["max"])) for d in expected]


@given(st.lists(st.tuples(samples, st.lists(span_shapes, max_size=4)),
                max_size=12))
def test_end_trace_folds_what_observe_files(traces):
    registry = MetricsRegistry()
    spans = SpanRecorder(registry=registry)
    expected = {}
    for duration, shapes in traces:
        ctx = spans.start_trace("pkt", 0.0)
        for stage, kind, start, end in shapes:
            spans.record(ctx, stage, start * duration, end * duration,
                         kind=kind)
        spans.end_trace(ctx, duration)
        totals, unattributed = attribute_trace(ctx)
        expected.setdefault("spans.e2e", []).append(duration - 0.0)
        expected.setdefault("spans.unattributed", []).append(unattributed)
        for (stage, kind), seconds in totals.items():
            expected.setdefault(f"spans.stage.{stage}.{kind}",
                                []).append(seconds)
    histograms = registry.to_dict()["histograms"]
    assert list(histograms) == sorted(expected)
    assert_same(list(histograms.values()),
                [_observed(name, expected[name]) for name in histograms])


@given(st.lists(st.one_of(st.none(), samples), max_size=24))
def test_a_hand_off_files_what_observe_zero_files(steps):
    """``None`` is a hand-off; a number is a sample the wait histogram
    already holds, observed through the API."""
    sim = Simulator(telemetry=Telemetry(trace=False))
    store = Store(sim, name="s")
    wait = store._wait_hist
    delivered = []
    for step in steps:
        if step is None:
            assert store.pop_or_park(delivered.append) is None
            store.try_put(len(delivered))
        else:
            wait.observe(step)
    assert len(delivered) == steps.count(None)
    expected = [0.0 if step is None else step for step in steps]
    assert_same([wait.to_dict()], [_observed("store.s.wait", expected)])
