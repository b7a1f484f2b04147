"""``RdmaEngine._handle_ack``: a cumulative ACK retires the outstanding
prefix up to its PSN, compared in the 24-bit PSN window."""

from hypothesis import given, strategies as st

from repro.nic.rdma import RcQp, RdmaEngine, _Segment
from repro.sim import Simulator

WINDOW = 1 << 23


def engine_and_qp(first_psn, count, last_every=3):
    """An engine and a QP with ``count`` segments outstanding from
    ``first_psn``; every ``last_every``-th ends a message."""
    completed = []
    engine = RdmaEngine(Simulator(),
                        complete_send=lambda qp, wqe: completed.append(wqe))
    qp = RcQp(1, None, None, "02:00:00:00:00:01", "10.0.0.1")
    qp.consecutive_retries = 2
    for i in range(count):
        last = i % last_every == last_every - 1
        qp.outstanding[(first_psn + i) & 0xFFFFFF] = _Segment(
            None, f"wqe{i}" if last else None, last, 0.0)
    return engine, qp, completed


def retired(engine, qp, acked_psn):
    before = list(qp.outstanding)
    engine._handle_ack(qp, acked_psn)
    return before[:len(before) - len(qp.outstanding)]


def test_a_cumulative_ack_retires_three_segments():
    engine, qp, completed = engine_and_qp(5, 3)
    assert retired(engine, qp, 7) == [5, 6, 7]
    assert not qp.outstanding and completed == ["wqe2"]
    assert qp.consecutive_retries == 0 and engine.stats_acks_received == 1


def test_an_ack_inside_the_window_retires_its_prefix():
    engine, qp, completed = engine_and_qp(5, 3)
    assert retired(engine, qp, 6) == [5, 6]
    assert list(qp.outstanding) == [7] and completed == []


def test_a_stale_ack_retires_nothing():
    for stale in (4, 5 - WINDOW, (5 + WINDOW) & 0xFFFFFF):
        engine, qp, completed = engine_and_qp(5, 3)
        assert retired(engine, qp, stale) == []
        assert list(qp.outstanding) == [5, 6, 7] and completed == []
        # No progress: the retry count stands.
        assert qp.consecutive_retries == 2
        assert engine.stats_acks_received == 1


def test_an_ack_across_the_psn_wrap():
    engine, qp, completed = engine_and_qp(0xFFFFFE, 4)
    assert list(qp.outstanding) == [0xFFFFFE, 0xFFFFFF, 0, 1]
    assert retired(engine, qp, 0) == [0xFFFFFE, 0xFFFFFF, 0]
    assert list(qp.outstanding) == [1] and completed == ["wqe2"]


@given(first=st.integers(0, 0xFFFFFF), count=st.integers(0, 8),
       offset=st.integers(-WINDOW - 4, WINDOW + 4))
def test_the_retired_prefix_is_the_segment_by_segment_one(first, count,
                                                          offset):
    """The segment-by-segment rule: retire the oldest while the ACK's
    PSN is not before it in the signed 24-bit window."""
    acked = (first + offset) & 0xFFFFFF
    engine, qp, _completed = engine_and_qp(first, count)
    want = []
    for psn in qp.outstanding:
        if (acked - psn) & 0xFFFFFF >= WINDOW:
            break
        want.append(psn)
    assert retired(engine, qp, acked) == want
