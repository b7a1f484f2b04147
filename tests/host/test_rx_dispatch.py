"""Every host receive CQ's dispatcher replays the pump it replaced.

A host queue's receive CQEs are served by one dispatcher
(``_HostQueue._rx_fused``): the NIC hands it each CQE write at issue and
it schedules one event per CQE, at the instant a serial loop would be
done with it.  The reference is the dispatcher it replaced
(``tests/host/rx_dispatch_oracle.py``): the write delivering itself into
a notify store at its arrival, a pump, and a ``call_later`` of the
core's cost.  Both sides run the same script on their own simulator —
CQEs issued with random flight times and costs (0 included, or no core
at all), and lane repairs that push a CQE still in flight later (and
those behind it, which stay behind it) — and must deliver every CQE in
the same order, picked up and done at the same instants, ``==`` on
floats.
"""

from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st

from repro.host.driver import _HostQueue
from repro.sim import Simulator
from repro.sim.resources import DELIVERY

from .rx_dispatch_oracle import PumpDispatcher

#: The script's time step: sums of its multiples are exact.
UNIT = 2.0 ** -10

#: ``(issue gap, flight, cost)`` in units, per CQE.
CQES = st.lists(st.tuples(st.integers(0, 4), st.integers(1, 6),
                          st.integers(0, 4)), min_size=1, max_size=12)
#: ``(time, CQE index, push)`` in units.
REPAIRS = st.lists(st.tuples(st.integers(0, 60), st.integers(0, 11),
                             st.integers(1, 5)), max_size=6)


class _Handle(list):
    """A CQE write in flight: its lane record, whose ``DELIVERY`` slot
    a repair moves, and its index as the trace context."""

    def __init__(self, index, arrival):
        record = [0.0] * (DELIVERY + 1)
        record[DELIVERY] = arrival
        super().__init__([record])
        self.trace_ctx = index
        self.landed = None

    def commit(self):
        self.landed = self[0][DELIVERY]


def _core(costs):
    return None if costs is None else SimpleNamespace(
        packet_cost=iter([cost * UNIT for cost in costs]).__next__)


def _host_queue(sim, costs):
    """The dispatcher under test; returns ``(issue, log)``."""
    queue = _HostQueue(SimpleNamespace(sim=sim), 0, _core(costs))
    log = []
    queue.profile_tag = "rx"
    # The dispatcher records each CQE's (started, done) as its span.
    queue._spans = SimpleNamespace(
        record=lambda index, _stage, started, done:
        log.append((index, started, done)))

    def receive(handle):
        assert handle.landed is not None and log[-1][0] == handle.trace_ctx

    queue._receive = receive
    return queue._rx_fused, log


def _reference(sim, costs):
    dispatcher = PumpDispatcher(sim, _core(costs))
    return dispatcher.issue, dispatcher.log


def _run(make, cqes, repairs, cored):
    sim = Simulator()
    issue, log = make(sim, [cost for _gap, _flight, cost in cqes]
                      if cored else None)
    handles = []

    def post(spec):
        index, flight = spec
        arrival = sim.now + flight * UNIT
        if handles:
            arrival = max(arrival, handles[-1][0][DELIVERY] + UNIT)
        handles.append(_Handle(index, arrival))
        issue(handles[-1])

    def repair(spec):
        first, push = spec
        if first >= len(handles) or handles[first][0][DELIVERY] <= sim.now:
            return
        handles[first][0][DELIVERY] += push * UNIT
        for earlier, later in zip(handles[first:], handles[first + 1:]):
            later[0][DELIVERY] = max(later[0][DELIVERY],
                                     earlier[0][DELIVERY] + UNIT)

    at = 0
    for index, (gap, flight, _cost) in enumerate(cqes):
        at += gap
        sim.call_later(at * UNIT, post, (index, flight))
    for when, first, push in repairs:
        sim.call_later(when * UNIT, repair, (first, push))
    sim.run()
    return log


@given(cqes=CQES, repairs=REPAIRS, cored=st.booleans())
# A repair pushes the head past its successor's planned instant: the
# successor fires early, bails, and the head's commit re-drives it.
@example(cqes=[(0, 1, 0), (0, 2, 0)], repairs=[(0, 0, 5)], cored=True)
@example(cqes=[(0, 1, 3), (1, 1, 0), (0, 1, 2)], repairs=[(1, 1, 4)],
         cored=True)
@example(cqes=[(0, 2, 0), (0, 1, 0)], repairs=[(1, 0, 3)], cored=False)
@settings(deadline=None)
def test_the_dispatcher_replays_the_pump(cqes, repairs, cored):
    expected = _run(_reference, cqes, repairs, cored)
    assert len(expected) == len(cqes)
    assert _run(_host_queue, cqes, repairs, cored) == expected
