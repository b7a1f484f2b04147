"""Parked waits replay the poll loops, float for float.

The closed-loop window wait, its tail wait and every SQ-full wait are a
:class:`~repro.sim.PollWait` parked where the condition changes; the
reference they must replay is the loop of ``timeout`` Events each one
replaced (``tests/host/poll_oracle.py``).  Both sides run the same
traffic on their own simulator, each from nothing, and must agree on
every instant a frame was stamped, every latency sample, the receive
meter and the instant the simulation ends — ``==`` on floats, because
the parked form computes a poll instant with the additions the polling
form's timeouts performed.
"""

import random
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.setups import cpu_echo_remote, flde_echo_remote
from repro.host import EchoApp, LoadGenerator
from repro.net import Flow
from repro.sim import PollWait, Simulator

from . import poll_oracle


class _SentAt(dict):
    """``LoadGenerator._sent_at`` that remembers every stamp."""

    def __init__(self):
        super().__init__()
        self.history = []

    def __setitem__(self, seq, when):
        self.history.append((seq, when))
        super().__setitem__(seq, when)


def _small_qp(node):
    """A 4-entry SQ completing every second WQE: two frames in flight
    fill it, so every sender on it waits for tx space."""
    qp = node.driver.create_eth_qp(vport=1, use_mmio_wqe=True,
                                   sq_entries=4, signal_interval=2)
    qp.post_rx_buffers(1024)
    return qp


def _build(sim, make, small_sq):
    """The load generator and every queue pair a sender waits on."""
    setup = make(sim)
    loadgen = setup.loadgen
    qps = [loadgen.qp]
    if hasattr(setup, "echo"):
        qps.append(setup.echo.qp)
    if small_sq:
        qps = [_small_qp(setup.client)]
        loadgen = LoadGenerator(sim, qps[0], loadgen.flow)
        if hasattr(setup, "echo"):
            qps.append(_small_qp(setup.server))
            EchoApp(qps[1])
    return loadgen, qps


def _observe(polling, make, small_sq, window, count, size):
    random.seed(11)
    sim = Simulator()
    loadgen, qps = _build(sim, make, small_sq)
    loadgen._sent_at = _SentAt()
    closed_loop = loadgen.run_closed_loop
    if polling:
        closed_loop = partial(poll_oracle.run_closed_loop, loadgen)
        for qp in qps:
            qp.park_for_tx_space = partial(poll_oracle.poll_for_tx_space, qp)

    def drive():
        if window is None:
            yield from loadgen.run_open_loop([size] * count)
        else:
            yield from closed_loop(size, count, window=window)
        yield from loadgen.drain()

    sim.spawn(drive())
    sim.run()
    meter = loadgen.rx_meter
    return (loadgen._sent_at.history, loadgen.latency.samples,
            (meter.bytes, meter.packets, meter._window_start,
             meter._window_end),
            loadgen.stats_sent, loadgen.stats_received, sim.now)


@settings(deadline=None, max_examples=settings().max_examples // 2)
@given(make=st.sampled_from([flde_echo_remote, cpu_echo_remote]),
       small_sq=st.booleans(),
       window=st.sampled_from([1, 2, 8, 64, None]),
       count=st.integers(1, 64),
       size=st.sampled_from([64, 512, 1500]))
def test_parked_waits_replay_the_poll_loops(make, small_sq, window, count,
                                            size):
    """``window=None`` is the back-to-back open loop, whose only wait is
    the pacer's (and the echo server's) for tx space."""
    parked = _observe(False, make, small_sq, window, count, size)
    polled = _observe(True, make, small_sq, window, count, size)
    assert parked == polled
    if window is not None:
        assert parked[4] == count


def _two_loops(polling, window):
    """Two closed loops of 10 frames on one generator: the (sent,
    received) each returns at and the in-flight count each frame was
    sent into."""
    random.seed(11)
    sim = Simulator()
    loadgen, _qps = _build(sim, flde_echo_remote, False)
    closed_loop = (partial(poll_oracle.run_closed_loop, loadgen) if polling
                   else loadgen.run_closed_loop)
    send = loadgen._send_frame
    in_flight, returned = [], []

    def counted_send(size):
        in_flight.append(loadgen.stats_sent - loadgen.stats_received)
        send(size)

    loadgen._send_frame = counted_send

    def drive():
        for _ in range(2):
            yield from closed_loop(256, 10, window)
            returned.append((loadgen.stats_sent, loadgen.stats_received))

    sim.spawn(drive())
    sim.run()
    return returned, in_flight, sim.now


@pytest.mark.parametrize("window", [1, 4])
def test_a_second_loop_waits_for_its_own_responses(window):
    """Each loop counts responses from the generator's total at entry,
    so the second keeps its window and returns with every frame
    answered, not at the first loop's count."""
    parked = _two_loops(False, window)
    assert parked[0] == [(10, 10), (20, 20)]
    assert len(parked[1]) == 20 and max(parked[1]) == window - 1
    assert parked[1][10] == 0
    assert parked == _two_loops(True, window)


# -- the tie: a change that lands exactly on a poll instant -----------------


class _Loopback:
    """A queue pair that returns each frame at an instant of the test's
    choosing: ``deliver(sim, frame)`` schedules ``on_receive``."""

    def __init__(self, sim, deliver):
        self.sim = sim
        self.deliver = deliver
        self.on_receive = None

    #: One free slot, always.
    tx_free = 1

    def send(self, frame, trace_ctx=None):
        self.deliver(self.sim, partial(self._receive, frame))

    def _receive(self, frame):
        self.on_receive(frame, _NO_TRACE)


# All the loop reads of a CQE: no trace, no layout (it parses the frame).
_NO_TRACE = SimpleNamespace(trace_ctx=None, layout=None)


def _poll_instant(start, polls, step=200e-9):
    """The instant of the ``polls``-th poll of a loop entered at
    ``start``, summed as its timeouts sum it."""
    instant = start
    for _ in range(polls):
        instant = instant + step
    return instant


def _round_trip_ends(polling, deliver):
    """When a window-1 closed loop sees its one response."""
    sim = Simulator()
    qp = _Loopback(sim, deliver)
    flow = Flow("02:00:00:00:00:01", "02:00:00:00:00:02",
                "10.0.0.1", "10.0.0.2", 7000, 7001)
    loadgen = LoadGenerator(sim, qp, flow)
    closed_loop = (partial(poll_oracle.run_closed_loop, loadgen) if polling
                   else loadgen.run_closed_loop)
    seen = []

    def drive():
        yield from closed_loop(64, 1)
        seen.append(sim.now)

    sim.spawn(drive())
    sim.run()
    assert len(loadgen.latency) == 1
    return seen[0]


def test_a_response_landing_on_a_poll_instant_is_seen_by_that_poll():
    """The response is scheduled when the frame is sent — before the
    loop's first ``timeout`` is pushed, so at the shared instant it
    dispatches first and the third poll already counts it.  Every
    response on the datapath has this shape: the event that hands a
    frame to ``_on_receive`` is pushed when its CQE is issued, a PCIe
    write and a core's packet cost (361 ns at the least, on both echo
    testbeds) before it lands, against a 200 ns poll.  The parked form
    takes this side of the tie everywhere (``PollWait.wake`` stops at
    the first poll instant not before now)."""
    third_poll = _poll_instant(0.0, 3)

    def deliver(sim, receive):
        sim.schedule_at(third_poll, receive)

    assert _round_trip_ends(True, deliver) == third_poll
    assert _round_trip_ends(False, deliver) == third_poll


def test_where_the_polling_form_depended_on_issue_order():
    """The same collision with the response pushed half a period before
    it lands: the polling loop's third timeout was pushed earlier still
    (at the second poll), dispatches first, counts nothing, and the
    loop learns of the response one poll late.  The parked form does
    not know when the waker was pushed and keeps the answer above — a
    poll at ``t`` sees what happened at ``t``.  Only a re-issued
    delivery (a lane repair re-driving a fused receive) is pushed this
    late, and it would have to land on a poll instant to the bit."""
    third_poll = _poll_instant(0.0, 3)

    def deliver(sim, receive):
        sim.schedule_at(third_poll - 100e-9,
                        lambda: sim.schedule_at(third_poll, receive))

    assert _round_trip_ends(True, deliver) == _poll_instant(0.0, 4)
    assert _round_trip_ends(False, deliver) == third_poll


def test_a_wait_is_one_entry_on_the_poll_grid():
    """Woken between polls, the continuation runs at the next one."""
    sim = Simulator()
    ran = []
    wait = PollWait(sim, 200e-9, lambda arg: ran.append((arg, sim.now)),
                    "arg")
    sim.schedule_at(450e-9, wait.wake)
    sim.run()
    assert ran == [("arg", _poll_instant(0.0, 3))]
    assert sim.stats_events == 2
