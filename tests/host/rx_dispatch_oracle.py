"""The host receive dispatcher as it was before CQEs landed in their
consumer, kept as the reference for ``test_rx_dispatch.py``.

Each receive CQE's write delivered itself: the fabric's own delivery
event, which fires again when a lane repair has moved the arrival later,
put the CQE into its CQ's ``notify`` :class:`~repro.sim.Store`.  A
:class:`~repro.sim.Pump` handed each stored CQE to the queue, which,
served by a core, worked ``packet_cost()`` seconds on it in a
``call_later`` continuation and resumed the pump when done; without a
core it handled the CQE in the pump's frame.  That is the reference
serial dispatcher: a CQE is picked up once it has landed and the
previous one is done.  It is a reference: do not optimise it.
"""

from repro.sim import Pump, Store
from repro.sim.resources import DELIVERY


class PumpDispatcher:
    """``issue(handle)`` is the NIC posting a receive CQE; ``log`` gets
    ``(index, started, done)`` for each CQE, in delivery order, where
    ``index`` is the handle's ``trace_ctx``."""

    def __init__(self, sim, core):
        self.sim = sim
        self.core = core
        self.notify = Store(sim)
        self.log = []
        self._rx = Pump(sim, self.notify, self._rx_cqe, "oracle.rx")

    def issue(self, handle) -> None:
        sim = self.sim
        sim.call_later(handle[0][DELIVERY] - sim._now, self._arrived, handle)

    def _arrived(self, handle) -> None:
        sim = self.sim
        if handle[0][DELIVERY] > sim._now:
            sim.call_later(handle[0][DELIVERY] - sim._now, self._arrived,
                           handle)
            return
        self.notify.try_put(handle)

    def _rx_cqe(self, handle):
        pending = (handle, self.sim._now)
        if self.core is None:
            self._rx_segment(pending)
            return True
        self.sim.call_later(self.core.packet_cost(), self._rx_worked,
                            pending)
        return False

    def _rx_worked(self, pending) -> None:
        self._rx_segment(pending)
        self._rx.resume()

    def _rx_segment(self, pending) -> None:
        handle, started = pending
        self.log.append((handle.trace_ctx, started, self.sim._now))
