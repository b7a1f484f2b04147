"""The polling waits, kept as the reference for the parked ones.

``LoadGenerator.run_closed_loop`` and ``EthQueuePair.wait_for_tx_space``
as they stood when every wait was a loop of ``timeout`` Events: one
engine event, one ``Event`` and one generator step per empty poll.  The
bodies are copied verbatim, with two edits: the closed loop reaches the
oracle's ``wait_for_tx_space``, not the queue pair's, and it counts
responses from the generator's total at loop entry (``base``), as the
parked loop does, so ``tests/host/test_poll_oracle.py`` can hold the parked
:class:`~repro.sim.PollWait` forms to the same instants.
``poll_for_tx_space`` is the third polling wait: what
``_FlatPacer._tick`` and ``EchoApp._transmit`` did inline when the SQ
was full, spelled as the ``park_for_tx_space`` it stands in for.  These
are reference implementations: do not optimise them.
"""

TX_POLL = 100e-9


def wait_for_tx_space(self, slots: int = 1, poll: float = 100e-9):
    """Generator: spin (as a PMD would) until the SQ has room."""
    while self.tx_free < slots:
        yield self.sim.timeout(poll)


def run_closed_loop(self, frame_size: int, count: int, window: int = 1):
    """Generator process: keep ``window`` requests in flight."""
    self.rx_meter.start(self.sim.now)
    base = self.stats_received
    outstanding = 0
    sent = 0
    while sent < count:
        while outstanding < window and sent < count:
            yield from wait_for_tx_space(self.qp)
            self._send_frame(frame_size)
            self.stats_sent += 1
            sent += 1
            outstanding += 1
        received_target = base + sent - window + 1
        while self.stats_received < received_target:
            yield self.sim.timeout(200e-9)  # poll loop granularity
        outstanding = base + sent - self.stats_received
    while self.stats_received < base + count and self.sim.now < 10.0:
        yield self.sim.timeout(1e-6)


def poll_for_tx_space(self, func, arg=None, slots: int = 1):
    """``func`` found the SQ full: call it again one poll period on (it
    re-reads ``tx_free`` and lands here again while there is none)."""
    self.sim.call_later(TX_POLL, func, arg)
