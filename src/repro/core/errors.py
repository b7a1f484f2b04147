"""FLD data-plane error detection and reporting (§5.3 "Error Handling").

FLD detects data-plane errors (NIC error completions, protocol
violations) and reports them to software through its kernel driver; like
RDMA Verbs, recovery is left to the control-plane application.
"""

from __future__ import annotations

from ..sim import Simulator, Store


class FldError:
    """One reported error record."""

    __slots__ = ("kind", "queue", "syndrome", "detail", "time")

    CQE_ERROR = "cqe_error"
    RING_OVERFLOW = "ring_overflow"
    TRANSLATION_MISS = "translation_miss"
    BUFFER_EXHAUSTED = "buffer_exhausted"

    def __init__(self, kind: str, queue: int = 0, syndrome: int = 0,
                 detail: str = "", time: float = 0.0):
        self.kind = kind
        self.queue = queue
        self.syndrome = syndrome
        self.detail = detail
        self.time = time

    def __repr__(self) -> str:
        return (
            f"FldError({self.kind}, q={self.queue}, "
            f"syndrome={self.syndrome}, t={self.time:.6f})"
        )


class ErrorReporter:
    """The hardware side of the error channel to the kernel driver."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.channel = Store(sim, name="fld.errors")
        self.stats_reported = 0

    def report(self, kind: str, queue: int = 0, syndrome: int = 0,
               detail: str = "") -> FldError:
        error = FldError(kind, queue, syndrome, detail, self.sim.now)
        self.channel.try_put(error)
        self.stats_reported += 1
        return error
