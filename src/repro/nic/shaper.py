"""Traffic shaping: per-queue / per-flow token-bucket rate limiters.

The IoT experiment (§8.2.3) relies on the NIC's shaping to give each
tenant a bandwidth cap so a shared accelerator is divided fairly; the
:class:`Shaper` holds named token buckets that steering ``Meter`` actions
reference.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim import Simulator, TokenBucket


class Shaper:
    """Named rate limiters applied to packet streams.

    ``conform`` either admits a packet (consuming tokens) or reports the
    wait needed; ``police`` drops non-conforming packets outright.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._buckets: Dict[str, TokenBucket] = {}
        self.stats_dropped: Dict[str, int] = {}
        self.stats_passed: Dict[str, int] = {}
        # Per-meter shaping-delay histograms: the distribution of how long
        # conforming traffic had to wait for tokens (0 = admitted at once).
        # Empty unless telemetry is enabled.
        self._hist_delay: Dict[str, object] = {}
        if sim.telemetry.enabled:
            sim.telemetry.register_counters("shaper", lambda: {
                f"{name}.{verdict}": count
                for verdict, counts in (("passed", self.stats_passed),
                                        ("dropped", self.stats_dropped))
                for name, count in counts.items()})

    def add_limiter(self, name: str, rate_bps: float,
                    burst_bits: Optional[float] = None) -> None:
        """Create/replace limiter ``name`` at ``rate_bps``.

        Default burst is 500 us worth of tokens — deep enough to ride
        out scheduling jitter, shallow enough to enforce the rate at the
        time scales the experiments measure.
        """
        if burst_bits is None:
            burst_bits = rate_bps * 500e-6
        self._buckets[name] = TokenBucket(self.sim, rate_bps, burst_bits)
        self.stats_dropped.setdefault(name, 0)
        self.stats_passed.setdefault(name, 0)
        tele = self.sim.telemetry
        if tele.enabled:
            self._hist_delay[name] = tele.histogram(f"shaper.{name}.delay")

    def remove_limiter(self, name: str) -> None:
        self._buckets.pop(name, None)

    def has_limiter(self, name: str) -> bool:
        return name in self._buckets

    def police(self, name: str, bits: float) -> bool:
        """True when the packet conforms (admitted); False -> drop."""
        bucket = self._buckets.get(name)
        if bucket is None:
            return True  # unknown meter: pass-through
        if bucket.try_consume(bits):
            self.stats_passed[name] += 1
            return True
        self.stats_dropped[name] += 1
        return False

    def delay_for(self, name: str, bits: float) -> float:
        """Shaping delay (seconds) to make the packet conform; 0 if now."""
        bucket = self._buckets.get(name)
        if bucket is None:
            return 0.0
        delay = bucket.delay_for(bits)
        hists = self._hist_delay
        if hists:
            hists[name].observe(delay)
        return delay

    def pause(self, delay: float, resume) -> None:
        """Call ``resume()`` after a shaping ``delay``.

        The wait is the shaper's own scheduler entry (a method bound to
        this object), so the profiler attributes it to the shaper stage
        rather than to the send queue it paces.
        """
        self.sim.call_later(delay, self._resume, resume)

    def _resume(self, resume) -> None:
        resume()

    def consume(self, name: str, bits: float) -> None:
        bucket = self._buckets.get(name)
        if bucket is not None:
            bucket.consume(bits)
            self.stats_passed[name] += 1
