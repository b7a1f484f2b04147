"""The disaggregated ZUC accelerator experiments (§8.2.1, Fig. 8).

Measures encryption throughput and latency through the DPDK-style
cryptodev API, comparing:

* the **remote FLD accelerator** (8 ZUC units over FLD-R / 25 GbE),
* the **CPU software driver** (one core running the real cipher at
  IPsec-MB-class cycles/byte),
* the **performance model** upper bound (RoCE + application headers).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..host import CpuComputeCost, CpuCore
from ..models.perf import zuc_model_gbps
from ..sim import LatencyCollector, Simulator
from ..sweep import SweepPoint
from ..sw import CryptoOp, FldRZucCryptodev, SwZucCryptodev
from .echo import scenario_row, windowed
from .setups import Calibration

#: Software ZUC cost: Intel IPsec-MB class performance (§8.2.1's CPU
#: baseline reaches ~1/4 of the accelerator at 512 B requests).
SW_CYCLES_PER_BYTE = 3.0
SW_CYCLES_PER_OP = 600


def _cipher(sim, dev, count: int, size: int, window: int,
            mode: str) -> Dict:
    """Closed-loop with ``window`` outstanding ops (test-crypto-perf)."""
    key = bytes(range(16))
    latency = LatencyCollector()
    completed, gbps = windowed(
        sim, lambda: dev.submit(CryptoOp(CryptoOp.CIPHER, key, bytes(size))),
        dev.completions, count, window, size,
        on_complete=lambda op: latency.add(op.latency))
    return {
        "size": size,
        "completed": completed,
        "gbps": gbps,
        "median_latency_us": latency.median * 1e6 if len(latency) else None,
        "p99_latency_us": latency.pct(99) * 1e6 if len(latency) else None,
        "mode": mode,
        "window": window,
        "model_gbps": zuc_model_gbps(size),
    }


def drive(sim, setup, count: int, size: int, window: int = 64) -> Dict:
    """Fig. 8a traffic against :func:`~.setups.zuc_service`."""
    return _cipher(sim, FldRZucCryptodev(sim, setup.connection), count,
                   size, window, "fld")


def fld_throughput(size: int, count: int = 400, window: int = 64,
                   cal: Optional[Calibration] = None) -> Dict:
    """One Fig. 8a point for the remote accelerator (scenario
    ``fig8a``)."""
    return scenario_row("fig8a", count, size, cal, window=window)


def cpu_throughput(size: int, count: int = 400, window: int = 16,
                   cal: Optional[Calibration] = None) -> Dict:
    """One Fig. 8a point for the single-core software baseline: one
    core and a software cryptodev, no testbed."""
    sim = Simulator()
    cal = cal or Calibration()
    core = CpuCore(sim, cal.cpu_frequency_hz, os_jitter_probability=0.0)
    compute = CpuComputeCost(core, SW_CYCLES_PER_BYTE, SW_CYCLES_PER_OP)
    return _cipher(sim, SwZucCryptodev(sim, compute), count, size, window,
                   "cpu")


def fig8a_points(sizes: Optional[List[int]] = None,
                 count: int = 300) -> List[SweepPoint]:
    """Fig. 8a as independent points: (implementation, request size)."""
    return [SweepPoint("fig8a", f"repro.experiments.zuc:{impl}_throughput",
                       {"size": size, "count": count})
            for size in sizes or [64, 128, 256, 512, 1024, 2048, 4096]
            for impl in ("fld", "cpu")]


def fig8b_points(loads: Optional[List[int]] = None, size: int = 512,
                 count: int = 300) -> List[SweepPoint]:
    """Fig. 8b as independent points: one per (implementation, window).

    ``loads`` are window sizes (outstanding requests) — the knob
    test-crypto-perf uses to raise utilization.
    """
    return [SweepPoint("fig8b", f"repro.experiments.zuc:{impl}_throughput",
                       {"size": size, "count": count, "window": window})
            for window in loads or [1, 2, 4, 8, 16, 32, 64]
            for impl in ("fld", "cpu")]
