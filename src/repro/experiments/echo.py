"""Echo microbenchmark experiments (§8.1: Fig. 7b, Fig. 7c, Table 6,
and the mixed-size trace of §8.1.1).

``echo_throughput``, ``echo_latency``, ``trace_forwarding``,
``fldr_throughput`` and ``fldr_load_point`` each run one
:mod:`repro.scenario` row, whose traffic is the ``drive_*`` function
beside them.  :func:`open_loop` (a paced echo) and :func:`windowed`
(requests kept outstanding) drive the other families' rows too.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..models.perf import expected_echo_gbps
from ..net import ImcDatacenterSizes
from ..sim import LatencyCollector
from ..sweep import SweepPoint
from .setups import Calibration


def scenario_row(name: str, *args, **kwargs) -> Dict:
    """The result row of one :func:`repro.scenario.run` of ``name``."""
    from ..scenario import run  # the registry imports this module
    return run(name, *args, **kwargs)[0]


def open_loop(sim, loadgen, count: int, size: int, pace_bps: float = 25e9,
              flows=None, labels=None) -> Dict:
    """Offer ``count`` frames paced at ``pace_bps`` (frame ``i`` on
    ``flows[i % len(flows)]``), drain, and measure the echo (2 s)."""
    # Offer exactly line rate for this size; the measured echo rate then
    # reflects the path's capacity, not transient queueing of a burst.
    rate_pps = pace_bps / ((size + 24) * 8)

    def run(sim):
        yield from loadgen.run_open_loop_flows(
            flows, [size] * count, rate_pps=rate_pps, labels=labels)
        yield from loadgen.drain()

    sim.spawn(run(sim))
    sim.run(until=2.0)
    return {
        "size": size,
        "sent": loadgen.stats_sent,
        "received": loadgen.stats_received,
        "gbps": loadgen.rx_meter.gbps(wire_overhead_per_packet=24),
        "mpps": loadgen.rx_meter.mpps(),
    }


def windowed(sim, submit: Callable[[], None], completions, count: int,
             window: int, size: int,
             on_complete: Optional[Callable] = None) -> Tuple[int, float]:
    """Keep ``window`` requests outstanding, submitting one more per
    completion, until ``count`` complete (5 s); returns (completions,
    Gb/s of the n - 1 between the first and the last, else 0)."""
    times: List[float] = []   # completion instants

    def runner(sim):
        submitted = min(window, count)
        for _ in range(submitted):
            submit()
        while len(times) < count:
            item = yield completions.get()
            if on_complete is not None:
                on_complete(item)
            times.append(sim.now)
            if submitted < count:
                submit()
                submitted += 1

    sim.spawn(runner(sim))
    sim.run(until=5.0)
    duration = times[-1] - times[0] if times else 0.0
    if duration <= 0:
        return len(times), 0.0
    return len(times), (len(times) - 1) * size * 8 / duration / 1e9


def _scenario_row(rows: Dict[str, str], kind: str, mode: str,
                  **kwargs) -> Dict:
    if mode not in rows:
        raise ValueError(f"unknown {kind} mode {mode!r}")
    return scenario_row(rows[mode], **kwargs)


def drive_throughput(sim, setup, count: int, size: int, mode: str) -> Dict:
    line_bps = 25e9 if mode.endswith("remote") else 50e9
    result = open_loop(sim, setup.loadgen, count, size, pace_bps=line_bps)
    result["mode"] = mode
    result["model_gbps"] = expected_echo_gbps(size, line_bps, 50e9)
    return result


def echo_throughput(mode: str, size: int, count: int = 2000,
                    cal: Optional[Calibration] = None,
                    telemetry=None) -> Dict:
    """One point of Fig. 7b: echo goodput at ``size`` for a given mode.

    Modes: ``flde-remote``, ``flde-local``, ``cpu-remote`` (scenarios
    ``fig7b``, ``fig7b-local``, ``fig7b-cpu``).  Pass a
    :class:`repro.telemetry.Telemetry` to record metrics and a trace of
    the run (``python -m repro trace fig7b``).
    """
    return _scenario_row(
        {"flde-remote": "fig7b", "flde-local": "fig7b-local",
         "cpu-remote": "fig7b-cpu"}, "echo", mode,
        count=count, size=size, cal=cal, telemetry=telemetry)


def fig7b_points(sizes: Optional[List[int]] = None, count: int = 1500,
                 modes: Optional[List[str]] = None,
                 telemetry=False) -> List[SweepPoint]:
    """The Fig. 7b sweep as independent points: one per (mode, size)."""
    sizes = sizes or [64, 128, 256, 512, 1024, 1500]
    modes = modes or ["flde-remote", "flde-local", "cpu-remote"]
    return [
        SweepPoint("fig7b", "repro.experiments.echo:echo_throughput",
                   {"mode": mode, "size": size, "count": count},
                   telemetry=telemetry)
        for mode in modes for size in sizes
    ]


def drive_closed_loop(sim, setup, count: int, size: int, mode: str) -> Dict:
    loadgen = setup.loadgen

    def run(sim):
        yield from loadgen.run_closed_loop(size, count, window=1)
        yield from loadgen.drain()

    sim.spawn(run(sim))
    sim.run(until=10.0)
    summary = loadgen.latency.summary()
    return {
        "mode": mode,
        "count": len(loadgen.latency),
        "mean_us": summary["mean"] * 1e6,
        "median_us": summary["median"] * 1e6,
        "p99_us": summary["p99"] * 1e6,
        "p999_us": summary["p99.9"] * 1e6,
    }


def echo_latency(mode: str, count: int = 3000, frame_size: int = 64,
                 cal: Optional[Calibration] = None,
                 telemetry=None) -> Dict:
    """Table 6: closed-loop 64 B echo round-trip statistics (scenarios
    ``table6`` and ``table6-cpu``)."""
    return _scenario_row(
        {"flde": "table6", "cpu": "table6-cpu"}, "latency", mode,
        count=count, size=frame_size, cal=cal, telemetry=telemetry)


def table6_points(count: int = 3000, frame_size: int = 64,
                  telemetry=False) -> List[SweepPoint]:
    return [
        SweepPoint("table6", "repro.experiments.echo:echo_latency",
                   {"mode": mode, "count": count,
                    "frame_size": frame_size},
                   telemetry=telemetry)
        for mode in ("flde", "cpu")
    ]


def forwarding_points(count: int = 6000, seed: int = 7,
                      telemetry=False) -> List[SweepPoint]:
    """§8.1.1 mixed-size trace forwarding, FLD-E vs one CPU core."""
    return [
        SweepPoint("forwarding",
                   "repro.experiments.echo:trace_forwarding",
                   {"mode": mode, "count": count, "seed": seed},
                   telemetry=telemetry)
        for mode in ("flde", "cpu")
    ]


def drive_trace(sim, setup, count: int, size: Optional[int], mode: str,
                seed: int = 7) -> Dict:
    # ``size`` is unused: the trace draws every frame size.
    sizes = ImcDatacenterSizes(seed=seed).sizes(count)
    loadgen = setup.loadgen

    def run(sim):
        yield from loadgen.run_open_loop(sizes)
        yield from loadgen.drain()

    sim.spawn(run(sim))
    sim.run(until=5.0)
    return {
        "mode": mode,
        "received": loadgen.stats_received,
        "sent": loadgen.stats_sent,
        "mpps": loadgen.rx_meter.mpps(),
        "gbps": loadgen.rx_meter.gbps(24),
    }


def trace_forwarding(mode: str, count: int = 6000, seed: int = 7,
                     cal: Optional[Calibration] = None,
                     telemetry=None) -> Dict:
    """§8.1.1: forwarding the IMC-2010-like mixed-size trace (scenarios
    ``forwarding`` and ``forwarding-cpu``).

    Reports Mpps — the paper's 12.7 (FLD-E) vs 9.6 (one CPU core).
    """
    return _scenario_row(
        {"flde": "forwarding", "cpu": "forwarding-cpu"}, "trace", mode,
        count=count, cal=cal, telemetry=telemetry, seed=seed)


def drive_load(sim, setup, count: int, size: int,
               rate: Optional[float] = None) -> Dict:
    """Fig. 7c traffic: ``count`` messages at a fixed gap of 1/``rate``
    (default: half the rough saturation rate of :func:`fig7c_points`)."""
    rate = rate or 12.5e9 / ((size + 150) * 8)
    connection = setup.connection
    latency = LatencyCollector()
    sent_times: List[float] = []
    state = {"received": 0, "first_rx": None, "last_rx": None}

    def receiver(sim):
        # RC QPs are FIFO: response i answers request i.
        while True:
            _message, _cqe = yield connection.responses.get()
            index = state["received"]
            state["received"] += 1
            if index < len(sent_times):
                latency.add(sim.now - sent_times[index])
            if state["first_rx"] is None:
                state["first_rx"] = sim.now
            state["last_rx"] = sim.now

    def sender(sim):
        gap = 1.0 / rate
        for _ in range(count):
            sent_times.append(sim.now)
            connection.post(bytes(size))
            yield sim.timeout(gap)

    sim.spawn(receiver(sim))
    sim.spawn(sender(sim))
    sim.run(until=count / rate + 0.05)
    duration = ((state["last_rx"] or 0.0) - (state["first_rx"] or 0.0))
    achieved = state["received"] / duration if duration > 0 else 0.0
    return {
        "offered_mps": rate,
        "received": state["received"],
        "achieved_mps": achieved,
        "achieved_gbps": achieved * size * 8 / 1e9,
        "median_latency_us": (latency.median * 1e6
                              if len(latency) else None),
        "p99_latency_us": (latency.pct(99) * 1e6
                           if len(latency) else None),
    }


def fldr_load_point(rate: float, message_size: int = 1024,
                    local: bool = False, per_point: int = 800,
                    cal: Optional[Calibration] = None) -> Dict:
    """One Fig. 7c point: FLD-R latency at one offered request rate
    (scenarios ``fig7c`` and ``fig7c-local``).

    Runs an open-loop Poisson-ish arrival (fixed gap) and reports
    median latency and achieved throughput.
    """
    return scenario_row("fig7c-local" if local else "fig7c", per_point,
                        message_size, cal, rate=rate)


def fig7c_points(loads: Optional[List[float]] = None,
                 message_size: int = 1024, local: bool = False,
                 per_point: int = 800) -> List[SweepPoint]:
    """Fig. 7c: FLD-R 1 KiB message latency as load increases."""
    if loads is None:
        peak = 25e9 / ((message_size + 150) * 8)  # rough saturation rate
        loads = [peak * f for f in (0.1, 0.3, 0.5, 0.7, 0.8, 0.9)]
    return [
        SweepPoint("fig7c", "repro.experiments.echo:fldr_load_point",
                   {"rate": rate, "message_size": message_size,
                    "local": local, "per_point": per_point})
        for rate in loads
    ]


def drive_fldr(sim, setup, count: int, size: int, mode: str,
               window: int = 64) -> Dict:
    connection = setup.connection
    # Application-layer flow control (§5.5): keep the outstanding bytes
    # within FLD's on-chip buffering so the no-backpressure rx stream is
    # never overrun.
    window = max(4, min(window, (128 * 1024) // max(size, 1)))
    received, gbps = windowed(sim, lambda: connection.post(bytes(size)),
                              connection.responses, count, window, size)
    return {
        "mode": mode,
        "size": size,
        "received": received,
        "gbps": gbps,
        "segments_per_message": max(1, -(-size // 1024)),
    }


def fldr_throughput(size: int, count: int = 400, window: int = 64,
                    local: bool = False,
                    cal: Optional[Calibration] = None,
                    telemetry=None) -> Dict:
    """Fig. 7b's right column: FLD-R echo goodput at ``size`` (scenarios
    ``fldr`` and ``fldr-local``).

    Messages above the 1024 B RoCE MTU exercise the NIC's hardware
    segmentation — the transport offload FLD gets for free (§8.1.2).
    """
    return scenario_row("fldr-local" if local else "fldr", count, size, cal,
                        telemetry, window=window)


def fldr_points(sizes: Optional[List[int]] = None, count: int = 400,
                window: int = 64, local: bool = False,
                telemetry=False) -> List[SweepPoint]:
    """Fig. 7b's FLD-R column: RDMA echo goodput per message size."""
    sizes = sizes or [64, 256, 512, 1024, 4096, 8192]
    return [
        SweepPoint("fig7b-fldr",
                   "repro.experiments.echo:fldr_throughput",
                   {"size": size, "count": count, "window": window,
                    "local": local},
                   telemetry=telemetry)
        for size in sizes
    ]
