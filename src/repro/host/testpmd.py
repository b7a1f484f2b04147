"""DPDK-testpmd-style applications: echo forwarding and load generation.

These drive the experiments of §8.1: a load generator stamps sequence
numbers into payloads and measures echo round-trips; the echo app is the
CPU baseline FLD-E is compared against (Table 6, Fig. 7b).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional

from ..net import Flow, Packet
from ..net.ip import PROTO_TCP
from ..net.parse import ETHERTYPE, L3, L4, PAYLOAD, parse_layout
from ..sim import (Event, LatencyCollector, PollWait, Pump, Simulator,
                   Store, ThroughputMeter)
from .driver import EthQueuePair

_SEQ_FORMAT = "!Q"
_SEQ_SIZE = struct.calcsize(_SEQ_FORMAT)

# Byte offsets inside a non-TCP load-gen frame (Eth 14 + IPv4 20 + UDP 8):
# the only bytes that change from one frame to the next on a given flow.
_IP_IDENT_OFF = 18
_IP_CSUM_OFF = 24
_PAYLOAD_OFF = 42


def swap_frame(data: bytes, layout: Optional[tuple] = None) -> bytes:
    """Reverse a frame's MACs/IPs/ports — the essence of an echo app —
    bytes in, bytes out, parsed once (``layout`` is ``data``'s, for a
    caller that already holds it).

    A byte swap in place of the frame: one's-complement sums commute,
    so no checksum moves.
    """
    if layout is None:
        layout = parse_layout(data)
    if layout[ETHERTYPE] is None:
        return data
    frame = bytearray(data)
    frame[0:6], frame[6:12] = data[6:12], data[0:6]
    l3 = layout[L3]
    if l3 is not None:
        frame[l3 + 12:l3 + 16], frame[l3 + 16:l3 + 20] = (
            data[l3 + 16:l3 + 20], data[l3 + 12:l3 + 16])
    l4 = layout[L4]
    if l4 is not None:
        frame[l4:l4 + 2], frame[l4 + 2:l4 + 4] = (
            data[l4 + 2:l4 + 4], data[l4:l4 + 2])
    return bytes(frame)


def swap_directions(packet: Packet) -> Packet:
    """:func:`swap_frame` on a packet the caller keeps."""
    layout = packet.layout or packet.fields()
    raw = swap_frame(packet.raw, layout)
    if raw is not packet.raw:
        packet.raw = raw
        # Swapped ports can change what the frame is (a tunnel or RoCE
        # port moving into the destination slot).
        packet.layout = parse_layout(raw)
    return packet


#: How often the closed loop re-reads the receive count: while its
#: window is full, and once everything is sent and it awaits the rest.
_WINDOW_POLL = 200e-9
_TAIL_POLL = 1e-6


class EchoApp:
    """CPU echo server: receive, swap addresses, transmit back."""

    def __init__(self, qp: EthQueuePair):
        self.qp = qp
        self.qp.on_receive = self._on_receive
        # Bounded app queue: a real run-to-completion PMD would stop
        # polling the RQ instead, with the same drop-at-overrun effect.
        self._pending = Store(qp.sim, capacity=4096, name="echo.pending")
        self._spans = qp.sim.telemetry.spans
        self.stats_echoed = 0
        # The tx-space wakes this app parks for file under its stage.
        self.profile_tag = "echo.tx"
        self._pump = Pump(qp.sim, self._pending, self._echo,
                          self.profile_tag)

    @property
    def stats_dropped(self) -> int:
        return self._pending.stats_dropped

    def _on_receive(self, data: bytes, cqe) -> None:
        # Thread the frame's layout and trace context through the app
        # queue alongside the enqueue time, so the worker can split
        # app-queueing from the echo turnaround itself.
        self._pending.try_put((data, cqe.layout, cqe.trace_ctx,
                               self.qp.sim._now))

    def _echo(self, item):
        data, layout, ctx, enqueued = item
        started = self.qp.sim._now
        if ctx is not None and started > enqueued:
            self._spans.record(ctx, "host.tx", enqueued, started,
                               kind="queue")
        return self._transmit((swap_frame(data, layout), ctx, started))

    def _transmit(self, entry):
        """Post the echo; False (the pump pauses) while the SQ is full."""
        qp = self.qp
        if qp.tx_free < 1:
            qp.park_for_tx_space(self._retry, entry)
            return False
        data, ctx, started = entry
        qp.send(data, trace_ctx=ctx)
        if ctx is not None:
            self._spans.record(ctx, "host.tx", started, qp.sim._now)
        self.stats_echoed += 1
        return True

    def _retry(self, entry) -> None:
        if self._transmit(entry):
            self._pump.resume()


class _FlatPacer:
    """The open-loop send loop, as one scheduler entry per pacing tick.

    Each tick builds and posts one frame through
    :meth:`LoadGenerator._send_frame` (which also starts the packet's
    trace when spans are on) and schedules the next; a tick that finds
    the SQ full parks on the queue pair.
    """

    __slots__ = ("gen", "sizes", "interval", "done", "flows", "labels",
                 "_index")

    def __init__(self, gen: "LoadGenerator", sizes: List[int],
                 interval: float, done: Event,
                 flows: Optional[List[Flow]] = None,
                 labels: Optional[List[str]] = None):
        self.gen = gen
        self.sizes = sizes
        self.interval = interval
        self.done = done
        self.flows = flows
        self.labels = labels
        self._index = 0

    @property
    def profile_tag(self):
        # The loop is its caller's: it files under whoever waits on
        # ``done`` (the driving process).
        return self.done.profile_tag

    def _tick(self, _arg=None) -> None:
        gen = self.gen
        sim = gen.sim
        if gen.qp.tx_free < 1:
            gen.qp.park_for_tx_space(self._tick)
            return
        index = self._index
        flows = self.flows
        if flows is not None:
            gen.flow = flows[index % len(flows)]
            labels = self.labels
            if labels is not None:
                gen.trace_label = labels[index % len(flows)]
        gen._send_frame(self.sizes[index])
        gen.stats_sent += 1
        index += 1
        self._index = index
        if index < len(self.sizes):
            sim.call_later(self.interval, self._tick, None)
        else:
            # Pace once more after the last frame, then release the
            # caller.
            sim.call_later(self.interval, self.done.succeed, None)


class _FlatWindow:
    """The closed-loop send loop, as one scheduler entry per wait.

    :meth:`_fill` posts frames until ``window`` are outstanding, parking
    on the queue pair when the SQ is full; the wait for the window to
    open is parked on the generator's receive path; :meth:`_opened`
    recounts what is outstanding when that wait ends and either fills
    again or, with everything sent, awaits the remaining responses.
    Responses are counted from the generator's total at loop entry: an
    earlier loop's responses answer none of this loop's frames.
    """

    __slots__ = ("gen", "frame_size", "count", "window", "done", "_sent",
                 "_outstanding", "_base")

    def __init__(self, gen: "LoadGenerator", frame_size: int, count: int,
                 window: int, done: Event):
        self.gen = gen
        self.frame_size = frame_size
        self.count = count
        self.window = window
        self.done = done
        self._sent = 0
        self._outstanding = 0
        self._base = gen.stats_received

    profile_tag = _FlatPacer.profile_tag

    def _fill(self, _arg=None) -> None:
        gen = self.gen
        qp = gen.qp
        while self._outstanding < self.window and self._sent < self.count:
            if qp.tx_free < 1:
                qp.park_for_tx_space(self._fill)
                return
            gen._send_frame(self.frame_size)
            gen.stats_sent += 1
            self._sent += 1
            self._outstanding += 1
        gen._when_received(self._base + self._sent - self.window + 1,
                           _WINDOW_POLL, self._opened)

    def _opened(self, _arg=None) -> None:
        gen = self.gen
        self._outstanding = self._base + self._sent - gen.stats_received
        if self._sent < self.count:
            self._fill()
        else:
            gen._when_received(self._base + self.count, _TAIL_POLL,
                               self.done.succeed)


class LoadGenerator:
    """Sends sized frames on a flow and measures echoed responses."""

    def __init__(self, sim: Simulator, qp: EthQueuePair, flow: Flow):
        self.sim = sim
        self.qp = qp
        self.flow = flow
        self.qp.on_receive = self._on_receive
        self.latency = LatencyCollector("echo-rtt")
        self.rx_meter = ThroughputMeter("echo-rx")
        self._sent_at: Dict[int, float] = {}
        self._seq = 0
        self.stats_sent = 0
        self.stats_received = 0
        #: ``(target, PollWait)`` while the closed loop awaits responses.
        self._awaiting: Optional[tuple] = None
        self._spans = sim.telemetry.spans
        #: Prefix for per-packet trace names (``<label>.seq<n>``); the
        #: N-tenant experiment swaps it per flow so the tenant's name
        #: flows into the span layer.
        self.trace_label = "echo"

    def _frame_from_packet(self, frame_size: int) -> bytes:
        """Build the next frame through the packet path, sequence
        number stamped at the head of the payload."""
        packet = self.flow.make_sized_packet(frame_size)
        payload = bytearray(packet.payload)
        if len(payload) < _SEQ_SIZE:
            payload.extend(bytes(_SEQ_SIZE - len(payload)))
        struct.pack_into(_SEQ_FORMAT, payload, 0, self._seq)
        packet.payload = bytes(payload)
        return packet.to_bytes()

    def _send_frame(self, frame_size: int) -> None:
        """Build the next stamped frame, start its trace and hand it to
        the QP.

        A TCP flow's sequence number moves with every payload byte, so
        its frames take the packet path.  Consecutive frames on one UDP
        flow differ only in the IP ident, the IP header checksum and the
        payload sequence stamp (the UDP checksum is left zero), so the
        frame is built once per (flow, size) through the packet path
        and cached on the flow, and the three fields are patched in
        place — bit-identical to building each frame.
        """
        spans = self._spans
        started = self.sim._now
        seq = self._seq
        ctx = (spans.start_trace(f"{self.trace_label}.seq{seq}", started)
               if spans.enabled else None)
        flow = self.flow
        if flow.proto == PROTO_TCP:
            frame = self._frame_from_packet(frame_size)
        else:
            try:
                cache = flow._frame_templates
            except AttributeError:
                cache = flow._frame_templates = {}
            identity = (flow.src_mac.value, flow.dst_mac.value,
                        flow.src_ip.value, flow.dst_ip.value,
                        flow.src_port, flow.dst_port, flow.proto)
            entry = cache.get(frame_size)
            if entry is None or entry[0] != identity:
                # Building the template consumes one ident on the flow;
                # restore it so the build is invisible to the ident
                # sequence.  Built inline, not by _frame_from_packet:
                # mixed-size traffic builds a template for about a third
                # of its frames.
                saved_ident = flow._ident
                packet = flow.make_sized_packet(frame_size)
                flow._ident = saved_ident
                payload = bytearray(packet.payload)
                if len(payload) < _SEQ_SIZE:
                    payload.extend(bytes(_SEQ_SIZE - len(payload)))
                packet.payload = bytes(payload)
                template = bytearray(packet.to_bytes())
                # One's-complement sum of the IP header words minus the
                # ident and checksum fields; each frame's checksum is
                # then ~fold(base + ident), exactly what Ipv4.pack
                # computes.
                base = 0
                for off in range(14, 34, 2):
                    if off != _IP_IDENT_OFF and off != _IP_CSUM_OFF:
                        base += (template[off] << 8) | template[off + 1]
                entry = (identity, template, base)
                cache[frame_size] = entry
            template = entry[1]
            ident = flow.next_ident()
            total = entry[2] + ident
            while total >> 16:
                total = (total & 0xFFFF) + (total >> 16)
            struct.pack_into("!H", template, _IP_IDENT_OFF, ident)
            struct.pack_into("!H", template, _IP_CSUM_OFF, (~total) & 0xFFFF)
            struct.pack_into(_SEQ_FORMAT, template, _PAYLOAD_OFF, seq)
            frame = bytes(template)
        self._sent_at[seq] = started
        self._seq = seq + 1
        self.qp.send(frame, trace_ctx=ctx)
        if ctx is not None:
            spans.record(ctx, "host.tx", started, self.sim._now)

    def _on_receive(self, data: bytes, cqe) -> None:
        length = len(data)
        payload_at = (cqe.layout or parse_layout(data))[PAYLOAD]
        if length - payload_at >= _SEQ_SIZE:
            (seq,) = struct.unpack_from(_SEQ_FORMAT, data, payload_at)
            sent = self._sent_at.pop(seq, None)
            if sent is not None:
                self.latency.add(self.sim._now - sent)
        self.stats_received += 1
        self.rx_meter.record(self.sim._now, length)
        if cqe.trace_ctx is not None:
            self._spans.end_trace(cqe.trace_ctx, self.sim._now)
        awaiting = self._awaiting
        if awaiting is not None and self.stats_received >= awaiting[0]:
            self._awaiting = None
            awaiting[1].wake()

    def _when_received(self, target: int, step: float, func) -> None:
        """``func(None)`` once ``target`` responses are in: now, or at
        the poll (every ``step`` from now) that first counts them."""
        if self.stats_received >= target:
            func(None)
        else:
            self._awaiting = (target, PollWait(self.sim, step, func))

    # -- traffic patterns --------------------------------------------------

    def run_closed_loop(self, frame_size: int, count: int, window: int = 1):
        """Generator process: keep ``window`` requests in flight.

        The window is re-read every 200 ns while it is full and the last
        responses every 1 us, as a PMD's poll loop would, but the loop
        is parked between the polls that matter (:class:`_FlatWindow`).
        It waits for every response: a run that loses one never
        finishes this script.
        """
        self.rx_meter.start(self.sim._now)
        done = Event(self.sim)
        _FlatWindow(self, frame_size, count, window, done)._fill()
        yield done

    def run_open_loop(self, sizes: List[int], rate_pps: Optional[float] = None,
                      gap: Optional[float] = None):
        """Generator process: send one frame per ``sizes`` entry.

        ``rate_pps`` paces packets; ``gap`` overrides with a fixed gap;
        neither means best-effort back-to-back (the NIC/driver become the
        bottleneck).
        """
        return self.run_open_loop_flows(None, sizes, rate_pps, gap)

    def run_open_loop_flows(self, flows: Optional[List[Flow]],
                            sizes: List[int],
                            rate_pps: Optional[float] = None,
                            gap: Optional[float] = None,
                            labels: Optional[List[str]] = None):
        """Generator process: like :meth:`run_open_loop`, cycling frame
        ``i`` onto ``flows[i % len(flows)]``.

        With one flow this is event-for-event identical to
        :meth:`run_open_loop` — the N-tenant scaling experiment leans on
        that for its N=1 equivalence to the single-tenant echo.
        ``labels`` (parallel to ``flows``) names each flow's traces.
        """
        self.rx_meter.start(self.sim._now)
        if not sizes:
            return
        interval = gap if gap is not None else (
            1.0 / rate_pps if rate_pps else 0.0
        )
        # Back-to-back still yields to the event loop once per packet
        # (1 ns), so the sender cannot outrun the simulated wire by an
        # unbounded queue.
        done = Event(self.sim)
        _FlatPacer(self, list(sizes), interval if interval > 0 else 1e-9,
                   done, flows=flows and list(flows), labels=labels)._tick()
        yield done

    def drain(self, quiet_period: float = 50e-6, limit: float = 1.0):
        """Generator: wait until responses stop arriving."""
        last = -1
        start = self.sim._now
        while self.sim._now - start < limit:
            if self.stats_received == last:
                return
            last = self.stats_received
            yield self.sim.timeout(quiet_period)
