"""The PCIe fabric: ports, a switch, and TLP routing.

Topology mirrors the Innova-2 (paper Fig. 6): every attached endpoint gets
a full-duplex port into one logical switch; peer-to-peer TLPs cross the
sender's upstream lane and the receiver's downstream lane, so a device's
link bandwidth is shared by all traffic through it — exactly the resource
the paper's §8.1 performance model budgets.

Reads are split transactions: a header-only request TLP travels to the
completer, which answers with one or more completion-with-data TLPs
(split at the RCB).  Writes are posted.  All TLP handling is functional
*and* timed: handlers run with real bytes when the initiator provides
them, and every TLP pays serialization on both lanes it crosses.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Dict, List, Optional

from ..sim import Event, Link, Simulator
from ..sim.resources import ARRIVAL, DELIVERY, FINISH, SEQ, Reservation
from .config import PcieLinkConfig
from .endpoint import Bar, PcieEndpoint, PcieError
from .tlp import (
    COMPLETION_HEADER,
    DLLP_FRAMING,
    MEM_REQUEST_HEADER,
    completion_chunks,
    split_write_bytes,
)

#: Link bits of a memory request's header and framing — all of an MRd,
#: and what an MWr adds to its payload — and of a completion's.
_REQUEST_BITS = (MEM_REQUEST_HEADER + DLLP_FRAMING) * 8
_COMPLETION_BITS = (COMPLETION_HEADER + DLLP_FRAMING) * 8


#: ``post_write(..., on_done=POSTED)``: nobody waits for the write to
#: land — no completion Event is built and nothing is called back.
POSTED = object()


def _trace_tlps(lane: Link, records, first_hops) -> None:
    """Write delivered TLPs' Chrome-trace lane slices (``lane._tracer``
    is set): first each ``(link, record)`` of ``first_hops`` — a first
    hop that took a record of its own (see ``_reserve_path``), a write
    train's earlier chunks — then the downstream ``records``.  All are
    final now."""
    for up, up_record in first_hops:
        up.trace_occupancy(up_record)
    for record in records:
        lane.trace_occupancy(record)


class _WriteCountdown:
    """Completion countdown for a multi-TLP posted write (a single TLP's
    delivery tuple carries its own span and callback)."""

    __slots__ = ("remaining", "fabric", "span_id", "done")

    def __init__(self, remaining, fabric, span_id, done):
        self.remaining = remaining
        self.fabric = fabric
        self.span_id = span_id
        self.done = done    # zero-argument completion callable, or None

    def __call__(self):
        self.remaining -= 1
        if self.remaining == 0:
            span_id = self.span_id
            if span_id is not None and span_id.end is None:
                span_id.end = self.fabric.sim._now
            if self.done is not None:
                self.done()


class DeferredWrite(list):
    """A posted write whose delivery the initiator folds into its own
    continuation event.

    A list, built in one C-level call like a lane
    :class:`~repro.sim.resources.Reservation`: ``_reserve_path``'s
    delivery-tuple head, then the side band, by slot::

        RECORD TARGET ENDPOINT OFFSET FIRST_HOPS DATA TRACE_CTX SPAN
        FRAME FABRIC

    ``data`` is the payload that will land and ``trace_ctx`` the TLP's
    context, so a consumer reads the write itself; a receive CQE's
    ``frame`` is the ``(bytes, layout)`` the NIC parsed of the frame it
    completes (else ``None``).  ``handle[0][DELIVERY]`` is the TLP's
    arrival at the endpoint: re-read it at fire time, since shared-lane
    arbitration may repair it.  The owner calls :meth:`commit` from its
    continuation at (or after) that arrival, which runs the endpoint's
    write handler as the fabric's own delivery event would have; a
    traced write's span, opened at issue, closes at the arrival.
    """

    __slots__ = ()

    data = property(itemgetter(5))
    trace_ctx = property(itemgetter(6))
    frame = property(itemgetter(8))

    def commit(self) -> None:
        span_id = self[7]
        if span_id is not None and span_id.end is None:
            span_id.end = self[0][DELIVERY]
        self[9]._write_arrived(self[:7] + [None, None, None])

    def retire(self) -> None:
        """Deliver without running the handler — for owners that
        already applied the write's effects themselves (e.g. a CQE
        decoded at issue time)."""
        record = self[0]
        down = self[1].down
        if down._tracer is not None:
            _trace_tlps(down, (record,), self[4])
        span_id = self[7]
        if span_id is not None and span_id.end is None:
            span_id.end = record[DELIVERY]


class _Port:
    """A device's two lanes into the switch, and the TLP payload bytes
    that crossed each: the header share (lane bytes minus payload) is
    what makes Fig. 7a's claim — small packets drown in PCIe protocol
    overhead — observable from a run, not only from the analytic model.
    """

    def __init__(self, sim: Simulator, endpoint: PcieEndpoint,
                 config: PcieLinkConfig):
        rate = config.effective_data_bps
        self.endpoint = endpoint
        self.config = config
        # Split the configured one-way latency across the two hops.
        hop_latency = config.latency / 2
        self.up = Link(sim, rate, hop_latency, name=f"{endpoint.name}.up")
        self.down = Link(sim, rate, hop_latency, name=f"{endpoint.name}.down")
        for lane in (self.up, self.down):
            lane.trace_process = "pcie"
            lane.trace_name = "Tlp"
        self.up_payload_bytes = 0
        self.down_payload_bytes = 0
        #: Routes this port has used: ``(base, end, endpoint, target
        #: port)`` per BAR window, resolved on first use so a TLP only
        #: range-checks the handful of windows its requester talks to.
        #: The fabric drops them whenever its address map changes.
        self.routes: List[tuple] = []
        self.reads_pending = 0
        telemetry = sim.telemetry
        if telemetry.enabled:
            telemetry.register_counters(
                f"pcie.{endpoint.name}",
                lambda: {
                    "up.tlps": self.up.stats_messages,
                    "up.payload_bytes": self.up_payload_bytes,
                    "up.header_bytes": (self.up.stats_bits // 8
                                        - self.up_payload_bytes),
                    "down.tlps": self.down.stats_messages,
                    "down.payload_bytes": self.down_payload_bytes,
                    "down.header_bytes": (self.down.stats_bits // 8
                                          - self.down_payload_bytes),
                },
            )
            telemetry.register_probe(
                f"pcie.{endpoint.name}",
                lambda: {
                    "up.bits": self.up.stats_bits,
                    "up.messages": self.up.stats_messages,
                    "down.bits": self.down.stats_bits,
                    "down.messages": self.down.stats_messages,
                },
            )


class PcieFabric:
    """Address-routed TLP switch connecting endpoints."""

    # Wire transit and switching dispatch as bound fabric methods; the
    # profiler attributes those heap events to the pcie stage.
    profile_tag = "pcie"

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._ports: Dict[str, _Port] = {}
        self._bars: List[Bar] = []
        self._decode_bases: List[int] = []
        self._decode_bars: List[Bar] = []
        self.stats_tlps: Dict[str, int] = {"MRd": 0, "MWr": 0, "CplD": 0}
        self._spans = sim.telemetry.spans
        prof = sim.profiler
        self._prof = prof if prof.enabled else None
        # Transit is cut-through: the route is resolved and both lanes
        # reserved at issue time, with one delivery event per TLP (and
        # one per multi-TLP train).  Lane arbitration is exact:
        # reservations apply in switch-arrival (time, seq) order (see
        # Link.reserve), ties broken by this monotonic per-TLP issue
        # sequence.  The Chrome tracer's lane spans are written by the
        # delivery handlers, once repair can no longer move them.
        self._issue_seq = 0
        # The trace context of the MEM_WRITE currently being delivered
        # (else None); endpoints may read it inside handle_write to
        # re-associate a packed descriptor with its packet (object
        # identity dies at the byte boundary).
        self.inbound_trace_ctx = None

    # -- topology ---------------------------------------------------------

    def attach(self, endpoint: PcieEndpoint,
               config: Optional[PcieLinkConfig] = None) -> None:
        """Give ``endpoint`` a port; required before it can initiate TLPs."""
        if endpoint.name in self._ports:
            raise PcieError(f"endpoint {endpoint.name!r} already attached")
        port = _Port(self.sim, endpoint, config or PcieLinkConfig())
        self._ports[endpoint.name] = port
        endpoint.fabric = self
        endpoint._port = port

    def detach(self, endpoint: PcieEndpoint) -> None:
        """Remove ``endpoint``'s port (teardown); BARs must go first."""
        for bar in self._bars:
            if bar.endpoint is endpoint:
                raise PcieError(
                    f"endpoint {endpoint.name!r} still decodes {bar}")
        if self._ports.pop(endpoint.name, None) is None:
            raise PcieError(f"endpoint {endpoint.name!r} not attached")
        if endpoint.fabric is self:
            endpoint.fabric = None
            endpoint._port = None

    def map_window(self, base: int, size: int, endpoint: PcieEndpoint) -> Bar:
        """Claim [base, base+size) in the fabric address space."""
        bar = Bar(base, size, endpoint)
        for existing in self._bars:
            if bar.overlaps(existing):
                raise PcieError(f"{bar} overlaps {existing}")
        self._bars.append(bar)
        self._rebuild_decode_index()
        return bar

    def unmap_window(self, base: int) -> Bar:
        """Release the BAR claimed at ``base`` (teardown path)."""
        for i, bar in enumerate(self._bars):
            if bar.base == base:
                del self._bars[i]
                self._rebuild_decode_index()
                return bar
        raise PcieError(f"no window mapped at {base:#x}")

    def _rebuild_decode_index(self) -> None:
        """Base-sorted decode index; BARs never overlap so a bisect on
        bases finds the unique candidate window for any address."""
        ordered = sorted(self._bars, key=lambda bar: bar.base)
        self._decode_bases = [bar.base for bar in ordered]
        self._decode_bars = ordered
        for port in self._ports.values():
            port.routes.clear()

    def decode(self, address: int) -> Bar:
        index = bisect_right(self._decode_bases, address) - 1
        if index >= 0:
            bar = self._decode_bars[index]
            if address < bar.base + bar.size:
                return bar
        raise PcieError(f"address {address:#x} does not decode to any BAR")

    def port_of(self, endpoint: PcieEndpoint) -> _Port:
        # Attached initiators carry their port (set by attach) — one
        # identity check instead of a name hash on every transaction.
        if endpoint.fabric is self:
            return endpoint._port
        try:
            return self._ports[endpoint.name]
        except KeyError:
            raise PcieError(f"endpoint {endpoint.name!r} not attached") from None

    def reads_in_flight(self) -> Dict[str, int]:
        """Reads still awaiting their completion, by requester name."""
        return {name: port.reads_pending
                for name, port in self._ports.items() if port.reads_pending}

    # -- transactions -------------------------------------------------------
    #
    # A transaction in flight is its downstream lane record plus the
    # tuple its delivery event carries; there is no TLP object.  Wire
    # occupancy comes from the header constants above, the route from
    # the requester port's memo.

    def post_write(self, requester: PcieEndpoint, address: int,
                   data: bytes = None, length: int = None,
                   trace_ctx=None, trace_stage: str = "pcie.write",
                   on_done=None) -> Optional[Event]:
        """A posted memory write; the event fires when the last TLP lands.

        Pass ``data`` for functional writes or just ``length`` for
        timing-only traffic.  With ``trace_ctx`` the write is recorded
        as a ``trace_stage`` span on the packet's trace, and the
        context rides the TLPs so the receiving endpoint can claim it
        (``inbound_trace_ctx``) across the byte boundary.

        Flattened initiators that only need a completion *callback* pass
        ``on_done`` (a zero-argument callable) instead of chaining on
        the returned event: the write then skips the Event allocation
        entirely, invokes the callback at the exact instant the event
        would have fired (after the span, if any, has closed), and
        returns None.  Initiators that never look back — doorbells,
        MMIO — pass ``on_done=POSTED``: no Event, no callback.
        """
        port = (requester._port if requester.fabric is self
                else self.port_of(requester))
        if data is None and length is None:
            raise PcieError("write needs data or length")
        total = len(data) if data is not None else length
        mps = port.config.max_payload_size
        span_id = (None if trace_ctx is None else
                   self._spans.enter(trace_ctx, trace_stage, self.sim._now))
        if on_done is None:
            done = Event(self.sim)
            finish = done.succeed
        else:
            done = None
            finish = None if on_done is POSTED else on_done
        sim = self.sim

        if 0 < total <= mps:
            # Single-TLP fast path — the common case for descriptors,
            # CQEs, doorbells and small-packet payloads.
            self.stats_tlps["MWr"] += 1
            path = self._reserve_path(
                port, address, total, _REQUEST_BITS + total * 8)
            sim.call_later(path[0][DELIVERY] - sim._now, self._write_arrived,
                           path + (data, trace_ctx, span_id, finish, None))
            return done

        chunks = split_write_bytes(total, mps) or [0]
        route = self._route(port, address)
        if address + max(total, 1) - 1 < route[1]:
            # Whole train decodes to one endpoint: reserve every TLP's
            # lane occupancy now and deliver the train in one aggregate
            # event at the last chunk's arrival (per-TLP stats stay
            # exact; nothing observes the target between chunk times —
            # any dependent TLP orders behind the last chunk on the
            # same lane anyway).
            # The earlier chunks' down-lane records ride with the first
            # hops, to be traced with them.
            first_hops = []
            down_hops = []
            down = route[3].down
            cursor = address
            for chunk in chunks:
                self.stats_tlps["MWr"] += 1
                path = self._reserve_path(
                    port, cursor, chunk, _REQUEST_BITS + chunk * 8)
                first_hops += path[4]
                down_hops.append((down, path[0]))
                cursor += chunk
            record = path[0]
            sim.call_later(record[DELIVERY] - sim._now, self._write_arrived,
                           (record, route[3], route[2], address - route[0],
                            first_hops + down_hops[:-1], data, trace_ctx,
                            span_id, finish, chunks))
            return done
        finish = _WriteCountdown(len(chunks), self, span_id, finish)
        cursor = 0
        for chunk in chunks:
            self.stats_tlps["MWr"] += 1
            path = self._reserve_path(
                port, address + cursor, chunk, _REQUEST_BITS + chunk * 8)
            sim.call_later(
                path[0][DELIVERY] - sim._now, self._write_arrived,
                path + (data[cursor:cursor + chunk] if data is not None
                        else None, trace_ctx, None, finish, None))
            cursor += chunk
        return done

    def read(self, requester: PcieEndpoint, address: int,
             length: int, trace_ctx=None,
             trace_stage: str = "pcie.read",
             on_done=None) -> Optional[Event]:
        """A memory read; the event fires with the data bytes.

        As with :meth:`post_write`, flattened initiators that only need
        the data pass ``on_done`` (called with the bytes at completion
        time, after the span has closed); the Event allocation is
        skipped and None returned.
        """
        if length <= 0:
            raise PcieError("read length must be positive")
        port = (requester._port if requester.fabric is self
                else self.port_of(requester))
        if on_done is None:
            done = Event(self.sim)
            completion = done.succeed
        else:
            done = None
            completion = on_done
        sim = self.sim
        span_id = (None if trace_ctx is None else
                   self._spans.enter(trace_ctx, trace_stage, sim._now))
        port.reads_pending += 1
        self.stats_tlps["MRd"] += 1
        path = self._reserve_path(port, address, 0, _REQUEST_BITS)
        sim.call_later(path[0][DELIVERY] - sim._now, self._read_arrived,
                       path + (length, port, span_id, completion))
        return done

    def post_write_deferred(self, requester: PcieEndpoint, address: int,
                            data: bytes, trace_ctx=None,
                            trace_stage: str = "pcie.write",
                            frame=None) -> DeferredWrite:
        """A single-TLP posted write without its own delivery event.

        For initiators that already schedule a continuation at/after
        the write's arrival (e.g. a CQE write fused with the consumer's
        processing delay): lanes are reserved and per-TLP stats counted
        exactly as :meth:`post_write`, but the caller owns delivery via
        the returned handle's ``commit()``.
        """
        port = (requester._port if requester.fabric is self
                else self.port_of(requester))
        total = len(data)
        if not 0 < total <= port.config.max_payload_size:
            raise PcieError("post_write_deferred needs a single-TLP payload")
        self.stats_tlps["MWr"] += 1
        path = self._reserve_path(
            port, address, total, _REQUEST_BITS + total * 8)
        span_id = (None if trace_ctx is None else
                   self._spans.enter(trace_ctx, trace_stage, self.sim._now))
        return DeferredWrite(path + (data, trace_ctx, span_id, frame, self))

    def post_write_at(self, requester: PcieEndpoint, address: int,
                      data: bytes, arrival: float, trace_ctx=None,
                      trace_stage: str = "pcie.write",
                      on_done=None) -> Optional[Event]:
        """A single-TLP posted write arbitrating as if issued at ``arrival``.

        Fused pipeline stages resolve a future write early: both lanes
        are reserved under the future arrival key — the reservation
        model replays the reference arbitration exactly (see
        :class:`~repro.sim.resources.Reservation`) — and the write
        delivers through the normal delivery event at its computed
        arrival.  A traced write's span runs from ``arrival`` to that
        delivery.  ``on_done`` is :meth:`post_write`'s.
        """
        port = (requester._port if requester.fabric is self
                else self.port_of(requester))
        total = len(data)
        if not 0 < total <= port.config.max_payload_size:
            raise PcieError("post_write_at needs a single-TLP payload")
        if on_done is None:
            done = Event(self.sim)
            on_done = done.succeed
        else:
            done = None
            if on_done is POSTED:
                on_done = None
        span_id = (None if trace_ctx is None else
                   self._spans.enter(trace_ctx, trace_stage, arrival))
        self.stats_tlps["MWr"] += 1
        path = self._reserve_path(
            port, address, total, _REQUEST_BITS + total * 8, arrival)
        sim = self.sim
        sim.call_later(path[0][DELIVERY] - sim._now, self._write_arrived,
                       path + (data, trace_ctx, span_id, on_done, None))
        return done

    # -- internals -----------------------------------------------------------

    def _route(self, port: _Port, address: int) -> tuple:
        """The route from ``port`` to whatever decodes ``address``,
        resolved through the decode index once per BAR window."""
        for route in port.routes:
            if route[0] <= address < route[1]:
                return route
        bar = self.decode(address)
        route = (bar.base, bar.base + bar.size, bar.endpoint,
                 self.port_of(bar.endpoint))
        port.routes.append(route)
        return route

    def _reserve_path(self, port: _Port, address: int, payload: int,
                      bits: int, arrival: Optional[float] = None):
        """Resolve the route and reserve both lanes for one TLP of
        ``bits`` carrying ``payload`` data bytes; returns what every
        delivery tuple starts with: the downstream reservation (whose
        ``DELIVERY`` is the TLP's arrival at the endpoint, subject to
        repair), the target port, the endpoint, the BAR-relative offset
        and, for the delivery handler to trace, the first hop's
        ``((link, record),)`` when it had to take a record of its own
        (empty when it ran inline).  ``arrival`` keys the upstream lane
        at a future instant for writes resolved ahead of their issue
        time (:meth:`post_write_at`)."""
        # _route's hit path, inline: one frame fewer per TLP.
        for route in port.routes:
            if route[0] <= address < route[1]:
                break
        else:
            route = self._route(port, address)
        target = route[3]
        port.up_payload_bytes += payload
        target.down_payload_bytes += payload
        seq = self._issue_seq
        self._issue_seq = seq + 1
        now = self.sim._now
        key = now if arrival is None else arrival
        first_hops = ()
        up = link = port.up
        # Each hop is Link.reserve's in-order path, in this frame: settle
        # the prefix the clock has passed, and append one record for a
        # key at or past the lane tail.  Only a key before the tail calls
        # Link.reserve, for its repair (bisect, train split, replay).
        while True:
            lane = link._lane
            record = None
            if lane:
                last = lane[-1]
                if last[ARRIVAL] <= now:
                    # The clock has passed the whole lane: it is final.
                    link._busy_until = prev = last[FINISH]
                    del lane[:]     # a statement: no builtin call
                elif last[ARRIVAL] > key or (last[ARRIVAL] == key
                                             and last[SEQ] > seq):
                    record = link.reserve(bits, key, seq)
                else:
                    if lane[0][ARRIVAL] <= now:
                        # The tail keys after now: the scan stops there.
                        drop = 1
                        while lane[drop][ARRIVAL] <= now:
                            drop += 1
                        link._busy_until = lane[drop - 1][FINISH]
                        del lane[:drop]
                    prev = last[FINISH]
            else:
                prev = link._busy_until
            if record is None:
                start = key if key > prev else prev
                rate = link.rate_bps
                finish = start if rate is None else start + bits / rate
                link.stats_bits += bits
                link.stats_messages += 1
                if link is up and arrival is None:
                    # Issued now on a settled lane: final, so the first
                    # hop takes no record; its trace slice is written here.
                    up._busy_until = finish
                    if up._tracer is not None:
                        up.trace_slice(start, finish, bits)
                    key = finish + up.latency
                    link = target.down
                    continue
                record = Reservation((key, seq, bits, start, finish,
                                      finish + link.latency, None, None, ()))
                if key > now:
                    lane.append(record)
                else:
                    link._busy_until = finish
            if link is not up:
                return record, target, route[2], address - route[0], first_hops
            first_hops = ((up, record),)
            key = record[DELIVERY]
            link = target.down

    def _write_arrived(self, entry) -> None:
        """A write landed — one TLP, or the last of a train (``chunks``,
        the sizes of its TLPs): run the endpoint's handler, close the
        write's span and run the completion callback."""
        (record, target, endpoint, offset, first_hops, data, ctx, span_id,
         on_delivered, chunks) = entry
        sim = self.sim
        if record[DELIVERY] > sim._now:
            # An out-of-order arrival on the shared lane pushed this TLP
            # later after the event was scheduled; fire again on time.
            sim.call_later(record[DELIVERY] - sim._now, self._write_arrived,
                           entry)
            return
        if target.down._tracer is not None:
            _trace_tlps(target.down, (record,), first_hops)
        if data is not None:
            prof = self._prof
            # Work the handler pushes (and its own execution, for
            # wall-clock nesting) belongs to the receiving endpoint,
            # not to the fabric lane that carried the TLP.
            if prof is not None:
                prof.current_tag = endpoint.profile_tag
            self.inbound_trace_ctx = ctx
            try:
                if chunks is None:
                    endpoint.handle_write(offset, data)
                else:
                    cursor = 0
                    for chunk in chunks:
                        endpoint.handle_write(offset + cursor,
                                              data[cursor:cursor + chunk])
                        cursor += chunk
            finally:
                self.inbound_trace_ctx = None
                if prof is not None:
                    prof.current_tag = "pcie"
        if span_id is not None and span_id.end is None:
            span_id.end = sim._now
        if on_delivered is not None:
            on_delivered()

    def _read_arrived(self, entry) -> None:
        """A read request landed: run the handler and reserve the
        completion's lane occupancy — one record, or one train when the
        data spans several RCBs — completing in one aggregate event."""
        (record, completer_port, endpoint, offset, first_hops, length,
         requester_port, span_id, completion) = entry
        sim = self.sim
        now = sim._now
        if record[DELIVERY] > now:
            sim.call_later(record[DELIVERY] - now, self._read_arrived, entry)
            return
        if completer_port.down._tracer is not None:
            _trace_tlps(completer_port.down, (record,), first_hops)
        prof = self._prof
        if prof is not None:
            prof.current_tag = endpoint.profile_tag
        try:
            data = endpoint.handle_read(offset, length)
        finally:
            if prof is not None:
                prof.current_tag = "pcie"
        down = requester_port.down
        up = completer_port.up
        completer_port.up_payload_bytes += length
        requester_port.down_payload_bytes += length
        rcb = completer_port.config.read_completion_boundary
        seq = self._issue_seq
        # The completion TLPs are never routed or delivered one by one —
        # only their lane occupancy matters, the requester gets the
        # handler's bytes whole — so nothing is built per chunk.
        lane = up._lane
        last = lane[-1] if lane else None
        if last is None or last[ARRIVAL] < now or (
                last[ARRIVAL] == now and last[SEQ] <= seq):
            # Fused fast path.  The up lane is keyed at (now, seq..) and
            # settled (see Link.reserve), so its whole occupancy
            # recurrence runs inline with no reservation records (and,
            # the times being final, its Chrome-trace slices are written
            # here); a reservation survives only on the shared down
            # lane, where later-issued traffic can still key ahead of
            # the completion and force a replay.
            if last is None:
                prev = up._busy_until
            else:
                prev = last[FINISH]
                del lane[:]
            rate_up = up.rate_bps
            tracer = up._tracer
            if length <= rcb:
                # One completion TLP is not a train: a descriptor or a
                # small payload comes back as a plain down-lane record.
                n = 1
                total_bits = _COMPLETION_BITS + length * 8
                start = now if now > prev else prev
                prev = (start if rate_up is None
                        else start + total_bits / rate_up)
                if tracer is not None:
                    up.trace_slice(start, prev, total_bits)
                records = (down.reserve(total_bits, prev + up.latency, seq),)
            else:
                chunks = completion_chunks(length, rcb)
                n = len(chunks)
                lat_up = up.latency
                bits_list = []
                arrivals = []
                total_bits = 0
                for chunk in chunks:
                    bits = _COMPLETION_BITS + chunk * 8
                    bits_list.append(bits)
                    total_bits += bits
                    start = now if now > prev else prev
                    prev = (start if rate_up is None
                            else start + bits / rate_up)
                    if tracer is not None:
                        up.trace_slice(start, prev, bits)
                    arrivals.append(prev + lat_up)
                # The whole completion burst is ONE down-lane entry; a
                # later-issued message keying inside the train splits it
                # back into per-chunk records (see Link.reserve_train).
                records = (down.reserve_train(bits_list, arrivals, seq),)
            first_hops = ()
            up._busy_until = prev
            up.stats_bits += total_bits
            up.stats_messages += n
        else:
            # The up lane holds a reservation keyed after now (a write
            # resolved ahead of its issue time): the completions must
            # insert before it, chunk by chunk, on both lanes.
            chunks = completion_chunks(length, rcb)
            n = len(chunks)
            records = []
            first_hops = []
            for index, chunk in enumerate(chunks):
                bits = _COMPLETION_BITS + chunk * 8
                up_record = up.reserve(bits, now, seq + index)
                records.append(down.reserve(bits, up_record[DELIVERY],
                                            seq + index))
                first_hops.append((up, up_record))
        self._issue_seq = seq + n
        self.stats_tlps["CplD"] += n
        sim.call_later(records[-1][DELIVERY] - now, self._read_completed,
                       (records, first_hops, requester_port, span_id,
                        completion, data))

    def _read_completed(self, entry) -> None:
        """Aggregate arrival of a completion train (last chunk lands)."""
        (records, first_hops, requester_port, span_id, completion,
         data) = entry
        sim = self.sim
        last = records[-1]
        if last[DELIVERY] > sim._now:
            sim.call_later(last[DELIVERY] - sim._now, self._read_completed,
                           entry)
            return
        if requester_port.down._tracer is not None:
            _trace_tlps(requester_port.down, records, first_hops)
        requester_port.reads_pending -= 1
        if span_id is not None and span_id.end is None:
            span_id.end = sim._now
        completion(data)
