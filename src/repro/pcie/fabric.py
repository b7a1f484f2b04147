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
from math import inf
from operator import itemgetter
from typing import Dict, List, Optional

from ..sim import Event, Link, Simulator
from ..sim.resources import ARRIVAL, DELIVERY, FINISH, PARTS, SEQ, Reservation
from ..telemetry.spans import OPEN
from .config import PcieLinkConfig
from .endpoint import Bar, PcieEndpoint, PcieError
from .tlp import COMPLETION_HEADER, DLLP_FRAMING, MEM_REQUEST_HEADER

#: Link bits of a memory request's header and framing — all of an MRd,
#: and what an MWr adds to its payload — and of a completion's.
_REQUEST_BITS = (MEM_REQUEST_HEADER + DLLP_FRAMING) * 8
_COMPLETION_BITS = (COMPLETION_HEADER + DLLP_FRAMING) * 8

#: A route's slots past its window: the requests it carried and their
#: payload bytes.  ``_NO_ROUTE`` is a port's last route before it has one.
_TLPS, _PAYLOAD = 4, 5
_NO_ROUTE = (0, 0)


#: ``post_write(..., on_done=POSTED)``: nobody waits for the write to
#: land — no completion Event is built and nothing is called back.
POSTED = object()


def _trace_tlps(lane: Link, record, first_hops) -> None:
    """Write delivered TLPs' Chrome-trace lane slices (``lane._tracer``
    is set): first each ``(link, record)`` of ``first_hops`` — a first
    hop that took a record of its own (see ``_reserve_path``), a train's
    earlier chunks when they are records of their own — then the
    downstream ``record``.  All are final now."""
    for up, up_record in first_hops:
        up.trace_occupancy(up_record)
    lane.trace_occupancy(record)


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
    Work scheduled on the handle is the fabric's, and files under it.
    """

    __slots__ = ()

    profile_tag = "pcie"

    data = property(itemgetter(5))
    trace_ctx = property(itemgetter(6))
    frame = property(itemgetter(8))

    def commit(self) -> None:
        if self[7] is not None:
            rows, at = self[7]
            if rows[at] == OPEN:
                rows[at] = self[0][DELIVERY]
        self[9]._write_arrived(self[:7] + [None, None, None])

    def post_on_arrival(self, entry) -> None:
        """``entry`` is ``(requester, writes)``: post each ``(address,
        data)`` of ``writes`` as a doorbell, issued at this write's
        arrival (the owner schedules this for then)."""
        fabric = self[9]
        sim = fabric.sim
        if self[0][DELIVERY] > sim._now:
            # Shared-lane arbitration repaired the arrival after this
            # continuation was scheduled; fire again on time.
            sim.call_later(self[0][DELIVERY] - sim._now,
                           self.post_on_arrival, entry)
            return
        requester, writes = entry
        for address, data in writes:
            fabric.post_write(requester, address, data,
                              trace_stage="pcie.doorbell", on_done=POSTED)

    def retire(self) -> None:
        """Deliver without running the handler — for owners that
        already applied the write's effects themselves (e.g. a CQE
        decoded at issue time)."""
        record = self[0]
        down = self[1].down
        if down._tracer is not None:
            _trace_tlps(down, record, self[4])
        if self[7] is not None:
            rows, at = self[7]
            if rows[at] == OPEN:
                rows[at] = record[DELIVERY]


class _Lane(Link):
    """One direction of a port, and the TLP payload bytes that crossed
    it: the header share (lane bytes minus payload) makes Fig. 7a's
    claim — small packets drown in PCIe protocol overhead — observable
    from a run.  A request TLP is counted once, on its route, which both
    lanes it crosses hold in ``routes`` and add in when read; a train or
    a completion counts on the lanes themselves."""

    def __init__(self, sim: Simulator, rate: float, latency: float,
                 name: str):
        self.routes: List[list] = []
        self._payload = 0
        super().__init__(sim, rate, latency, name=name)
        self.trace_process = "pcie"
        self.trace_name = "Tlp"

    @property
    def stats_bits(self) -> int:
        return self._bits + sum(route[_TLPS] * _REQUEST_BITS
                                + route[_PAYLOAD] * 8 for route in self.routes)

    @property
    def stats_messages(self) -> int:
        return self._messages + sum(route[_TLPS] for route in self.routes)

    @property
    def payload_bytes(self) -> int:
        return self._payload + sum(route[_PAYLOAD] for route in self.routes)

    def fold(self) -> None:
        """Keep the routes' counts as the lane's own, and drop them."""
        self._bits, self._messages, self._payload = (
            self.stats_bits, self.stats_messages, self.payload_bytes)
        del self.routes[:]


class _Port:
    """A device's two lanes into the switch."""

    def __init__(self, sim: Simulator, endpoint: PcieEndpoint,
                 config: PcieLinkConfig):
        rate = config.effective_data_bps
        self.endpoint = endpoint
        self.config = config
        # Split the configured one-way latency across the two hops.
        hop_latency = config.latency / 2
        self.up = _Lane(sim, rate, hop_latency, f"{endpoint.name}.up")
        self.down = _Lane(sim, rate, hop_latency, f"{endpoint.name}.down")
        #: Routes this port has used, ``[base, end, endpoint, target port,
        #: tlps, payload]`` per BAR window, resolved on first use; a TLP
        #: tries the last one, ``route``, first.  The fabric drops them
        #: (their counts folded) whenever its address map changes.
        self.routes = self.up.routes
        self.route = _NO_ROUTE
        self.reads_pending = 0
        telemetry = sim.telemetry
        if telemetry.enabled:
            telemetry.register_counters(
                f"pcie.{endpoint.name}",
                lambda: {
                    "up.tlps": self.up.stats_messages,
                    "up.payload_bytes": self.up.payload_bytes,
                    "up.header_bytes": (self.up.stats_bits // 8
                                        - self.up.payload_bytes),
                    "down.tlps": self.down.stats_messages,
                    "down.payload_bytes": self.down.payload_bytes,
                    "down.header_bytes": (self.down.stats_bits // 8
                                          - self.down.payload_bytes),
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
            port.up.fold()
            port.down.fold()
            port.route = _NO_ROUTE

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
        timing-only traffic (``length`` may repeat ``len(data)``).  A
        longer write than MPS is a train of MPS-sized TLPs, delivered in
        one event; it must decode to one endpoint (a write that
        straddles two windows raises :class:`PcieError` before it counts
        a TLP or reserves a lane).  With ``trace_ctx``
        the write is recorded as a ``trace_stage`` span on the packet's
        trace, and the context rides the TLPs so the endpoint can claim it
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
        if data is None:
            if length is None:
                raise PcieError("write needs data or length")
            total = length
        else:
            total = len(data)
            if length is not None and length != total:
                raise PcieError(f"write length {length!r} is not the "
                                f"data's {total}")
        if total < 0:
            raise PcieError(f"write length {total!r} is negative")
        mps = port.config.max_payload_size
        if on_done is None:
            done = Event(self.sim)
            finish = done.succeed
        else:
            done = None
            finish = None if on_done is POSTED else on_done
        sim = self.sim

        if total <= mps:
            # One TLP — the common case for descriptors, CQEs, doorbells
            # and small-packet payloads.
            span_id = (None if trace_ctx is None else
                       self._spans.enter(trace_ctx, trace_stage, sim._now))
            self.stats_tlps["MWr"] += 1
            path = self._reserve_path(port, address, total)
            sim.call_later(path[0][DELIVERY] - sim._now, self._write_arrived,
                           path + (data, trace_ctx, span_id, finish, None))
            return done

        route = port.route
        if not route[0] <= address < route[1]:
            route = self._route(port, address)
        if address + total > route[1]:
            # No one endpoint takes it: a write is one window's.
            raise PcieError(f"write of {total} B at {address:#x} straddles "
                            f"the window end {route[1]:#x}")
        # One endpoint: deliver the train in one event at its last TLP's
        # arrival (any dependent TLP orders behind it anyway).
        span_id = (None if trace_ctx is None else
                   self._spans.enter(trace_ctx, trace_stage, sim._now))
        target = route[3]
        record, first_hops = self._train(port, target, total, mps,
                                         _REQUEST_BITS, "MWr")
        sim.call_later(record[DELIVERY] - sim._now, self._write_arrived,
                       (record, target, route[2], address - route[0],
                        first_hops, data, trace_ctx, span_id, finish,
                        range(0, total, mps)))
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
        path = self._reserve_path(port, address, 0)
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
        path = self._reserve_path(port, address, total)
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
        now = self.sim._now
        if not now <= arrival < inf:    # before now, NaN or infinite
            raise PcieError(f"post_write_at arrival {arrival!r} is not in "
                            f"[now {now!r}, inf)")
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
        path = self._reserve_path(port, address, total, arrival)
        sim = self.sim
        sim.call_later(path[0][DELIVERY] - sim._now, self._write_arrived,
                       path + (data, trace_ctx, span_id, on_done, None))
        return done

    # -- internals -----------------------------------------------------------

    def _route(self, port: _Port, address: int) -> list:
        """The route from ``port`` to whatever decodes ``address``
        (decoded once per BAR window), now the port's last route."""
        for route in port.routes:
            if route[0] <= address < route[1]:
                break
        else:
            bar = self.decode(address)
            target = self.port_of(bar.endpoint)
            route = [bar.base, bar.base + bar.size, bar.endpoint, target,
                     0, 0]
            port.routes.append(route)
            target.down.routes.append(route)
        port.route = route
        return route

    def _reserve_path(self, port: _Port, address: int, payload: int,
                      arrival: Optional[float] = None):
        """Resolve the route and reserve both lanes for one request TLP
        carrying ``payload`` data bytes; returns what every delivery
        tuple starts with: the downstream reservation (whose
        ``DELIVERY`` is the TLP's arrival at the endpoint, subject to
        repair), the target port, the endpoint, the BAR-relative offset
        and, for the delivery handler to trace, the first hop's
        ``((link, record),)`` when it had to take a record of its own
        (empty when it ran inline).  ``arrival`` keys the upstream lane
        at a future instant for writes resolved ahead of their issue
        time (:meth:`post_write_at`)."""
        route = port.route
        if not route[0] <= address < route[1]:
            # A new window, or a switch of windows: _route's scan, inline.
            for route in port.routes:
                if route[0] <= address < route[1]:
                    break
            else:
                route = self._route(port, address)
            port.route = route
        route[_TLPS] += 1           # once for both lanes
        route[_PAYLOAD] += payload
        bits = _REQUEST_BITS + payload * 8
        target = route[3]
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
                    link._bits -= bits      # the route counts it
                    link._messages -= 1
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

    def _train(self, sender: _Port, receiver: _Port, length: int,
               size: int, header: int, kind: str):
        """Reserve, issued now, a write train or a read's completions:
        the ``kind`` TLPs carrying ``length`` bytes ``size`` at a time,
        ``header`` link bits each, up ``sender`` and down ``receiver``.
        Returns the down-lane record whose ``DELIVERY`` is the last
        TLP's arrival, and the ``(link, record)`` pairs to trace first.

        A settled up lane runs the chunks' recurrence inline with no
        records (and, the times being final, writes their trace slices),
        and the down lane takes one train record (two TLPs or more:
        :meth:`_read_arrived` runs a lone completion itself).  An up lane
        holding a reservation keyed after now (a write resolved ahead of
        its issue) takes the TLPs one by one."""
        up = sender.up
        down = receiver.down
        now = self.sim._now
        seq = self._issue_seq
        count = (length - 1) // size + 1
        full = header + size * 8
        tail = header + (length - (count - 1) * size) * 8
        self._issue_seq = seq + count
        self.stats_tlps[kind] += count
        up._payload += length
        down._payload += length
        bits_list = [full] * (count - 1) + [tail]
        lane = up._lane
        if lane and lane[-1][ARRIVAL] > now:
            # The TLPs insert before the pending reservation one by one
            # (Link.reserve_train falls back to that).
            handle = up.reserve_train(bits_list, [now] * count, seq)
            arrivals = [part[DELIVERY] for part in handle[PARTS]]
            arrivals.append(handle[DELIVERY])
            return (down.reserve_train(bits_list, arrivals, seq),
                    ((up, handle),))
        if lane:
            prev = lane[-1][FINISH]
            del lane[:]
        else:
            prev = up._busy_until
        rate = up.rate_bps
        latency = up.latency
        tracer = up._tracer
        arrivals = [0.0] * count
        for index in range(count):
            bits = bits_list[index]
            start = now if now > prev else prev
            prev = start if rate is None else start + bits / rate
            if tracer is not None:
                up.trace_slice(start, prev, bits)
            arrivals[index] = prev + latency
        up._busy_until = prev
        up._bits += header * count + length * 8
        up._messages += count
        # The whole train is ONE down-lane entry; a later-issued message
        # keying inside it splits it back into per-chunk records (see
        # Link.reserve_train).
        return down.reserve_train(bits_list, arrivals, seq), ()

    def _write_arrived(self, entry) -> None:
        """A write landed — one TLP, or the last of a train whose TLPs
        start at the offsets ``chunks`` counts: run the endpoint's
        handler, close the write's span and run the completion
        callback."""
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
            _trace_tlps(target.down, record, first_hops)
        if data is not None:
            self.inbound_trace_ctx = ctx
            try:
                if chunks is None:
                    endpoint.handle_write(offset, data)
                else:
                    size = chunks.step
                    for cursor in chunks:
                        endpoint.handle_write(offset + cursor,
                                              data[cursor:cursor + size])
            finally:
                self.inbound_trace_ctx = None
        if span_id is not None:
            rows, at = span_id
            if rows[at] == OPEN:
                rows[at] = sim._now
        if on_delivered is not None:
            on_delivered()

    def _read_arrived(self, entry) -> None:
        """A read request landed: run the handler and reserve the
        completions (:meth:`_train`), delivered in one event."""
        (record, completer_port, endpoint, offset, first_hops, length,
         requester_port, span_id, completion) = entry
        sim = self.sim
        now = sim._now
        if record[DELIVERY] > now:
            sim.call_later(record[DELIVERY] - now, self._read_arrived, entry)
            return
        if completer_port.down._tracer is not None:
            _trace_tlps(completer_port.down, record, first_hops)
        data = endpoint.handle_read(offset, length)
        # The completions are never routed or delivered one by one — the
        # requester gets the handler's bytes whole.
        rcb = completer_port.config.read_completion_boundary
        up = completer_port.up
        lane = up._lane
        if length > rcb or lane and lane[-1][ARRIVAL] > now:
            record, first_hops = self._train(
                completer_port, requester_port, length, rcb,
                _COMPLETION_BITS, "CplD")
        else:
            # One completion on a settled up lane (a descriptor, a small
            # payload) is not a train: _train's recurrence for it, here,
            # and a plain down-lane record.
            seq = self._issue_seq
            self._issue_seq = seq + 1
            self.stats_tlps["CplD"] += 1
            down = requester_port.down
            up._payload += length
            down._payload += length
            bits = _COMPLETION_BITS + length * 8
            if lane:
                prev = lane[-1][FINISH]
                del lane[:]
            else:
                prev = up._busy_until
            start = now if now > prev else prev
            rate = up.rate_bps
            prev = start if rate is None else start + bits / rate
            if up._tracer is not None:
                up.trace_slice(start, prev, bits)
            up._busy_until = prev
            up._bits += bits
            up._messages += 1
            record = down.reserve(bits, prev + up.latency, seq)
            first_hops = ()
        sim.call_later(record[DELIVERY] - now, self._read_completed,
                       (record, first_hops, requester_port, span_id,
                        completion, data))

    def _read_completed(self, entry) -> None:
        """The last completion of a read landed."""
        (record, first_hops, requester_port, span_id, completion,
         data) = entry
        sim = self.sim
        if record[DELIVERY] > sim._now:
            sim.call_later(record[DELIVERY] - sim._now, self._read_completed,
                           entry)
            return
        if requester_port.down._tracer is not None:
            _trace_tlps(requester_port.down, record, first_hops)
        requester_port.reads_pending -= 1
        if span_id is not None:
            rows, at = span_id
            if rows[at] == OPEN:
                rows[at] = sim._now
        completion(data)
