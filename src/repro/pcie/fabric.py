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
from typing import Dict, List, Optional

from ..sim import Event, Link, Simulator
from .config import PcieLinkConfig
from .endpoint import Bar, PcieEndpoint, PcieError
from .tlp import (
    COMPLETION_HEADER,
    DLLP_FRAMING,
    Tlp,
    TlpType,
    completion_chunks,
    split_write_bytes,
)


class _WriteCountdown:
    """Completion countdown for a multi-TLP posted write."""

    __slots__ = ("remaining", "fabric", "span_id", "done")

    def __init__(self, remaining, fabric, span_id, done):
        self.remaining = remaining
        self.fabric = fabric
        self.span_id = span_id
        self.done = done

    def __call__(self, _=None):
        self.remaining -= 1
        if self.remaining == 0:
            fabric = self.fabric
            if self.span_id is not None:
                fabric._spans.exit(self.span_id, fabric.sim._now)
            self.done.succeed()


class _CallbackDone:
    """Duck-typed stand-in for a completion :class:`Event`.

    Flattened initiators pass ``on_done`` to :meth:`PcieFabric.post_write`
    / :meth:`PcieFabric.read`; the transaction machinery only ever calls
    ``done.succeed(...)``, so a bare callable slot replaces the Event
    allocation on the hot path.
    """

    __slots__ = ("succeed",)

    def __init__(self, callback):
        self.succeed = callback


class DeferredWrite:
    """A posted write whose delivery the initiator folds into its own
    continuation event.

    ``delivery`` is the TLP's arrival time at the endpoint — re-read it
    at fire time, since shared-lane arbitration may repair it later.
    The owner must call :meth:`commit` from its continuation event at
    (or after) ``delivery``; that retires the lane reservation and runs
    the endpoint's write handler, exactly what the fabric's own delivery
    event would have done.  A traced write's span, opened at issue,
    closes then too, at the (by then final) ``delivery``.
    """

    __slots__ = ("_fabric", "_tlp", "_link", "_record", "_span")

    def __init__(self, fabric, tlp, link, record, span):
        self._fabric = fabric
        self._tlp = tlp
        self._link = link
        self._record = record
        self._span = span   # open span id when the TLP carries a context

    @property
    def delivery(self) -> float:
        return self._record.delivery

    def commit(self) -> None:
        fabric = self._fabric
        fabric._retire_path(self._link, self._record)
        if self._span is not None:
            fabric._spans.exit(self._span, self._record.delivery)
        fabric._deliver_write(self._tlp)

    def retire(self) -> None:
        """Release the lane reservation without running the handler —
        for owners that already applied the write's effects themselves
        (e.g. a CQE decoded at issue time)."""
        fabric = self._fabric
        fabric._retire_path(self._link, self._record)
        if self._span is not None:
            fabric._spans.exit(self._span, self._record.delivery)


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
        self._pending_reads: Dict[int, dict] = {}
        self.stats_tlps: Dict[str, int] = {}
        self._spans = sim.telemetry.spans
        prof = sim.profiler
        self._prof = prof if prof.enabled else None
        # Transit is cut-through: the route is resolved and both lanes
        # reserved at issue time, with one delivery event per TLP (and
        # one per multi-TLP train).  Lane arbitration is exact:
        # reservations apply in switch-arrival (time, seq) order (see
        # Link.reserve), ties broken by this monotonic per-TLP issue
        # sequence.  The Chrome tracer's lane spans are emitted when a
        # reservation retires, once repair can no longer move it.
        self._issue_seq = 0
        # The trace context of the MEM_WRITE currently being delivered;
        # endpoints may claim it inside handle_write to re-associate a
        # packed descriptor with its packet (object identity dies at
        # the byte boundary).
        self._inbound_ctx = None

    def inbound_trace_ctx(self):
        """Context of the write TLP being delivered right now (or None)."""
        return self._inbound_ctx

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

    def link_utilization_bits(self, endpoint_name: str) -> float:
        """Total bits that have crossed this endpoint's two lanes."""
        port = self._ports[endpoint_name]
        return port.up.stats_bits + port.down.stats_bits

    # -- transactions -------------------------------------------------------

    def post_write(self, requester: PcieEndpoint, address: int,
                   data: bytes = None, length: int = None,
                   trace_ctx=None, trace_stage: str = "pcie.write",
                   on_done=None) -> Event:
        """A posted memory write; the event fires when the last TLP lands.

        Pass ``data`` for functional writes or just ``length`` for
        timing-only traffic.  With ``trace_ctx`` the write is recorded
        as a ``trace_stage`` span on the packet's trace, and the
        context rides the TLPs so the receiving endpoint can claim it
        (``inbound_trace_ctx``) across the byte boundary.

        Flattened initiators that only need a completion *callback* pass
        ``on_done`` (a zero-argument callable) instead of chaining on
        the returned event: the write then skips the Event allocation
        entirely and invokes the callback at the exact instant the
        event would have fired (after the span, if any, has closed).
        The return value is not an Event in that case and must be
        ignored.
        """
        port = self.port_of(requester)
        if data is None and length is None:
            raise PcieError("write needs data or length")
        total = len(data) if data is not None else length
        mps = port.config.max_payload_size
        span_id = (None if trace_ctx is None else
                   self._spans.enter(trace_ctx, trace_stage, self.sim._now))
        done = Event(self.sim) if on_done is None else _CallbackDone(on_done)

        if 0 < total <= mps:
            # Single-TLP fast path — the common case for descriptors,
            # CQEs, doorbells and small-packet payloads.
            tlp = Tlp(TlpType.MEM_WRITE, address, total, data,
                      requester=requester.name)
            tlp.trace_ctx = trace_ctx
            if span_id is None:
                tlp.on_delivered = done.succeed
            else:
                tlp.on_delivered = _WriteCountdown(1, self, span_id, done)
            self._send(port, tlp)
            return done

        cursor = 0
        chunks = split_write_bytes(total, mps) or [0]
        if self.decode(address).contains(address + max(total, 1) - 1):
            # Whole train decodes to one endpoint: reserve every TLP's
            # lane occupancy now and deliver the train in one aggregate
            # event at the last chunk's arrival (per-TLP stats stay
            # exact; nothing observes the target between chunk times —
            # any dependent TLP orders behind the last chunk on the
            # same lane anyway).
            tlps = []
            for chunk in chunks:
                payload = (data[cursor:cursor + chunk]
                           if data is not None else None)
                tlp = Tlp(TlpType.MEM_WRITE, address + cursor, chunk, payload,
                          requester=requester.name)
                tlp.trace_ctx = trace_ctx
                cursor += chunk
                tlps.append(tlp)
            self._send_train(port, tlps, span_id, done)
            return done
        finish = _WriteCountdown(len(chunks), self, span_id, done)
        for chunk in chunks:
            payload = data[cursor:cursor + chunk] if data is not None else None
            tlp = Tlp(TlpType.MEM_WRITE, address + cursor, chunk, payload,
                      requester=requester.name)
            tlp.trace_ctx = trace_ctx
            cursor += chunk
            tlp.on_delivered = finish
            self._send(port, tlp)
        return done

    def read(self, requester: PcieEndpoint, address: int,
             length: int, trace_ctx=None,
             trace_stage: str = "pcie.read",
             on_done=None) -> Event:
        """A memory read; the event fires with the data bytes.

        As with :meth:`post_write`, flattened initiators that only need
        the data pass ``on_done`` (called with the bytes at completion
        time, after the span has closed) and the Event allocation is
        skipped; the return value must then be ignored.
        """
        if length <= 0:
            raise PcieError("read length must be positive")
        port = self.port_of(requester)
        done = Event(self.sim) if on_done is None else _CallbackDone(on_done)
        completion = done
        if trace_ctx is not None:
            span_id = self._spans.enter(trace_ctx, trace_stage,
                                        self.sim._now)
            finish = done.succeed

            def close_span(data):
                self._spans.exit(span_id, self.sim._now)
                finish(data)

            completion = _CallbackDone(close_span)
        request = Tlp(TlpType.MEM_READ, address, length,
                      requester=requester.name)
        request.trace_ctx = trace_ctx
        self._pending_reads[request.tag] = {
            "event": completion,
            "requester": requester.name,
            "chunks": [],
        }
        self._send(port, request)
        return done

    def post_write_deferred(self, requester: PcieEndpoint, address: int,
                            data: bytes, trace_ctx=None,
                            trace_stage: str = "pcie.write") -> DeferredWrite:
        """A single-TLP posted write without its own delivery event.

        For initiators that already schedule a continuation at/after
        the write's arrival (e.g. a CQE write fused with the consumer's
        processing delay): lanes are reserved and per-TLP stats counted
        exactly as :meth:`post_write`, but the caller owns delivery via
        the returned handle's ``commit()``.
        """
        port = self.port_of(requester)
        if not 0 < len(data) <= port.config.max_payload_size:
            raise PcieError("post_write_deferred needs a single-TLP payload")
        tlp = Tlp(TlpType.MEM_WRITE, address, len(data), data,
                  requester=requester.name)
        stats = self.stats_tlps
        stats["MWr"] = stats.get("MWr", 0) + 1
        target, record = self._reserve_path(port, tlp)
        span = None
        if trace_ctx is not None:
            tlp.trace_ctx = trace_ctx
            span = self._spans.enter(trace_ctx, trace_stage, self.sim._now)
        return DeferredWrite(self, tlp, target.down, record, span)

    def post_write_at(self, requester: PcieEndpoint, address: int,
                      data: bytes, arrival: float, trace_ctx=None,
                      trace_stage: str = "pcie.write") -> Event:
        """A single-TLP posted write arbitrating as if issued at ``arrival``.

        Fused pipeline stages resolve a future write early: both lanes
        are reserved under the future arrival key — the reservation
        model replays the reference arbitration exactly (see
        :class:`~repro.sim.resources.Reservation`) — and the write
        delivers through the normal delivery event at its computed
        arrival.  A traced write's span runs from ``arrival`` to that
        delivery.
        """
        port = self.port_of(requester)
        if not 0 < len(data) <= port.config.max_payload_size:
            raise PcieError("post_write_at needs a single-TLP payload")
        done = Event(self.sim)
        tlp = Tlp(TlpType.MEM_WRITE, address, len(data), data,
                  requester=requester.name)
        if trace_ctx is None:
            tlp.on_delivered = done.succeed
        else:
            tlp.trace_ctx = trace_ctx
            tlp.on_delivered = _WriteCountdown(
                1, self, self._spans.enter(trace_ctx, trace_stage, arrival),
                done)
        stats = self.stats_tlps
        stats["MWr"] = stats.get("MWr", 0) + 1
        target, record = self._reserve_path(port, tlp, arrival)
        sim = self.sim
        sim.call_later(record.delivery - sim._now, self._arrive,
                       (tlp, target.down, record))
        return done

    # -- internals -----------------------------------------------------------

    def _send(self, port: _Port, tlp: Tlp) -> None:
        kind = tlp.kind.value
        stats = self.stats_tlps
        stats[kind] = stats.get(kind, 0) + 1
        target, record = self._reserve_path(port, tlp)
        sim = self.sim
        sim.call_later(record.delivery - sim._now, self._arrive,
                       (tlp, target.down, record))

    def _reserve_path(self, port: _Port, tlp: Tlp,
                      arrival: Optional[float] = None):
        """Resolve the route and reserve both lanes; returns the target
        port and the downstream reservation (whose ``delivery`` is the
        TLP's arrival at the endpoint, subject to repair).  ``arrival``
        keys the upstream lane at a future instant for writes resolved
        ahead of their issue time (:meth:`post_write_at`)."""
        bar = self.decode(tlp.address)
        target = self.port_of(bar.endpoint)
        tlp.bar = bar
        if tlp.kind is TlpType.MEM_WRITE:
            port.up_payload_bytes += tlp.length
            target.down_payload_bytes += tlp.length
        bits = tlp.wire_bytes() * 8
        seq = self._issue_seq
        self._issue_seq = seq + 1
        up = port.up
        if arrival is None:
            now = self.sim._now
            if not up._lane_keys or up._lane_keys[-1] <= (now, seq):
                # Stable up lane (see Link.reserve): the occupancy
                # recurrence runs inline with no Reservation handle —
                # retiring one would be a no-op prune anyway, so the
                # downstream record carries no upstream pointer.
                keys = up._lane_keys
                if keys:
                    up._busy_until = up._lane_fin[-1]
                    keys.clear()
                    up._lane_fin.clear()
                    up._lane_recs.clear()
                prev = up._busy_until
                start = now if now > prev else prev
                rate = up.rate_bps
                finish = start if rate is None else start + bits / rate
                up._busy_until = finish
                up.stats_bits += bits
                up.stats_messages += 1
                if up._tracer is not None:
                    up.trace_slice(start, finish, bits)
                return target, target.down.reserve(
                    bits, finish + up.latency, seq)
            arrival = now
        up_record = up.reserve(bits, arrival, seq)
        down = target.down.reserve(bits, up_record.delivery, seq)
        down.upstream = (up, up_record)
        return target, down

    @staticmethod
    def _retire_path(link, record) -> None:
        """Retire a delivered TLP's reservations on both lanes.

        By delivery time the upstream occupancy is strictly in the past
        (no later issue can precede it — arrival keys are >= now), so
        retiring it is pure pruning: without this the upstream pending
        lists only ever grow and every out-of-order insert degrades to
        a linear scan."""
        upstream = record.upstream
        if upstream is not None:
            upstream[0].retire(upstream[1])
        link.retire(record)

    def _send_train(self, port: _Port, tlps: List[Tlp], span_id,
                    done: Event) -> None:
        """Reserve a multi-TLP posted-write train; one delivery event."""
        stats = self.stats_tlps
        records = []
        target = None
        for tlp in tlps:
            stats[tlp.kind.value] = stats.get(tlp.kind.value, 0) + 1
            target, record = self._reserve_path(port, tlp)
            records.append(record)
        sim = self.sim
        entry = (tlps, target.down, records, span_id, done)
        sim.call_later(records[-1].delivery - sim._now,
                       self._train_arrived, entry)

    def _arrive(self, entry) -> None:
        """Single-TLP delivery event."""
        tlp, link, record = entry
        sim = self.sim
        if record.delivery > sim._now:
            # An out-of-order arrival on the shared lane pushed this TLP
            # later after the event was scheduled; fire again on time.
            sim.call_later(record.delivery - sim._now, self._arrive, entry)
            return
        self._retire_path(link, record)
        kind = tlp.kind
        if kind is TlpType.MEM_WRITE:
            self._deliver_write(tlp)
        elif kind is TlpType.MEM_READ:
            self._read_arrived(tlp)
        else:
            raise PcieError(f"unroutable TLP {tlp!r}")

    def _train_arrived(self, entry) -> None:
        """Aggregate delivery of a posted-write train (last chunk lands)."""
        tlps, link, records, span_id, done = entry
        sim = self.sim
        last = records[-1]
        if last.delivery > sim._now:
            sim.call_later(last.delivery - sim._now, self._train_arrived,
                           entry)
            return
        for record in records:
            upstream = record.upstream
            if upstream is not None:
                upstream[0].retire(upstream[1])
        link.retire(last, records[:-1])
        for tlp in tlps:
            self._deliver_write(tlp)
        if span_id is not None:
            self._spans.exit(span_id, sim._now)
        done.succeed()

    def _deliver_write(self, tlp: Tlp) -> None:
        """Run a MEM_WRITE's endpoint handler and completion callback."""
        bar = tlp.bar
        offset = tlp.address - bar.base
        if tlp.data is not None:
            prof = self._prof
            # Work the handler pushes (and its own execution, for
            # wall-clock nesting) belongs to the receiving endpoint,
            # not to the fabric lane that carried the TLP.
            if prof is not None:
                prof.current_tag = bar.endpoint.profile_tag
            ctx = tlp.trace_ctx
            try:
                if ctx is None:
                    bar.endpoint.handle_write(offset, tlp.data)
                else:
                    self._inbound_ctx = ctx
                    try:
                        bar.endpoint.handle_write(offset, tlp.data)
                    finally:
                        self._inbound_ctx = None
            finally:
                if prof is not None:
                    prof.current_tag = "pcie"
        on_delivered = tlp.on_delivered
        if on_delivered is not None:
            on_delivered()

    def _read_arrived(self, tlp: Tlp) -> None:
        """A read request landed: run the handler and reserve the whole
        completion train, completing in one aggregate event."""
        bar = tlp.bar
        offset = tlp.address - bar.base
        prof = self._prof
        if prof is not None:
            prof.current_tag = bar.endpoint.profile_tag
        try:
            data = bar.endpoint.handle_read(offset, tlp.length)
        finally:
            if prof is not None:
                prof.current_tag = "pcie"
        completer_port = self.port_of(bar.endpoint)
        requester_port = self._ports[tlp.requester]
        rcb = completer_port.config.read_completion_boundary
        chunks = completion_chunks(tlp.length, rcb)
        parts = self._pending_reads[tlp.tag]["chunks"]
        sim = self.sim
        now = sim._now
        stats = self.stats_tlps
        down = requester_port.down
        up = completer_port.up
        completer_port.up_payload_bytes += tlp.length
        requester_port.down_payload_bytes += tlp.length
        seq = self._issue_seq
        n = len(chunks)
        self._issue_seq = seq + n
        stats["CplD"] = stats.get("CplD", 0) + n
        # The completion TLPs are never routed or delivered as objects —
        # only their lane occupancy and data slices matter — so none
        # are allocated.
        header_bits = (COMPLETION_HEADER + DLLP_FRAMING) * 8
        append_part = parts.append
        cursor = 0
        if not up._lane_keys or up._lane_keys[-1] <= (now, seq):
            # Fused fast path.  The up lane is keyed at (now, seq..):
            # provably stable (see Link.reserve), so its whole occupancy
            # recurrence runs inline with no Reservation handles (and,
            # the times being final, its Chrome-trace slices are written
            # here); per-chunk reservations survive only on the shared
            # down lane, where later-issued traffic can still interleave
            # with the train and force a replay.
            up_keys = up._lane_keys
            if up_keys:
                up._busy_until = up._lane_fin[-1]
                up_keys.clear()
                up._lane_fin.clear()
                up._lane_recs.clear()
            rate_up = up.rate_bps
            lat_up = up.latency
            prev = up._busy_until
            tracer = up._tracer
            bits_list = []
            arrivals = []
            total_bits = 0
            for index, chunk in enumerate(chunks):
                bits = header_bits + chunk * 8
                bits_list.append(bits)
                total_bits += bits
                start = now if now > prev else prev
                prev = start if rate_up is None else start + bits / rate_up
                if tracer is not None:
                    up.trace_slice(start, prev, bits)
                arrivals.append(prev + lat_up)
                append_part((index, data[cursor:cursor + chunk]))
                cursor += chunk
            up._busy_until = prev
            up.stats_bits += total_bits
            up.stats_messages += n
            # The whole completion burst is ONE down-lane entry; a
            # later-issued message keying inside the train splits it
            # back into per-chunk records (see Link.reserve_train).
            records = (down.reserve_train(bits_list, arrivals, seq),)
        else:
            # The up lane holds a reservation keyed after now (a write
            # resolved ahead of its issue time): the train must insert
            # before it, chunk by chunk, on both lanes.
            records = []
            for index, chunk in enumerate(chunks):
                bits = header_bits + chunk * 8
                up_record = up.reserve(bits, now, seq + index)
                down_record = down.reserve(bits, up_record.delivery,
                                           seq + index)
                down_record.upstream = (up, up_record)
                records.append(down_record)
                append_part((index, data[cursor:cursor + chunk]))
                cursor += chunk
        sim.call_later(records[-1].delivery - now, self._read_completed,
                       (tlp.tag, down, records))

    def _read_completed(self, entry) -> None:
        """Aggregate arrival of a completion train (last chunk lands)."""
        tag, link, records = entry
        sim = self.sim
        last = records[-1]
        if last.delivery > sim._now:
            sim.call_later(last.delivery - sim._now, self._read_completed,
                           entry)
            return
        # Batch retire: the lane prefix is pruned once, not per chunk.
        for record in records:
            upstream = record.upstream
            if upstream is not None:
                upstream[0].retire(upstream[1])
        link.retire(last, records[:-1])
        state = self._pending_reads.pop(tag)
        data = b"".join(part for _seq, part in sorted(state["chunks"]))
        state["event"].succeed(data)
