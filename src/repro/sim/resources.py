"""Bandwidth-limited transmission resources for the simulator.

These model serial links (Ethernet ports, PCIe links, DRAM channels): a
message of ``bits`` occupies the link for ``bits / rate_bps`` seconds, plus a
fixed propagation latency before delivery.  Links are work-conserving FIFOs.
"""

from __future__ import annotations

from bisect import bisect_left
from math import inf
from operator import attrgetter, itemgetter
from typing import Any, Callable, List, Optional

from ..telemetry.profile import owner_tag
from .engine import Simulator


class Reservation(list):
    """One message's — or one chunk train's — occupancy of a :class:`Link`.

    Links arbitrate strictly by arrival key ``(time, seq)``: the reference
    (pre-cut-through) model applied each reservation in a dedicated event
    at its arrival instant, so a reservation made *early* (cut-through
    resolves occupancy at issue time, possibly before other traffic with
    earlier arrivals has issued) must yield to any later-issued,
    earlier-arriving message.  ``start``/``finish``/``delivery`` are
    therefore mutable while the record is *pending* — until the clock
    passes its arrival key: an out-of-order insert recomputes the
    reservations behind it (they only ever move *later*), and the owner
    of the delivery event re-checks ``delivery`` when it fires,
    re-pushing if it fired early.  This replays exactly the busy-until
    sequence the one-event-per-arrival model would have produced.  Once
    ``now`` reaches the arrival key the times are final, and the lane
    drops the record the next time it is touched (:meth:`Link.reserve`);
    the owner keeps reading the one it holds.

    The record is a list, and it is both the lane entry and the caller's
    handle: the first two slots are the arrival key, so ``bisect`` orders
    a lane of records with C list comparisons that never look past them
    (``seq`` is unique per lane); building one is a single C-level call
    with no ``__init__`` frame; and a repair writes straight into the
    object the owner holds.  Slots, by the constants below::

        ARRIVAL SEQ BITS START FINISH DELIVERY MESSAGE TRAIN PARTS

    A chunk train (the PCIe TLPs of one transaction to one endpoint:
    a read's RCB-sized completions, a posted write's MPS-sized requests,
    keyed ``(arrivals[j], seq0 + j)``, of which only the *last* delivery
    matters to the owner) is ONE record keyed and timed as its last
    chunk, with ``TRAIN`` holding ``(bits_list, arrivals, finishes,
    seq0, starts)``.  That stays exact because a later-issued message
    keyed *inside* the train first splits it (:meth:`Link._materialize`):
    the earlier chunks become records of their own, listed in ``PARTS``
    so their trace slices are written with the handle's, and the handle
    carries on as the plain record of the last chunk.  A train keeps
    its chunks' ``starts``, and a repair counts each chunk it replays,
    as if they were records.
    """

    __slots__ = ()

    start = property(itemgetter(3))
    finish = property(itemgetter(4))
    delivery = property(itemgetter(5))


ARRIVAL, SEQ, BITS, START, FINISH, DELIVERY = range(6)
#: What :meth:`Link.send` carries to the sink.
MESSAGE = 6
TRAIN = 7
PARTS = 8


class Link:
    """A serializing, work-conserving point-to-point link.

    Messages are delivered to ``sink`` (a callable) in order; each message
    holds the link for its serialization time.  Propagation latency overlaps
    with the next message's serialization (pipelining), as on real wires.

    Parameters
    ----------
    rate_bps:
        Line rate in bits/second. ``None`` means infinite rate.
    latency:
        One-way propagation delay in seconds.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: Optional[float],
        latency: float = 0.0,
        name: str = "",
    ):
        if rate_bps is not None and not rate_bps > 0:
            raise ValueError("rate_bps must be positive")
        if not latency >= 0:
            raise ValueError("latency must be non-negative")
        self.sim = sim
        self.rate_bps = rate_bps
        self.latency = latency
        self.name = name
        self.sink: Optional[Callable[[Any], None]] = None
        self._busy_until = 0.0
        #: The reservation lane: pending :class:`Reservation` records
        #: sorted by arrival key.  Almost always appended to (FIFO issue
        #: order); an out-of-order arrival bisects in and replays the
        #: tail it moved.  The next reserve folds the prefix the clock
        #: has passed into ``_busy_until``.
        self._lane: List[Reservation] = []
        #: What this link's methods reserved (``stats_bits``/``_messages``;
        #: a PCIe lane adds the requests counted on its routes).
        self._bits = 0
        self._messages = 0
        #: Out-of-order inserts, and the records recomputed behind them.
        self.stats_repairs = 0
        self.stats_replayed = 0
        # The trace process this link's occupancy spans file under and
        # the name they carry; owners (the PCIe fabric) override both
        # to group and label their lanes.
        self.trace_process = "links"
        self.trace_name = "message"
        telemetry = sim.telemetry
        if telemetry.enabled and name:
            telemetry.register_counters(f"link.{name}", lambda: {
                "bits": self.stats_bits,
                "messages": self.stats_messages,
                "repairs": self.stats_repairs,
                "replayed": self.stats_replayed,
            })
        # Occupancy spans are written at delivery, by whoever owns the
        # delivery event (``trace_occupancy``): a later-issued,
        # earlier-arriving message may still repair a pending record.
        tracer = telemetry.tracer
        self._tracer = tracer if tracer.enabled and name else None

    def connect(self, sink: Callable[[Any], None]) -> None:
        self.sink = sink

    stats_bits = property(attrgetter("_bits"))
    stats_messages = property(attrgetter("_messages"))

    @property
    def profile_tag(self) -> str:
        # Delivery events are scheduled as ``self._dispatch``: they file
        # under whoever consumes the messages, as if the sink were the
        # scheduled callable.
        return owner_tag(self.sink)

    def reserve(self, bits: float, arrival: float, seq: int) -> Reservation:
        """Occupy the link for ``bits`` arriving at key ``(arrival, seq)``.

        Returns the reservation with its computed ``start``/``finish``/
        ``delivery``; no event is scheduled — the caller owns delivery and
        must re-check ``delivery`` at fire time (a later out-of-order
        insert may have moved it).  ``seq`` must be globally monotonic in
        issue order (ties on ``arrival`` are broken the way the reference
        model's per-arrival events would have dispatched: issue order).
        """
        self._bits += bits
        self._messages += 1
        lane = self._lane
        rate = self.rate_bps
        now = self.sim._now
        if lane and lane[0][ARRIVAL] <= now:
            # Settle by the clock: every reservation arrives no earlier
            # than its issue instant (latencies are non-negative) and
            # ``seq`` is globally monotonic, so NO future issue can key
            # before an entry whose arrival is <= now.  Fold that prefix
            # into the busy floor (finishes are monotone along the lane,
            # so the last one is the max).  ``reserve_train`` settles
            # the same way; the PCIe fabric's ``_reserve_path`` runs this
            # in-order path inline for both hops of a TLP and comes here
            # only to repair.
            drop = 0
            for entry in lane:
                if entry[ARRIVAL] > now:
                    break
                drop += 1
            self._busy_until = lane[drop - 1][FINISH]
            del lane[:drop]
        if lane:
            last = lane[-1]
            if last[ARRIVAL] > arrival or (last[ARRIVAL] == arrival
                                           and last[SEQ] > seq):
                record = Reservation((arrival, seq, bits, 0.0, 0.0, 0.0,
                                      None, None, ()))
                index = bisect_left(lane, record)
                train = lane[index][TRAIN]
                if train is not None and (train[1][0], train[3]) < (arrival,
                                                                    seq):
                    # The new message serializes *between* this train's
                    # chunks: split it back into per-chunk records, then
                    # insert normally.
                    self._materialize(index)
                    index = bisect_left(lane, record)
                lane.insert(index, record)
                self._recompute(index)
                return record
            prev_finish = last[FINISH]
        else:
            prev_finish = self._busy_until
        start = arrival if arrival > prev_finish else prev_finish
        finish = start if rate is None else start + bits / rate
        record = Reservation((arrival, seq, bits, start, finish,
                              finish + self.latency, None, None, ()))
        if arrival > now:
            lane.append(record)
        else:
            # Keyed at now with nothing pending: final as computed.
            self._busy_until = finish
        return record

    def reserve_train(self, bits_list: List[float], arrivals: List[float],
                      seq0: int) -> Reservation:
        """Occupy the link for a chunk train keyed ``(arrivals[j], seq0+j)``.

        Arrivals must be non-decreasing (a PCIe train's are — each chunk
        finishes the first hop after its predecessor).  The common case
        appends ONE lane entry for the whole train; when earlier pending
        occupancy keys beyond the train's first chunk the train is kept
        as per-chunk reservations from the start (exactly the chunk-wise
        :meth:`reserve` sequence).  Either way the handle is the last
        chunk's record (see :class:`Reservation`).
        """
        n = len(bits_list)
        lane = self._lane
        rate = self.rate_bps
        now = self.sim._now
        if lane:
            # Settle by the clock, as Link.reserve does.
            last = lane[-1]
            if last[ARRIVAL] <= now:
                self._busy_until = prev = last[FINISH]
                del lane[:]
            else:
                if lane[0][ARRIVAL] <= now:
                    # The tail keys after now: the scan stops there.
                    drop = 1
                    while lane[drop][ARRIVAL] <= now:
                        drop += 1
                    self._busy_until = lane[drop - 1][FINISH]
                    del lane[:drop]
                if (last[ARRIVAL], last[SEQ]) > (arrivals[0], seq0):
                    # Pending occupancy interleaves with the train: fall
                    # back to chunk-wise inserts, each counted by reserve().
                    parts = [self.reserve(bits_list[j], arrivals[j],
                                          seq0 + j) for j in range(n)]
                    handle = parts.pop()
                    handle[PARTS] = parts
                    return handle
                prev = last[FINISH]
        else:
            prev = self._busy_until
        finishes = [0.0] * n
        starts = [0.0] * n
        total_bits = 0
        for j in range(n):
            arrival = arrivals[j]
            bits = bits_list[j]
            total_bits += bits
            start = arrival if arrival > prev else prev
            prev = start if rate is None else start + bits / rate
            finishes[j] = prev
            starts[j] = start
        self._bits += total_bits
        self._messages += n
        train = Reservation((arrival, seq0 + n - 1, bits, start, prev,
                             prev + self.latency, None,
                             (bits_list, arrivals, finishes, seq0, starts),
                             ()))
        lane.append(train)
        return train

    def _materialize(self, index: int) -> None:
        """Split the train at lane ``index`` into per-chunk records."""
        lane = self._lane
        handle = lane[index]
        bits_list, arrivals, finishes, seq0, starts = handle[TRAIN]
        latency = self.latency
        parts = []
        for j in range(len(bits_list) - 1):
            finish = finishes[j]
            parts.append(Reservation((arrivals[j], seq0 + j, bits_list[j],
                                      starts[j], finish, finish + latency,
                                      None, None, ())))
        # The handle already carries the last chunk's key and times; it
        # stays in the lane as that chunk.
        handle[TRAIN] = None
        handle[PARTS] = parts
        lane[index:index] = parts

    def _recompute(self, index: int) -> None:
        """Replay reservations from the one just inserted at ``index``,
        in arrival-key order, until one is found not to have moved.

        The running finish frontier is each record's own ``FINISH``; the
        repaired times are written into the caller-held records (whose
        delivery events re-check on fire).  A record's times are a
        function of its predecessor's finish, so the first one behind
        the insert that still finishes when it did ends the replay.
        """
        lane = self._lane
        prev_finish = lane[index - 1][FINISH] if index > 0 \
            else self._busy_until
        rate = self.rate_bps
        latency = self.latency
        replayed = -1       # the inserted record itself is not a replay
        for record in lane[index:]:
            replayed += 1
            train = record[TRAIN]
            if train is None:
                arrival = record[ARRIVAL]
                start = arrival if arrival > prev_finish else prev_finish
                prev_finish = (start if rate is None
                               else start + record[BITS] / rate)
            else:
                # Replay the train's chunk recurrence in place; only the
                # last chunk's times are lane state.  Its chunks count as
                # replayed up to the first unmoved one.
                bits_list, arrivals, train_fins, _seq0, starts = train
                counting = True
                for j in range(len(bits_list)):
                    arrival = arrivals[j]
                    start = (arrival if arrival > prev_finish
                             else prev_finish)
                    prev_finish = (start if rate is None
                                   else start + bits_list[j] / rate)
                    if counting:
                        starts[j] = start
                        replayed += j > 0
                        counting = prev_finish != train_fins[j]
                    train_fins[j] = prev_finish
            unmoved = replayed and prev_finish == record[FINISH]
            record[START] = start
            record[FINISH] = prev_finish
            record[DELIVERY] = prev_finish + latency
            if unmoved:
                break
        self.stats_repairs += 1
        self.stats_replayed += replayed
        # Repairs only move reservations later, so any already-scheduled
        # delivery event fires early and re-pushes to the new time.

    def retire(self, record: Reservation, train=()) -> None:
        """Deliver ``record`` (and ``train``, the earlier records of its
        burst, in any key order) for a caller whose clock stands still:
        write the trace slices and settle the lane through the latest
        arrival among them, as time passing it would have.  Nothing may
        be issued later that keys before that arrival.

        Nothing under ``src/`` calls this; it is here for
        ``benchmarks/perf/micro.py``'s ``link_reserve*`` rows, whose
        lanes would grow without bound at ``now == 0``, and goes when
        they do (ROADMAP item 1(b)) — as does its own copy of the settle
        loop, kept so those rows count the frames they did.
        """
        if self._tracer is not None:
            for part in train:
                self.trace_occupancy(part)
            self.trace_occupancy(record)
        arrival = record[ARRIVAL]
        for part in train:
            if part[ARRIVAL] > arrival:
                arrival = part[ARRIVAL]
        lane = self._lane
        drop = 0
        for entry in lane:
            if entry[ARRIVAL] > arrival:
                break
            drop += 1
        if drop:
            self._busy_until = lane[drop - 1][FINISH]
            del lane[:drop]

    def trace_occupancy(self, record: Reservation) -> None:
        """Emit the Chrome-trace span(s) of a delivered reservation; only
        call when ``_tracer`` is set."""
        train = record[TRAIN]
        if train is None:
            for part in record[PARTS]:
                self.trace_slice(part[START], part[FINISH], part[BITS])
            self.trace_slice(record[START], record[FINISH], record[BITS])
            return
        bits_list, _arrivals, finishes, _seq0, starts = train
        for bits, start, finish in zip(bits_list, starts, finishes):
            self.trace_slice(start, finish, bits)

    def trace_slice(self, start: float, finish: float, bits: float) -> None:
        """One Chrome-trace occupancy span; only call when ``_tracer`` is
        set and the times are final."""
        if finish > start:
            self._tracer.complete(self.trace_process, self.name,
                                  self.trace_name, start, finish,
                                  {"bits": bits})

    def send(self, message: Any, bits: float,
             arrival: Optional[float] = None) -> float:
        """Enqueue ``message`` of ``bits``, handed over now or at the
        future instant ``arrival`` (a fused stage's early resolution,
        arbitrated exactly: see :class:`Reservation`); returns its
        delivery time.  The caller does not block; backpressure, when
        needed, is modelled by the caller checking :meth:`queue_delay`.
        """
        sink = self.sink
        if sink is None:
            raise RuntimeError(f"link {self.name!r} has no sink connected")
        sim = self.sim
        now = sim._now
        if arrival is None:
            arrival = now
        elif not now <= arrival < inf:  # before now, NaN or infinite
            raise ValueError(f"link {self.name!r}: arrival {arrival!r} is "
                             f"not in [now {now!r}, inf)")
        record = self.reserve(bits, arrival, sim._seq)
        record[MESSAGE] = message
        delivery = record[DELIVERY]
        sim.call_later(delivery - now, self._dispatch, record)
        return delivery

    def _dispatch(self, record: Reservation) -> None:
        """Deliver a sent message, honouring post-hoc repairs."""
        sim = self.sim
        if record[DELIVERY] > sim._now:
            # An out-of-order arrival pushed this message later after its
            # delivery event was scheduled; fire again at the final time.
            sim.call_later(record[DELIVERY] - sim._now, self._dispatch,
                           record)
            return
        if self._tracer is not None:
            self.trace_occupancy(record)
        self.sink(record[MESSAGE])

    def queue_delay(self) -> float:
        """Seconds until the link would start serializing a new message."""
        return max(0.0, self.busy_until - self.sim._now)

    @property
    def busy_until(self) -> float:
        lane = self._lane
        return lane[-1][FINISH] if lane else self._busy_until


class DuplexLink:
    """A full-duplex link: independent TX and RX unidirectional lanes."""

    def __init__(
        self,
        sim: Simulator,
        rate_bps: Optional[float],
        latency: float = 0.0,
        name: str = "",
    ):
        self.tx = Link(sim, rate_bps, latency, name=f"{name}.tx")
        self.rx = Link(sim, rate_bps, latency, name=f"{name}.rx")
        self.name = name


class TokenBucket:
    """A token-bucket rate limiter (used by the NIC traffic shaper).

    Tokens accrue at ``rate_bps`` bits/second up to ``burst_bits``.  A
    message conforming to the bucket consumes its size in tokens; the
    ``delay_for`` method reports how long a non-conforming message must wait.
    """

    def __init__(self, sim: Simulator, rate_bps: float, burst_bits: float):
        if not rate_bps > 0:
            raise ValueError("rate_bps must be positive")
        self.sim = sim
        self.rate_bps = rate_bps
        self.burst_bits = burst_bits
        self._tokens = burst_bits
        self._last = sim._now

    def _refill(self) -> None:
        now = self.sim._now
        self._tokens = min(
            self.burst_bits, self._tokens + (now - self._last) * self.rate_bps
        )
        self._last = now

    def try_consume(self, bits: float) -> bool:
        self._refill()
        if self._tokens >= bits:
            self._tokens -= bits
            return True
        return False

    def delay_for(self, bits: float) -> float:
        """Seconds until ``bits`` tokens will be available (0 if now)."""
        self._refill()
        deficit = bits - self._tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate_bps

    def consume(self, bits: float) -> None:
        """Consume unconditionally (may drive the bucket negative-free)."""
        self._refill()
        self._tokens = max(0.0, self._tokens - bits)
