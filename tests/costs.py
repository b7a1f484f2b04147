"""One cost ledger: each warmed burst is profiled once, and every
deterministic cost gate is a row of :data:`GATES` over those profiles,
checked by ``tests/test_costs.py``.  A burst a row bounds in bytecode
instructions ("ops") runs a second time under :class:`OpCounter`: a
profiler and a tracer cannot share a run.  Ops are exact for one
interpreter, and the bounds are CPython :data:`OPS_PYTHON`'s.  To print
each row's calls and ops beside their bounds' headroom::

    PYTHONPATH=src python -m tests.costs
"""

import cProfile
import gc
import operator
import pstats
import random
import sys
import types
from collections import Counter
from fnmatch import fnmatchcase
from functools import lru_cache, partial
from pathlib import Path

from repro.accelerators.zuc import eea3_encrypt
from repro.core import AxisMetadata
from repro.experiments.setups import (cpu_echo_remote, flde_echo_local,
                                     flde_echo_remote, fldr_echo, zuc_service)
from repro.host import LoadGenerator
from repro.net import Flow
from repro.net.parse import parse_frame
from repro.nic import EthernetPort
from repro.sim import Event, Process, Simulator
from repro.sw import CryptoOp, FldRZucCryptodev
from repro.telemetry import Telemetry
from repro.testbed import HOST_MEM_BASE, make_local_node

#: ``pstats``' file name for builtins, and the split's entry for the
#: builtin calls no profiled function made.
BUILTIN, REMAINDER = "~", "(no profiled caller)"


def _match(path, name, site):
    """Whether ``site`` (``"path fragment:glob|glob..."``) matches."""
    fragment, _, patterns = site.partition(":")
    return fragment in path and any(fnmatchcase(name, pattern)
                                    for pattern in patterns.split("|"))


class OpCounter:
    """Bytecode instructions executed between :meth:`enable` and
    :meth:`disable` (or under :meth:`runcall`), per function (``ops``,
    keyed as ``pstats`` keys): the calls made meanwhile, as
    ``cProfile.Profile`` counts them.  Each traced frame counts into its
    own closure and adds to ``ops`` when it returns, yields or raises: a
    dictionary update per instruction would cost four times the run.
    The collector is off meanwhile: a collection runs the process's
    ``gc.callbacks`` (hypothesis installs one) wherever it falls."""

    def __init__(self):
        self.ops = Counter()
        self._by_code = None

    def enable(self):
        by_code = self._by_code = Counter()

        def call(frame, _event, _arg):
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
            code, count = frame.f_code, 0

            def step(_frame, event, _arg):
                nonlocal count
                if event == "opcode":
                    count += 1
                else:
                    by_code[code] += count
                    count = 0
                return step
            return step

        self._previous, self._collecting = sys.gettrace(), gc.isenabled()
        gc.disable()
        sys.settrace(call)

    def disable(self):
        by_code, self._by_code = self._by_code, None
        if by_code is None:
            return
        sys.settrace(self._previous)
        if self._collecting:
            gc.enable()
        for code, count in by_code.items():
            self.ops[cProfile.label(code)] += count

    def runcall(self, func, *args):
        self.enable()
        try:
            return func(*args)
        finally:
            self.disable()


class Ledger:
    """One profiled burst: ``total`` calls over ``per`` units.  ``split``
    charges each call to one file: a function's to its own, a builtin's to
    its caller's or else to :data:`REMAINDER`.  (``pstats`` keys by file,
    line and name: put two profiled lambdas on two lines.)  Given an
    :class:`OpCounter`'s ``ops`` from a second run, ``op_split`` sums
    them per file (a builtin executes none)."""

    def __init__(self, stats: pstats.Stats, per: int, ops=None):
        self.per, self.total, self.stats = per, stats.total_calls, stats.stats
        self.ops, self.op_split = ops, Counter()
        for (path, _line, _name), count in (ops or {}).items():
            self.op_split[path] += count
        self.seen = {(path, name) for path, _line, name in self.stats}
        self.split = Counter()
        for (path, _line, _name), (_cc, ncalls, _tt, _ct, callers) \
                in self.stats.items():
            if path == BUILTIN:
                for caller, counts in callers.items():
                    self.split[caller[0]] += counts[0]
                    ncalls -= counts[0]
                path = REMAINDER
            self.split[path] += ncalls
        assert sum(self.split.values()) == self.total, self.split

    def calls(self, site) -> int:
        """Calls of a function, of every function a site matches, or of a
        ``(site, callers)`` pair's only from those callers."""
        if isinstance(site, tuple):
            return sum(self.callers(*site).values())
        if callable(site):
            return self.stats.get(cProfile.label(site.__code__), (0, 0))[1]
        return sum(entry[1] for (path, _line, name), entry
                   in self.stats.items() if _match(path, name, site))

    def callers(self, site, only=None) -> Counter:
        """``(path, name) -> calls`` into ``site``, of callers matching
        an ``only`` site if given."""
        edges = Counter()
        for (path, _line, name), entry in self.stats.items():
            if _match(path, name, site):
                for (where, _line, caller), counts in entry[4].items():
                    if only is None or any(_match(where, caller, pattern)
                                           for pattern in only):
                        edges[where, caller] += counts[0]
        return edges

    def charged(self, scope, ops=False) -> int:
        """Calls (``ops``: bytecode instructions) of functions under
        ``scope`` (a path fragment, or a tuple of them; ``None``: all) and
        of builtins they call."""
        scopes = (scope,) if isinstance(scope, str) else scope
        return sum(count for path, count in
                   (self.op_split if ops else self.split).items()
                   if scope is None
                   or any(fragment in path for fragment in scopes))


# Bursts: each builds and warms its setup, then profiles its steady state.
WARM, FRAMES, RATE_PPS = 32, 128, 12.8e6    # 64 B at 9 Gb/s on the wire
CPU_RATE_PPS = 8.5e6                        # 64 B at 6 Gb/s on the wire
TRIPS, REQUESTS, OPS, BURST = 64, 64, 256, 16
MAC, PEER_MAC = "02:00:00:00:00:99", "02:00:00:00:00:01"
PAYLOAD = bytes(range(64))


def paced_echo(profile, spans=False, setup=flde_echo_remote, rate=RATE_PPS):
    random.seed(7)
    telemetry = Telemetry(trace=False, spans=True) if spans else None
    sim = Simulator(telemetry=telemetry)
    loadgen = setup(sim).loadgen

    def burst(count):
        def drive():
            yield from loadgen.run_open_loop([64] * count, rate_pps=rate)
            yield from loadgen.drain()
        sim.spawn(drive())
        sim.run()

    burst(WARM)     # routes, frame template, descriptor prefetch
    profile.runcall(burst, FRAMES)
    assert loadgen.stats_received == WARM + FRAMES
    assert not spans or len(telemetry.spans.finished_traces()) == WARM + FRAMES


def closed_loop(profile):
    random.seed(7)
    telemetry = Telemetry(trace=False, profile=True)
    sim = Simulator(telemetry=telemetry)
    warm = flde_echo_remote(sim).loadgen
    stages = telemetry.profiler.stage_counts

    def burst(loadgen, count):
        def drive():
            yield from loadgen.run_closed_loop(64, count, window=1)
        sim.spawn(drive())
        sim.run()

    burst(warm, 16)
    # A fresh generator: the loop counts responses from its generator's
    # first.  One app event a round trip, plus the spawn of ``drive``.
    loadgen = LoadGenerator(sim, warm.qp, warm.flow)
    before = stages().get("app", 0)
    profile.runcall(burst, loadgen, TRIPS)
    assert loadgen.stats_received == TRIPS
    assert stages().get("app", 0) - before == TRIPS + 1


def fldr_requests(profile):
    random.seed(7)
    sim = Simulator()
    setup = fldr_echo(sim)

    def burst(count):
        replies = []

        def drive():
            for _ in range(count):
                setup.connection.post(bytes(512))
            for _ in range(count):
                replies.append((yield setup.connection.responses.get())[0])
        sim.spawn(drive())
        sim.run()
        assert replies == [bytes(512)] * count

    burst(16)   # QP frame heads, routes, descriptor prefetch
    profile.runcall(burst, REQUESTS)
    assert setup.client.nic.rdma.stats_retransmits == 0


def zuc_requests(profile):
    random.seed(7)
    sim = Simulator()
    dev = FldRZucCryptodev(sim, zuc_service(sim).connection)
    key = bytes(range(16))

    def burst(ops):
        def drive():
            for op in ops:
                dev.submit(op)
            for _ in ops:
                yield dev.completions.get()
        sim.spawn(drive())
        sim.run()

    def cipher(count):
        return [CryptoOp(CryptoOp.CIPHER, key, bytes([i]) * 512, count=i)
                for i in range(count)]

    burst(cipher(16))   # QP frame heads, routes, the cipher's tables
    ops = cipher(REQUESTS)
    profile.runcall(burst, ops)
    assert all(op.result == eea3_encrypt(key, op.count, 0, 0, op.payload)
               for op in ops)


def in_bursts(profile, per_frame, settle=None, src=PEER_MAC, dst=MAC,
              settle_profiled=True):
    """Hand 128 64 B frames to ``per_frame``, ``settle()`` every 16; the
    first 16 warm caches, the rest are profiled (``settle`` if asked)."""
    flow = Flow(src, dst, "10.0.0.1", "10.0.0.2", 7000, 7001)
    data = [flow.make_sized_packet(64).to_bytes() for _ in range(8 * BURST)]
    for start in range(0, len(data), BURST):
        if start:
            profile.enable()
        for frame in data[start:start + BURST]:
            per_frame(frame)
        if not settle_profiled:
            profile.disable()
        if settle:
            settle()
        profile.disable()
    return data


def host_queue(**qp_options):
    sim = Simulator()
    node = make_local_node(sim)
    node.add_vport_for_mac(2, MAC)
    return sim, node, node.driver.create_eth_qp(2, **qp_options)


def nic_send(profile):
    sim, node, qp = host_queue(use_mmio_wqe=True)
    peer = EthernetPort(sim, "peer")
    node.nic.port.connect(peer)
    wire = []
    peer.on_receive = wire.append
    data = in_bursts(profile, qp.send, sim.run, src=MAC, dst=PEER_MAC)
    assert [packet.raw for packet in wire] == data
    assert qp.sq.stats_wqe_fetches == 0     # every WQE came by MMIO


def wire_to_queue(settle_profiled):
    def burst(profile):
        sim, node, qp = host_queue()
        qp.post_rx_buffers(8 * BURST)
        got = []
        qp.on_receive = lambda data, cqe: got.append(data)
        ingress = node.nic.eswitch.ingress_from_wire
        assert got == in_bursts(
            profile, lambda frame: ingress(parse_frame(frame)), sim.run,
            settle_profiled=settle_profiled)
    return burst


def echo_accelerator(profile):
    accel, meta, echoed = flde_echo_local(Simulator()).accel, AxisMetadata(), []
    data = in_bursts(profile,
                     lambda frame: echoed.extend(accel.process(frame, meta)))
    assert [len(out) for out, _meta in echoed] == [64] * len(data)
    assert echoed[0][0][0:6] == data[0][6:12]


def _nothing(_data=None):
    pass


def _write(node, address):
    node.fabric.post_write(node.nic, address, data=PAYLOAD, on_done=_nothing)


def _read(node, address):
    node.fabric.read(node.nic, address, 64, on_done=_nothing)


def fabric(issue):
    def burst(profile):
        sim = Simulator()
        node = make_local_node(sim)

        def bursts(ops):
            for base in range(0, ops, BURST):
                for slot in range(BURST):
                    issue(node, HOST_MEM_BASE + 64 * (base + slot))
                sim.run()
        bursts(BURST)   # the first use of the window resolves the route
        profile.runcall(bursts, OPS)
    return burst


#: name -> (burst(profile), units profiled)
BURSTS = {
    # 64 B FLD-E echoes paced (untraced or every packet traced) or in a
    # window-1 closed loop; 64 B CPU (testpmd) echoes paced; 512 B FLD-R
    # echo requests and 512 B cryptodev cipher requests.
    "echo": (paced_echo, FRAMES),
    "echo-spans": (lambda profile: paced_echo(profile, spans=True), FRAMES),
    "cpu-echo": (partial(paced_echo, rate=CPU_RATE_PPS,
                         setup=partial(cpu_echo_remote, jitter=False)), FRAMES),
    "closed-loop": (closed_loop, TRIPS),
    "fldr": (fldr_requests, REQUESTS),
    "zuc": (zuc_requests, REQUESTS),
    # 64 B frames on a local node: MMIO WQE doorbells to the wire, the wire
    # to a host queue's CQE (or its inbox), the echo accelerator.
    "nic-send": (nic_send, 7 * BURST),
    "nic-receive": (wire_to_queue(settle_profiled=True), 7 * BURST),
    "wire-to-queue": (wire_to_queue(settle_profiled=False), 7 * BURST),
    "echo-accelerator": (echo_accelerator, 7 * BURST),
    "fabric-write": (fabric(_write), OPS),
    "fabric-read": (fabric(_read), OPS),
}


@lru_cache(maxsize=None)
def ledger(burst: str) -> Ledger:
    """``burst`` run and profiled, once per process, and run again under
    an :class:`OpCounter` if a row bounds its ops."""
    run, per = BURSTS[burst]
    profile = cProfile.Profile()
    run(profile)
    ops = None
    if burst in OPS_BURSTS:
        counter = OpCounter()
        run(counter)
        ops = counter.ops
    return Ledger(pstats.Stats(profile), per, ops)


#: The interpreter the ops bounds were counted on; on any other, the ops
#: checks skip, saying why (:data:`OPS_SKIP`).
OPS_PYTHON = ("cpython", (3, 11))
OPS_SKIP = (None if (sys.implementation.name, sys.version_info[:2]) == OPS_PYTHON
            else f"ops bounds are counted on CPython 3.11, not "
                 f"{sys.implementation.name} {sys.version.split()[0]}")


SEND = "~:<method 'send' of 'generator' objects>"
DRIVE, CORE, NIC = "tests/costs.py:drive", "/repro/core/", "/repro/nic/"
HOST = "/repro/host/:*"
PCIE = ("/repro/pcie/", "sim/resources.py")
STEERING = ("nic/steering.py", "nic/eswitch.py")
THAWED = ("/packet.py:find|append|_thaw|<genexpr>|<listcomp>",
          "/parse.py:parse_headers", "/ethernet.py:unpack", "/ip.py:unpack|pack",
          "/udp.py:unpack")
NIC_OBJECT = (NIC + "device.py:__init__",)
#: A doorbell is the SQ's PI register: nothing in nic/queues.py puts to
#: or pops a Store, and the fetch stage pops none.
DOORBELL_STORE = (("sim/engine.py:put_or_park|pop_or_park", ("nic/queues.py:*",)),
                  ("sim/engine.py:pop_or_park", ("nic/device.py:_drain",)))
PER_TLP = (":decode|port_of|retire|completion_chunks"
           "|<built-in method _bisect.*>",
           "fabric.py:__init__", "resources.py:__init__")
LEN = "~:<built-in method builtins.len>"
#: A payload's length is read off its descriptor (a WQE's or a CQE's
#: byte count), or off the record an earlier stage of the same device
#: measured it into: none of these measures it, and an IPv4 header's
#: checksum is summed in place.
LENGTH_READERS = (LEN, (
    "nic/device.py:_tx_send|_tx_paced|_tx_conformed|_complete"
    "|_mprq_desc_ready|_plain_desc_ready",
    "core/fld.py:occupied|land", "core/tx.py:submit",
    "core/buffers.py:write_scattered", "host/testpmd.py:_on_receive|_tick",
    "net/checksum.py:*"))
#: ... and a sent RC message's segments, frames and ACKs are sized by
#: arithmetic on the WQE's byte count.
RC_LENGTH_READERS = (LEN, LENGTH_READERS[1] + (
    "nic/rdma.py:send_message|_send_segment|_build_frame|_frame|_send_ack",
))
#: The one measurement each: an FLD send's payload when it starts, a
#: received frame's when the NIC places it.
MEASURED_ONCE = (((LEN, ("core/fld.py:send_then",)), "==", 1),
                 ((LEN, ("nic/device.py:_service",)), "==", 2))

#: Rows ``(name, burst, per, scope, bound, never, counts[, ops])``:
#: ``burst`` or ``(burst, baseline)`` to measure the difference; calls a
#: ``per`` unit of a path ``scope`` (or of any of a tuple of paths) with
#: the builtins it calls (``None``: all), at most ``bound``; ``never``:
#: sites, or ``(site, callers)``; ``counts``: ``(site, op, value)``,
#: ``value`` a number or a site, both calls a unit; ``ops``: at most that
#: many bytecode instructions a unit in ``scope``, less the baseline's.
GATES = (
    # A received frame keeps its parse: only each transmitting NIC
    # parses, reading a frame's headers in one read; no whole-frame
    # parse, size helper or checksum chain.  A payload is measured once.
    ("echo", "echo", "frame", None, 313.5,
         ("/parse.py:parse_frame", "/checksum.py:internet_checksum",
          "/packet.py:size", LENGTH_READERS),
         (("net/parse.py:parse_layout", "<=", 2),
          (("~:<method 'unpack_from' of '_struct.Struct' objects>",
            ("net/parse.py:parse_layout",)), "<=",
           "net/parse.py:parse_layout"), *MEASURED_ONCE),
         13_680),
    # A descriptor is its bytes: one pack and one unpack_from, no codec.
    ("echo.descriptors", "echo", "frame", None, None, ("nic/wqe.py:*",), ()),
    # A steered frame reads each table's verdict off its index in the
    # eSwitch's frame: one forward per eSwitch crossing and one
    # egress_resolve per transmit, and no steering.py frame (no process,
    # lowered table or action list, no per-rule or per-verdict frame).
    ("echo.steering", "echo", "frame", STEERING, None,
         ("nic/steering.py:*",),
         (("nic/eswitch.py:forward", "==", 2),
          ("nic/eswitch.py:egress_resolve", "==", 2)), 567),
    # An FLD packet pays only for its translations: no BAR object, no
    # helper folded into a stage, no cycle count through its config;
    # two maps at submit, one translation by the NIC's read, two unmaps.
    ("echo.core", "echo", "frame", CORE, 55.6,
         (CORE + "bar.py:*", ("core/fld.py:cycles", (CORE + ":*",)),
          *(CORE + site for site in (
              "tx.py:queue", "rx.py:binding", "translation.py:free_slots",
              "buffers.py:free_chunks|read"))),
         (("core/cuckoo.py:insert", "==", 2), ("core/cuckoo.py:lookup", "==", 1),
          ("core/cuckoo.py:remove", "==", 2)), 1_865),
    # A cuckoo table finds a key where it put it: a lookup or a remove
    # reads the key's slot off the index and hashes nothing; an insert
    # hashes once and mixes per bank only until a slot is free.
    ("echo.cuckoo", "echo", "frame", "core/cuckoo.py", 7,
         (("~:<built-in method builtins.hash>",
           ("core/cuckoo.py:lookup|remove",)),),
         ((("~:<built-in method builtins.hash>", ("core/cuckoo.py:*",)),
           "==", 2),), 274),
    # A hand-off is a parked continuation: a packet builds no engine
    # object and steps no generator; only the burst's driver is stepped.
    ("echo.rendezvous", "echo", "frame", None, None, (),
         (("sim/engine.py:__init__", "<", 1),
          ((DRIVE, (SEND,)), "==", SEND), (SEND, "==", DRIVE),
          ("sim/engine.py:_step", "<=", DRIVE))),
    # The scheduler, the lanes and the fabric: a put tests fullness and
    # hands off in its own frame against counted occupancy, a pop pops
    # in its own, the host reads the clock's slot, a deferred write is a
    # list read by slot, and a TLP's in-order lane appends run in
    # _reserve_path, which calls Link.reserve only to repair.
    ("echo.stack", "echo", "frame", ("/repro/sim/", "/repro/pcie/"), 137.6,
         ("sim/engine.py:try_get",
          ("~:<built-in method builtins.len>", ("sim/engine.py:*",)),
          ("sim/engine.py:now", (HOST,)),
          "pcie/fabric.py:__init__"),
         ((("sim/resources.py:reserve", ("pcie/fabric.py:_reserve_path",)),
           "<=", "sim/resources.py:_recompute"),), 7_305),
    # The scheduler's own work: its pushes, its run loop and the Store
    # hand-offs.  A handler's first push replaces the entry it was
    # dispatched from, so only a dispatch that pushed nothing pops.
    ("echo.engine", "echo", "frame", "/repro/sim/engine.py", 67.9, (),
         (("~:<built-in method _heapq.heappop>", "<=", 3.2),), 2_035),
    # Watching a packet: levels are pulled, a finished trace and a
    # hand-off fold their samples in place, the fabric stamps a TLP's
    # span end itself, histograms are resolved once, the recorder makes
    # no per-sample builtin call, and no Span is built from the columns.
    ("echo.spans", ("echo-spans", "echo"), "frame", None, 91,
         ("telemetry/metrics.py:set|_get|histogram",
          "telemetry/spans.py:spans|orphan_spans|to_dict",
          ("telemetry/metrics.py:observe",
           ("telemetry/spans.py:end_trace", "sim/engine.py:put_or_park")),
          ("telemetry/spans.py:exit", ("pcie/fabric.py:*",)),
          ("~:<built-in method builtins.max>|<built-in method builtins.min>"
           "|<built-in method builtins.isinstance>"
           "|<method 'add' of 'set' objects>",
           ("telemetry/spans.py:*", "telemetry/metrics.py:*"))), (), 6_415),
    # The host side of the CPU echo: a one-page access is one frame (a
    # write subscripts a page dict that makes a page on first touch, a
    # read tests ``in``).
    ("host", "cpu-echo", "frame", "/repro/host/", 60.3,
         (("~:<method 'get' of 'dict' objects>", ("host/memory.py:*",)),
          LENGTH_READERS), (), 2_035),
    # A wait is parked where its condition changes: no poll timeout, and
    # over the whole burst two Events, one Process, two driver steps.
    # The burst runs profiled, so its ops count the profiler's filing.
    ("closed-loop", "closed-loop", "round trip", None, 438.6,
         ("sim/engine.py:timeout", LENGTH_READERS),
         ((Event.__init__, "==", 2 / TRIPS), (Process.__init__, "==", 1 / TRIPS),
          (SEND, "==", 2 / TRIPS), ((DRIVE, (SEND,)), "==", SEND)), 14_505),
    # An RC segment is its bytes: no net/roce.py frame, one BTH read per
    # segment received (a data segment each way and an ACK for each).  A
    # message is sliced a segment at a time (no chunk list), and a
    # one-segment one is one _send_segment pass, which calls on_done.  A
    # multi-TLP write or read is sized by arithmetic: no chunk list, and
    # a write train finds its route without a frame.
    ("fldr", "fldr", "request", None, 424.7,
         ("net/roce.py:*", "pcie/tlp.py:split_write_bytes|completion_chunks",
          ("pcie/fabric.py:_route", ("pcie/fabric.py:post_write",)),
          RC_LENGTH_READERS),
         (("nic/rdma.py:on_ingress", "==", 4), ("nic/rdma.py:_frame", "==", 4),
          ("nic/rdma.py:_send_segment", "==", 2), *MEASURED_ONCE,
          ((LEN, ("host/driver.py:_post",)), "==", 1)),
         16_580),
    # A cipher request pays for its bytes: the header is packed and
    # unpacked once a side, the keystream is one kernel pass (the
    # constructor runs no round), and a one-segment message reaches the
    # units without the front end's assembly dict.  No ops bound: a
    # request's ops are the cipher's.
    ("zuc", "zuc", "request", None, 464.6,
         (("~:<method 'setdefault' of 'dict' objects>|"
           "<method 'join' of 'bytes' objects>",
           ("accelerators/base.py:_reassemble",)), RC_LENGTH_READERS),
         (("accelerators/zuc/zuc_core.py:_clock", "==", 1),)),
    # The same for RC segments: each crosses its eSwitch in one forward.
    ("fldr.steering", "fldr", "request", STEERING, None,
         ("nic/steering.py:*",),
         (("nic/eswitch.py:forward", "==", 8),
          ("nic/eswitch.py:egress_resolve", "==", 4)), 1_149),
    # The PCIe accounting: the fabric's transactions and the lanes they
    # reserve, in bytecode instructions, for 512 B requests (write and
    # completion trains) and for 64 B echoes (single TLPs).
    ("fldr.pcie", "fldr", "request", PCIE, 76, (), (), 6_000),
    ("echo.pcie", "echo", "frame", PCIE, 67.6, (), (), 5_140),
    # A NIC frame is one pass per direction: no per-frame device object,
    # and a doorbell reaches no Store.
    ("nic.send", "nic-send", "frame", NIC, 14.33,
     NIC_OBJECT + DOORBELL_STORE + (LENGTH_READERS,), (), 662),
    ("nic.receive", "nic-receive", "frame", NIC, 13.5,
     NIC_OBJECT + (LENGTH_READERS,), (), 638),
    # A frame is steered off its layout: never thawed, rebuilt, re-packed.
    ("rx.wire-to-queue", "wire-to-queue", "frame", None, 16.35, THAWED, (),
     581),
    ("rx.echo-accelerator", "echo-accelerator", "frame", None, 10.16, THAWED,
     (), 352),
    # A TLP is its lane entry: no address decode, lane search or retire,
    # bounds-check frame, chunked completion, fabric or lane object.
    ("fabric.write", "fabric-write", "op", None, 15, PER_TLP, (), 548),
    ("fabric.read", "fabric-read", "op", None, 19, PER_TLP, (), 877),
)
OPS_GATES = tuple(gate for gate in GATES if len(gate) > 7)
OPS_BURSTS = {burst for gate in OPS_GATES for burst in
              (gate[1] if isinstance(gate[1], tuple) else (gate[1],))}


def _charged(gate, ops=False):
    """``gate``'s burst ledger and its calls (``ops``: bytecode
    instructions) a unit in its scope, less its baseline's."""
    bursts, scope = gate[1], gate[3]
    led, *baseline = (ledger(burst) for burst in (
        bursts if isinstance(bursts, tuple) else (bursts,)))
    return led, sum(sign * part.charged(scope, ops) for sign, part
                    in zip((1, -1), (led, *baseline))) / led.per


def check(gate):
    """``gate``'s calls a unit (less its baseline's), and why it fails:
    its bound, each ``never`` site that ran, each count off its value."""
    _name, _bursts, per, _scope, bound, never, counts = gate[:7]
    led, value = _charged(gate)
    found = [f"{value:.2f} calls a {per} > bound {bound}"] \
        if bound is not None and value > bound else []
    for site in never:
        hits = (led.callers(*site) if isinstance(site, tuple) else
                [key for key in led.seen if _match(*key, site)])
        if hits:
            found.append(f"never {site} ran: {sorted(hits)}")
    for site, op, want in counts:
        got = led.calls(site) / led.per
        if not isinstance(want, (int, float)):
            want = led.calls(want) / led.per
        if not {"==": operator.eq, "<=": operator.le, "<": operator.lt}[op](
                got, want):
            found.append(f"{getattr(site, '__qualname__', site)}: {got:g} a "
                         f"{per}, want {op} {want:g}")
    return value, found


def check_ops(gate):
    """``gate``'s ops a unit (less its baseline's), and why it fails: its
    ops bound."""
    per, bound = gate[2], gate[7]
    _led, value = _charged(gate, ops=True)
    return value, ([f"{value:.0f} ops a {per} > bound {bound}"]
                   if value > bound else [])


SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@lru_cache(maxsize=None)
def source_functions() -> frozenset:
    """``(path, name)`` of every function under ``src/repro``, named as
    ``pstats`` names it (``<genexpr>`` and the like included; a module's
    body runs at import, never in a burst)."""
    found = set()
    for path in SRC.rglob("*.py"):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(const for const in code.co_consts
                         if isinstance(const, types.CodeType))
            if code.co_name != "<module>":
                found.add((str(path), code.co_name))
    return frozenset(found)


def stale_sites(gates=None):
    """``never`` sites of ``gates`` (default :data:`GATES`), callers'
    sites included, naming a pattern that no function under
    ``src/repro`` matches: such a site passes whatever the datapath
    does.  A builtin's pattern (``<built-in ...>``, ``<method ...>``)
    stands where its path fragment can match ``pstats``' builtin file."""
    stale = []
    for gate in GATES if gates is None else gates:
        for never in gate[5]:
            for site in ((never[0], *never[1]) if isinstance(never, tuple)
                         else (never,)):
                fragment, _, patterns = site.partition(":")
                for pattern in patterns.split("|"):
                    if pattern.startswith(("<built-in", "<method")):
                        live = fragment in BUILTIN
                    else:
                        live = any(fragment in path
                                   and fnmatchcase(name, pattern)
                                   for path, name in source_functions())
                    if not live:
                        stale.append(f"{gate[0]}: {site!r} ({pattern})")
    return stale


def _headroom(value, bound, digits):
    if bound is None:
        return f"{value:>9.{digits}f}{'-':>7}{'-':>7}"
    return (f"{value:>9.{digits}f}{bound:>7}"
            f"{100 * (bound - value) / bound:>6.1f}%")


def main() -> int:
    """Print every row; 1 if any fails, naming each failing row."""
    print(f"{'gate':<21}{'calls':>9}{'bound':>7}{'room':>7}"
          f"{'ops':>9}{'bound':>7}{'room':>7}")
    failing = []
    for gate in GATES:
        value, found = check(gate)
        row = f"{gate[0]:<21}{_headroom(value, gate[4], 2)}"
        note = found
        if len(gate) > 7 and OPS_SKIP:
            note = found + [f"ops skipped: {OPS_SKIP}"]
        elif len(gate) > 7:
            ops, ops_found = check_ops(gate)
            row += _headroom(ops, gate[7], 0)
            found += ops_found
        if found:
            failing.append(gate[0])
        print(f"{row:<65}  a {gate[2]}: {'; '.join(note) or 'ok'}")
    if failing:
        print(f"failing: {', '.join(failing)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
