"""Layer micro rows: one public entry point each, on echo-shaped inputs.

Each row reports ``micro.<row>.ns_per_op`` (host time, informational: a
few tens of milliseconds of work, so noisy) and ``micro.<row>.calls_per_op``
(Python + C function calls per operation under ``cProfile``; repeats to
the digit).  A row is a ``make()`` that does the untimed set-up and
returns a ``fn``; ``fn()`` does the operations and returns how many.

The five engine rows are ``benchmarks/bench_engine.py``'s workloads,
imported, not copied.
"""

from __future__ import annotations

import cProfile
import pstats
from time import perf_counter
from typing import Callable, Dict

import bench_engine

from repro.accelerators.zuc.eea3 import eea3_encrypt
from repro.core.cuckoo import CuckooHashTable
from repro.experiments.setups import CLIENT_IP, CLIENT_MAC, FLD_MAC, \
    SERVER_IP, flde_echo_remote
from repro.net import Flow
from repro.net.parse import parse_frame
from repro.nic.wqe import TxWqe
from repro.sim import Link, Simulator
from repro.testbed import HOST_MEM_BASE, make_local_node

ENGINE_EVENTS = 20_000
FRAME_BITS = (64 + 24) * 8        # one 64 B payload TLP with its framing
PCIE_LANE_BPS = 50e9
BURST = 16                        # transactions in flight per sim.run()


def _engine(bench):
    """A ``bench_engine`` workload; it returns (dispatched, wall, pushes)."""
    def make():
        return lambda: bench(ENGINE_EVENTS)[0]
    return make


def _link_reserve():
    """A cut-through TLP books two lanes at issue time: the requester's at
    ``now`` (the lane-free fast path) and the target's at the first lane's
    delivery (a pending-lane append), then retires both on arrival."""
    sim = Simulator()
    up = Link(sim, PCIE_LANE_BPS, latency=150e-9, name="")
    down = Link(sim, PCIE_LANE_BPS, latency=150e-9, name="")

    def fn(n=4000):
        for seq in range(n):
            first = up.reserve(FRAME_BITS, 0.0, 2 * seq)
            second = down.reserve(FRAME_BITS, first.delivery, 2 * seq + 1)
            up.retire(first)
            down.retire(second)
        return 2 * n
    return fn


def _link_reserve_train():
    """A 1 KiB completion as four 256 B chunks on one lane entry."""
    sim = Simulator()
    link = Link(sim, PCIE_LANE_BPS, latency=150e-9, name="")
    bits = [(256 + 24) * 8] * 4

    def fn(n=3000):
        for seq in range(n):
            start = seq * 1e-6
            train = link.reserve_train(
                bits, [start + j * 45e-9 for j in range(4)], 4 * seq)
            link.retire(train)
        return n
    return fn


def _fabric(issue):
    """``issue(fabric, nic, address)`` starts one 64 B transaction; a burst
    is issued, then the simulator runs until every one has been delivered."""
    def make():
        sim = Simulator()
        node = make_local_node(sim)

        def fn(n=2000):
            for base in range(0, n, BURST):
                for slot in range(BURST):
                    issue(node.fabric, node.nic,
                          HOST_MEM_BASE + 64 * (base + slot))
                sim.run()
            return n
        return fn
    return make


_PAYLOAD = bytes(range(64))


def _issue_write(fabric, nic, address):
    fabric.post_write(nic, address, data=_PAYLOAD, on_done=_nothing)


def _issue_read(fabric, nic, address):
    fabric.read(nic, address, 64, on_done=_nothing)


def _nothing(_data=None):
    pass


def _wqe_codec(burst):
    """Encode then decode a burst of send WQEs: 32 is a full fetch (the
    vectorised codec), 1 the closed-loop case (its scalar fallback)."""
    def make():
        wqes = [TxWqe(opcode=1, qpn=7, wqe_index=i,
                      buffer_addr=HOST_MEM_BASE + 2048 * i, byte_count=64)
                for i in range(burst)]

        def fn(n=6400 // burst):
            for _ in range(n):
                TxWqe.unpack_many(TxWqe.pack_many(wqes), burst)
            return n * burst
        return fn
    return make


def _cuckoo_lookup_many():
    """The tx ring manager's probe: 32 (queue, wqe index) keys a call."""
    table = CuckooHashTable(4096)
    for index in range(1024):
        table.insert((3, index), index)
    batches = [[(3, (start + j) % 1024) for j in range(32)]
               for start in range(0, 1024, 32)]

    def fn(rounds=6):
        for _ in range(rounds):
            for keys in batches:
                table.lookup_many(keys)
        return rounds * 1024
    return fn


def _steering_process():
    """An ingress 64 B frame's two pipeline walks on the FLD node: the
    FDB root (MAC to vPort), then the vPort's receive root (to the
    accelerator queue)."""
    sim = Simulator()
    setup = flde_echo_remote(sim)
    nic = setup.server.nic
    flow = Flow(CLIENT_MAC, FLD_MAC, CLIENT_IP, SERVER_IP, 7000, 7001)
    packet = parse_frame(flow.make_sized_packet(64).to_bytes())
    pipeline = nic.steering
    fdb_root = nic.eswitch.FDB_ROOT
    rx_root = nic.eswitch.vports[2].rx_root

    def fn(n=3000):
        for _ in range(n):
            pipeline.process(packet, fdb_root)
            pipeline.process(packet, rx_root)
        return 2 * n
    return fn


def _zuc_eea3_512():
    key = bytes(range(16))
    payload = bytes(512)

    def fn(n=40):
        for count in range(n):
            eea3_encrypt(key, count, 0, 0, payload)
        return n
    return fn


ROWS: Dict[str, Callable[[], Callable[[], int]]] = {
    "engine_ready": _engine(bench_engine.bench_ready),
    "engine_heap": _engine(bench_engine.bench_heap),
    "engine_store": _engine(bench_engine.bench_store),
    "engine_generator": _engine(bench_engine.bench_generator),
    "engine_flat": _engine(bench_engine.bench_flat),
    "link_reserve": _link_reserve,
    "link_reserve_train": _link_reserve_train,
    "fabric_write": _fabric(_issue_write),
    "fabric_read": _fabric(_issue_read),
    "wqe_codec_n32": _wqe_codec(32),
    "wqe_codec_n1": _wqe_codec(1),
    "cuckoo_lookup_many": _cuckoo_lookup_many,
    "steering_process": _steering_process,
    "zuc_eea3_512": _zuc_eea3_512,
}


def run_rows(timing_repeats: int = 3) -> Dict[str, Dict[str, float]]:
    """Every row's ``ns_per_op`` (best of ``timing_repeats``) and exact
    ``calls_per_op``."""
    out = {}
    for name, make in ROWS.items():
        best = None
        for _ in range(timing_repeats):
            fn = make()
            started = perf_counter()
            ops = fn()
            elapsed = (perf_counter() - started) / ops
            best = elapsed if best is None else min(best, elapsed)
        fn = make()
        profile = cProfile.Profile()
        ops = profile.runcall(fn)
        out[name] = {
            "ns_per_op": best * 1e9,
            "calls_per_op": pstats.Stats(profile).total_calls / ops,
        }
    return out
