"""Unit-level lockstep checks for the batched datapath building blocks.

Where ``test_differential.py`` proves whole experiments match across
modes, these tests pin each batched routine against its scalar twin
directly: ring-read WQE generation, translation-pool batch lookups
and the load generator's template frame encoder.
"""

import random
import types

import pytest

from repro import batching
from repro.core import (
    AxisMetadata,
    BufferPool,
    TranslationError,
    TxRingManager,
)
from repro.net.flows import Flow
from repro.net.ip import PROTO_TCP, PROTO_UDP
from repro.nic import WQE_SIZE
from repro.sim import Simulator


@pytest.fixture
def both_modes():
    """Restore the process-wide batching mode after each test."""
    previous = batching.batch_enabled()
    yield
    batching.set_batch_enabled(previous)


def make_tx():
    sim = Simulator()
    pool = BufferPool(16 * 1024, chunk_size=256)
    return sim, TxRingManager(sim, pool, 64, bar_base=0x1000_0000)


class TestBatchedRingRead:
    def test_batched_ring_read_matches_scalar_bytes(self, both_modes):
        _sim, tx = make_tx()
        tx.add_queue(0, qpn=9, entries=16, doorbell_addr=0, mmio_addr=0)
        for i in range(6):
            tx.submit(0, bytes([i]) * (80 + i), AxisMetadata(queue_id=0))
        batching.set_batch_enabled(True)
        batched = tx.handle_ring_read(0, 0, 6 * WQE_SIZE)
        batching.set_batch_enabled(False)
        scalar = tx.handle_ring_read(0, 0, 6 * WQE_SIZE)
        assert batched == scalar
        # ...and both equal the per-WQE reads stitched together.
        singles = b"".join(
            tx.handle_ring_read(0, i * WQE_SIZE, WQE_SIZE)
            for i in range(6)
        )
        assert batched == singles

    def test_batched_ring_read_of_unposted_slot_raises(self, both_modes):
        _sim, tx = make_tx()
        tx.add_queue(0, qpn=9, entries=16, doorbell_addr=0, mmio_addr=0)
        tx.submit(0, b"x" * 64, AxisMetadata(queue_id=0))
        batching.set_batch_enabled(True)
        with pytest.raises(TranslationError):
            tx.handle_ring_read(0, 0, 4 * WQE_SIZE)

    def test_descriptor_pool_lookup_many(self, both_modes):
        _sim, tx = make_tx()
        tx.add_queue(0, qpn=9, entries=16, doorbell_addr=0, mmio_addr=0)
        for i in range(5):
            tx.submit(0, bytes(64), AxisMetadata(queue_id=0))
        batching.set_batch_enabled(True)
        many = tx.descriptors.lookup_many(0, range(5))
        singles = [tx.descriptors.lookup(0, i) for i in range(5)]
        assert many == singles  # same objects from the shared pool
        with pytest.raises(TranslationError):
            tx.descriptors.lookup_many(0, [0, 1, 99])


class TestLoadGenTemplates:
    """The template frame encoder produces byte-identical frames."""

    def _loadgen(self, flow_seed, proto=PROTO_UDP):
        from repro.host.testpmd import LoadGenerator
        sim = Simulator()
        random.seed(flow_seed)  # pins the flow's initial IP ident
        flow = Flow("02:00:00:00:00:01", "02:00:00:00:ff:01",
                    "10.0.0.1", "10.0.1.1", 40000, 5201, proto=proto)
        qp = types.SimpleNamespace(sim=sim, on_receive=None)
        return LoadGenerator(sim, qp, flow)

    @pytest.mark.parametrize("sizes", [
        [64, 64, 64, 64],           # steady-state template reuse
        [64, 128, 64, 1500, 42],    # size changes + minimum-frame edge
        [40, 41, 50, 40],           # payload shorter than the seq stamp
    ])
    def test_frames_identical_across_modes(self, both_modes, sizes):
        gen_batched = self._loadgen(77)
        gen_scalar = self._loadgen(77)
        frames_batched, frames_scalar = [], []
        for size in sizes:
            batching.set_batch_enabled(True)
            frames_batched.append(gen_batched._make_frame(size))
            batching.set_batch_enabled(False)
            frames_scalar.append(gen_scalar._make_frame(size))
        assert frames_batched == frames_scalar
        assert gen_batched._seq == gen_scalar._seq
        assert gen_batched.flow._ident == gen_scalar.flow._ident

    def test_tcp_flows_take_the_scalar_builder(self, both_modes):
        batching.set_batch_enabled(True)
        gen = self._loadgen(5, proto=PROTO_TCP)
        assert gen._frame_from_template(256) is None
        twin = self._loadgen(5, proto=PROTO_TCP)
        batched = gen._make_frame(256)
        batching.set_batch_enabled(False)
        scalar = twin._make_frame(256)
        assert batched == scalar

    def test_flow_mutation_invalidates_the_template(self, both_modes):
        batching.set_batch_enabled(True)
        gen = self._loadgen(9)
        first = gen._make_frame(128)
        gen.flow.dst_port = 9999
        mutated = gen._make_frame(128)
        twin = self._loadgen(9)
        twin.flow.dst_port = 9999
        batching.set_batch_enabled(False)
        twin._make_frame(128)  # consume seq 0 / first ident
        expected = twin._make_frame(128)
        assert mutated == expected
        assert first != mutated
