"""FLD transmit ring manager (§5.1, §5.2).

Owns the shared compressed-descriptor pool, the shared transmit buffer
pool, and the two translation tables.  For every packet the accelerator
pushes it:

1. allocates buffer chunks and copies the payload on-die,
2. maps the chunks into the queue's *virtual data window*,
3. stores an 8 B compressed descriptor in the shared pool, keyed by
   (queue, wqe-index) in the descriptor translation table,
4. rings the NIC — by default with WQE-by-MMIO (§6), writing the
   expanded 64 B WQE straight into the NIC's doorbell window so the NIC
   never reads the ring.

When the NIC does read the virtual ring (plain doorbell mode, or
re-fetch), :meth:`handle_ring_read` *generates* the 64 B WQEs on the fly
from the compressed pool — the core idea of §5.2.  Data reads gather
through the translation table
(:meth:`~repro.core.translation.DataTranslationTable.read_virtual`,
straight from ``FlexDriver.handle_read``).  Send completions retire
descriptors cumulatively, recycle chunks and refund credits.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..nic.wqe import OP_ETH_SEND, TX_WQE, WQE_FLAG_SIGNALED, WQE_SIZE
from ..sim import Simulator
from .axis import AxisMetadata, CreditInterface
from .bar import TX_DATA_SPAN, tx_data_address
from .buffers import BufferPool
from .translation import DataTranslationTable, DescriptorPool, TranslationError


class TxQueueError(RuntimeError):
    """Raised on tx-queue misuse (overflow, unknown queue)."""


class _TxQueueState:
    __slots__ = ("queue_id", "qpn", "entries", "pi", "ci", "data_cursor",
                 "doorbell_addr", "mmio_addr", "use_mmio", "window_chunks",
                 "data_base", "opcode", "outstanding", "stats_submitted",
                 "stats_completed")

    def __init__(self, queue_id: int, qpn: int, entries: int,
                 doorbell_addr: int, mmio_addr: int, use_mmio: bool,
                 window_chunks: int, data_base: int,
                 opcode: int = OP_ETH_SEND):
        self.queue_id = queue_id
        self.qpn = qpn
        self.entries = entries
        self.pi = 0
        self.ci = 0
        self.data_cursor = 0  # in chunks, within the virtual window
        self.doorbell_addr = doorbell_addr
        self.mmio_addr = mmio_addr
        self.use_mmio = use_mmio
        self.window_chunks = window_chunks
        # Fabric address of the queue's virtual data window: a WQE's
        # buffer address is this plus the packet's window offset.
        self.data_base = data_base
        self.opcode = opcode
        # wqe_index -> (chunk handles, virt chunk offset, chunk count)
        self.outstanding: Dict[int, Tuple[List[int], int, int]] = {}
        self.stats_submitted = 0
        self.stats_completed = 0


class TxRingManager:
    """The transmit half of FLD."""

    def __init__(self, sim: Simulator, buffer_pool: BufferPool,
                 descriptor_pool_size: int = 4096,
                 mmio_writer: Optional[Callable] = None,
                 bar_base: int = 0):
        if buffer_pool.num_chunks > 1 << 16:
            raise ValueError("buffer handles must fit the 16-bit field")
        self.sim = sim
        self.buffers = buffer_pool
        self.descriptors = DescriptorPool(descriptor_pool_size)
        self.data_xlt = DataTranslationTable(buffer_pool, TX_DATA_SPAN)
        self.credits = CreditInterface(sim)
        self.mmio_writer = mmio_writer  # callable(addr, bytes) -> posts PCIe
        self.bar_base = bar_base
        # Match-action hook (repro.prog): set by the program engine when
        # an egress program is attached, None otherwise.
        self.prog_hook: Optional[Callable] = None
        self._queues: Dict[int, _TxQueueState] = {}
        self._qpn_to_queue: Dict[int, int] = {}
        self.stats_wqe_reads = 0
        self.stats_data_read_bytes = 0
        self.stats_tx_bytes = 0
        self._spans = sim.telemetry.spans
        # ``mmio_writer`` has a frozen (addr, bytes) signature, so the
        # trace context of the submission being rung travels out-of-band:
        # set around the call for the writer to read.
        self.outbound_trace_ctx = None
        # Stash-key scope for doorbell-mode submissions — the *NIC's*
        # endpoint name, so the NIC's ring fetch can claim the context
        # under the same ("wqe", scope, qpn, index) key.  Set by the FLD
        # runtime; None leaves doorbell-mode WQEs untraced past the ring.
        self.trace_scope: Optional[str] = None

    # -- configuration -------------------------------------------------------

    def add_queue(self, queue_id: int, qpn: int, entries: int,
                  doorbell_addr: int, mmio_addr: int,
                  use_mmio: bool = True, credits: Optional[int] = None,
                  opcode: int = OP_ETH_SEND) -> None:
        if queue_id in self._queues:
            raise TxQueueError(f"queue {queue_id} exists")
        state = _TxQueueState(
            queue_id, qpn, entries, doorbell_addr, mmio_addr, use_mmio,
            window_chunks=TX_DATA_SPAN // self.buffers.chunk_size,
            data_base=self.bar_base + tx_data_address(queue_id),
            opcode=opcode,
        )
        self._queues[queue_id] = state
        self._qpn_to_queue[qpn] = queue_id
        self.credits.configure(queue_id, credits or entries)

    def remove_queue(self, queue_id: int) -> None:
        """Tear a queue down, flushing any in-flight submissions.

        Flushed descriptors release their buffer chunks, translation
        windows and credits exactly as a completion would, so the
        invariant auditor sees a clean FLD afterwards.
        """
        state = self.queue(queue_id)
        for index in sorted(state.outstanding):
            self.descriptors.remove(queue_id, index)
            handles, virt_chunk, count = state.outstanding[index]
            self.data_xlt.unmap_range(
                queue_id, virt_chunk * self.buffers.chunk_size, count)
            self.buffers.release_all(handles)
        state.outstanding.clear()
        state.ci = state.pi
        del self._queues[queue_id]
        self._qpn_to_queue.pop(state.qpn, None)
        self.credits.remove(queue_id)

    def queue(self, queue_id: int) -> _TxQueueState:
        try:
            return self._queues[queue_id]
        except KeyError:
            raise TxQueueError(f"unknown tx queue {queue_id}") from None

    # -- the accelerator-facing submit path -----------------------------------

    def submit(self, queue_id: int, data: bytes, meta: AxisMetadata,
               chunks: int = 0, length: Optional[int] = None
               ) -> Optional[int]:
        """Enqueue one packet/message and ring the NIC; returns its wqe
        index.

        The caller (FLD top) is responsible for holding a credit; this
        method asserts physical resources, which credits guarantee.
        ``chunks`` is the payload's chunk count and ``length`` its size
        when the caller has already taken them (0 and ``None``: count
        and measure here).
        An attached egress program runs before any resource is taken:
        a ``drop`` verdict refunds the caller's credit and returns
        ``None`` — the packet never existed as far as buffers,
        descriptors and the NIC are concerned.  A length or context too
        wide for the compressed descriptor raises ``ValueError``.
        """
        try:
            state = self._queues[queue_id]
        except KeyError:
            raise TxQueueError(f"unknown tx queue {queue_id}") from None
        hook = self.prog_hook
        if hook is not None:
            data = hook(queue_id, data, meta)
            if data is None:
                self.credits.refund(queue_id, 1)
                return None
            # The program may have resized the payload.
            chunks = 0
            length = None
        if state.pi - state.ci >= state.entries:
            raise TxQueueError(f"queue {queue_id} ring overflow")
        if length is None:
            length = len(data)
        context = meta.context_id
        if not (length < 1 << 16 and 0 <= context < 1 << 24):
            raise ValueError(f"{length} B with context {context:#x} does "
                             "not fit a compressed descriptor")
        buffers = self.buffers
        handles = buffers.alloc(length, chunks)
        if handles is None:
            raise TxQueueError(
                f"buffer pool exhausted for {length} B on queue {queue_id}"
            )
        buffers.write_scattered(handles, data, length)
        count = chunks or len(handles)

        index = state.pi
        state.pi += 1
        # Chunk-aligned virtual placement at the rotating cursor.
        virt_chunk = state.data_cursor
        state.data_cursor = (virt_chunk + count) % state.window_chunks
        virt_offset = virt_chunk * buffers.chunk_size
        self.data_xlt.map_range(queue_id, virt_offset, handles)

        descriptor = (handles[0], length, context, state.opcode,
                      meta.signaled)
        slot = self.descriptors.store(queue_id, index, descriptor)
        if slot is None:
            self.data_xlt.unmap_range(queue_id, virt_offset, count)
            buffers.release_all(handles)
            state.pi -= 1
            raise TxQueueError("descriptor pool exhausted")
        state.outstanding[index] = (handles, virt_chunk, count)
        state.stats_submitted += 1
        self.stats_tx_bytes += length

        # Ring the NIC (a standalone manager has no writer).
        writer = self.mmio_writer
        if writer is None:
            return index
        trace_ctx = meta.trace_ctx
        if state.use_mmio:
            address = state.mmio_addr
            payload = self._expand(state, index, descriptor, virt_offset)
        else:
            if trace_ctx is not None and self.trace_scope is not None:
                # The NIC will fetch this WQE from the virtual ring later;
                # park the context where its fetch loop can claim it.
                self._spans.stash(
                    ("wqe", self.trace_scope, state.qpn, index), trace_ctx)
            address = state.doorbell_addr
            payload = (index + 1).to_bytes(4, "big")
        self.outbound_trace_ctx = trace_ctx
        try:
            writer(address, payload)
        finally:
            self.outbound_trace_ctx = None
        return index

    def _expand(self, state: _TxQueueState, index: int, descriptor: tuple,
                virt_offset: int) -> bytes:
        """The 64 B NIC WQE for a compressed descriptor: one pack.  Its
        buffer address is the queue's virtual data window, which FLD
        translates when the NIC's data read arrives."""
        _handle, length, context, opcode, signaled = descriptor
        return TX_WQE.pack(
            opcode, WQE_FLAG_SIGNALED if signaled else 0, index & 0xFFFF,
            state.qpn, state.data_base + virt_offset,
            length, 0, context, 1, 0, 0, 0)

    # -- the NIC-facing PCIe handlers ------------------------------------------

    def handle_ring_read(self, queue_id: int, offset: int,
                         length: int) -> bytes:
        """Generate WQE bytes for a NIC read of the virtual ring."""
        try:
            state = self._queues[queue_id]
        except KeyError:
            raise TxQueueError(f"unknown tx queue {queue_id}") from None
        if offset % WQE_SIZE or length % WQE_SIZE:
            raise TxQueueError("unaligned WQE ring read")
        first_slot = offset // WQE_SIZE
        # The ring is virtual: resolve each slot to the outstanding wqe
        # index that currently occupies it.  A read that reaches an
        # unposted slot raises here, before anything is counted.
        indices = [self._slot_to_index(state, first_slot + i)
                   for i in range(length // WQE_SIZE)]
        descriptors = self.descriptors.lookup_many(queue_id, indices)
        chunk_size = self.buffers.chunk_size
        self.stats_wqe_reads += len(indices)
        return b"".join(
            self._expand(state, index, descriptor,
                         state.outstanding[index][1] * chunk_size)
            for index, descriptor in zip(indices, descriptors))

    @staticmethod
    def _slot_to_index(state: _TxQueueState, slot: int) -> int:
        """Map a ring slot back to the in-flight wqe index occupying it."""
        base = state.ci - (state.ci % state.entries)
        index = base + slot
        if index < state.ci:
            index += state.entries
        if index >= state.pi:
            raise TranslationError(
                f"NIC read of unposted slot {slot} on queue {state.queue_id}"
            )
        return index

    # -- completion handling -----------------------------------------------------

    def on_send_completion(self, qpn: int, wqe_counter: int) -> int:
        """Cumulatively retire up to ``wqe_counter`` (selective signalling).

        Returns the number of descriptors retired.
        """
        try:
            queue_id = self._qpn_to_queue[qpn]
        except KeyError:
            raise TxQueueError(
                f"send completion for unknown qpn {qpn}") from None
        state = self._queues[queue_id]
        # Recover the full index from the 16-bit CQE counter.
        target = (state.ci & ~0xFFFF) | wqe_counter
        if target < state.ci:
            target += 1 << 16
        retired = 0
        while state.ci <= target and state.ci < state.pi:
            index = state.ci
            state.ci += 1
            self.descriptors.remove(queue_id, index)
            handles, virt_chunk, count = state.outstanding.pop(index)
            self.data_xlt.unmap_range(
                queue_id, virt_chunk * self.buffers.chunk_size, count)
            self.buffers.release_all(handles)
            self.credits.refund(queue_id, 1)
            retired += 1
            state.stats_completed += 1
        return retired

    # -- accounting -----------------------------------------------------------------

    def memory_bytes(self) -> Dict[str, int]:
        """On-die SRAM used by the transmit side (Table 3's FLD column)."""
        return {
            "tx_descriptor_pool": self.descriptors.memory_bytes,
            "tx_data_translation": self.data_xlt.memory_bytes,
            "tx_buffers": self.buffers.capacity_bytes,
            "tx_producer_indices": 4 * max(1, len(self._queues)),
        }
