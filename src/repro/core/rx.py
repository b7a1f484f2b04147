"""FLD receive ring manager (§5.1, §5.2).

The receive side leans on three of the paper's memory optimizations:

* **MPRQ** — the NIC fills multi-packet buffers (strides) in FLD's small
  on-die receive SRAM, bounding fragmentation to half a buffer;
* **receive ring in host memory** — the descriptors pointing at FLD's
  buffers live in *host* DRAM, written once by software; FLD recycles
  buffers in the order they were posted, so the descriptors are never
  modified and FLD keeps no descriptor copies at all (the "-" in
  Table 3's Rx-ring row);
* **compressed completions** — FLD keeps 15 B of state per completion;
  of the NIC's 64 B CQE it reads only the fields that record holds, off
  the bytes as they land.

On each receive completion FLD streams the packet (with metadata) to the
accelerator and, when a buffer closes, returns it to the NIC by bumping
the RQ producer index over PCIe.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..nic.wqe import CQE_FLAG_MSG_LAST, CqeRecord
from ..sim import Simulator
from .axis import AxisMetadata


class RxError(RuntimeError):
    """Raised on receive-side misconfiguration."""


class _RxBinding:
    """One receive queue's buffer slice and recycle state."""

    __slots__ = ("binding_id", "ring_entries", "strides_per_buffer",
                 "stride_size", "buffer_size", "sram_offset",
                 "rq_doorbell_addr", "pi", "recycled", "stats_packets",
                 "stats_bytes", "stats_recycled")

    def __init__(self, binding_id: int, ring_entries: int,
                 strides_per_buffer: int, stride_size: int,
                 sram_offset: int, rq_doorbell_addr: int):
        self.binding_id = binding_id
        self.ring_entries = ring_entries
        self.strides_per_buffer = strides_per_buffer
        self.stride_size = stride_size
        self.buffer_size = strides_per_buffer * stride_size
        self.sram_offset = sram_offset
        self.rq_doorbell_addr = rq_doorbell_addr
        self.pi = ring_entries       # software posts the full ring at setup
        self.recycled = 0            # buffers already returned to the NIC
        self.stats_packets = 0
        self.stats_bytes = 0
        self.stats_recycled = 0


class RxRingManager:
    """The receive half of FLD."""

    def __init__(self, sim: Simulator, capacity_bytes: int = 256 * 1024,
                 mmio_writer: Optional[Callable] = None,
                 emit: Optional[Callable[[bytes, AxisMetadata], None]] = None):
        self.sim = sim
        self.capacity_bytes = capacity_bytes
        self._sram = bytearray(capacity_bytes)
        self._sram_cursor = 0
        # Released slices, kept sorted by offset and coalesced; reused
        # first-fit so a churning testbed doesn't exhaust the SRAM.
        # While nothing is ever removed the allocator degenerates to the
        # historical bump cursor (identical offsets, bit-identical runs).
        self._sram_free: List[Tuple[int, int]] = []
        self.mmio_writer = mmio_writer
        self.emit = emit
        # Match-action hook (repro.prog): set by the program engine when
        # a program is attached to any binding, None otherwise — the
        # NULL fast path is a single attribute test.
        self.prog_hook: Optional[Callable] = None
        self._bindings: Dict[int, _RxBinding] = {}
        self.stats_cqes = 0
        self.stats_sram_writes = 0

    # -- SRAM slice allocator ------------------------------------------------

    def _alloc_sram(self, size: int) -> int:
        for i, (offset, free) in enumerate(self._sram_free):
            if free >= size:
                if free == size:
                    del self._sram_free[i]
                else:
                    self._sram_free[i] = (offset + size, free - size)
                return offset
        if self._sram_cursor + size > self.capacity_bytes:
            raise RxError(
                f"rx SRAM exhausted: need {size} B, "
                f"{self.capacity_bytes - self._sram_cursor} B left"
            )
        offset = self._sram_cursor
        self._sram_cursor += size
        return offset

    def _free_sram(self, offset: int, size: int) -> None:
        self._sram_free.append((offset, size))
        self._sram_free.sort()
        # Coalesce adjacent blocks.
        merged: List[Tuple[int, int]] = []
        for block_offset, block_size in self._sram_free:
            if merged and merged[-1][0] + merged[-1][1] == block_offset:
                merged[-1] = (merged[-1][0], merged[-1][1] + block_size)
            else:
                merged.append((block_offset, block_size))
        # Retract the bump cursor over a trailing free block, so a fully
        # drained manager allocates from offset 0 again.
        while merged and merged[-1][0] + merged[-1][1] == self._sram_cursor:
            self._sram_cursor = merged.pop()[0]
        self._sram_free = merged

    @property
    def sram_bytes_in_use(self) -> int:
        """Bytes currently backing live bindings (leak auditing)."""
        return self._sram_cursor - sum(size for _o, size in self._sram_free)

    # -- configuration -------------------------------------------------------

    def add_binding(self, binding_id: int, ring_entries: int,
                    strides_per_buffer: int, stride_size: int,
                    rq_doorbell_addr: int) -> int:
        """Carve a buffer slice; returns its offset in the RX BAR region.

        Software points the host-memory receive descriptors at
        ``FLD_BAR + RX_BUFFER_REGION + offset + i * buffer_size``.
        """
        if binding_id in self._bindings:
            raise RxError(f"binding {binding_id} exists")
        slice_bytes = ring_entries * strides_per_buffer * stride_size
        sram_offset = self._alloc_sram(slice_bytes)
        binding = _RxBinding(binding_id, ring_entries, strides_per_buffer,
                             stride_size, sram_offset,
                             rq_doorbell_addr)
        self._bindings[binding_id] = binding
        return binding.sram_offset

    def remove_binding(self, binding_id: int) -> _RxBinding:
        """Release a binding's SRAM slice back to the allocator."""
        binding = self.binding(binding_id)
        del self._bindings[binding_id]
        self._free_sram(binding.sram_offset,
                        binding.ring_entries * binding.buffer_size)
        return binding

    def binding(self, binding_id: int) -> _RxBinding:
        try:
            return self._bindings[binding_id]
        except KeyError:
            raise RxError(f"unknown rx binding {binding_id}") from None

    # -- NIC-facing PCIe handlers ----------------------------------------------

    def on_recv_completion(self, binding_id: int, cqe: CqeRecord) -> None:
        """Act on a landed receive CQE: stream the packet out, recycle
        buffers."""
        self.deliver(binding_id, cqe, self.emit, self.mmio_writer)

    def deliver(self, binding_id: int, cqe: CqeRecord,
                emit: Optional[Callable],
                recycle_writer: Optional[Callable],
                frame: Optional[tuple] = None) -> None:
        """The receive completion: locate the packet in receive SRAM, hand it
        (with metadata) to ``emit`` — through the match-action hook when
        a program is attached — then return every buffer before the one
        now filling through ``recycle_writer(addr, payload)``.

        Recycling is strictly in posting order (§5.2 "Receive Ring in
        Host Memory"), which is what lets the host-memory descriptors
        stay immutable.  The fused rx engine calls this at CQE *issue*
        time with its own continuation plumbing and the CQE's side-band
        ``frame`` (never with a program attached), whose layout rides
        the metadata if the bytes read back are the NIC's;
        :meth:`on_recv_completion` passes the manager's ``emit`` /
        ``mmio_writer``.  The packet's SRAM data was written by
        ``FlexDriver.handle_write``.
        """
        try:
            binding = self._bindings[binding_id]
        except KeyError:
            raise RxError(f"unknown rx binding {binding_id}") from None
        self.stats_cqes += 1
        # The full descriptor index from the CQE's 16-bit counter.
        recycled = binding.recycled
        desc_index = (recycled & ~0xFFFF) | cqe.wqe_counter
        if desc_index < recycled:
            desc_index += 1 << 16
        slot = desc_index % binding.ring_entries
        offset = (binding.sram_offset + slot * binding.buffer_size
                  + cqe.stride_index * binding.stride_size)
        data = bytes(self._sram[offset:offset + cqe.byte_count])
        binding.stats_packets += 1
        binding.stats_bytes += cqe.byte_count
        if emit is not None:
            meta = AxisMetadata(
                queue_id=binding_id,
                context_id=cqe.flow_tag,
                flags=cqe.flags,
                msg_last=bool(cqe.flags & CQE_FLAG_MSG_LAST),
                src_qpn=cqe.qpn,
                trace_ctx=cqe.trace_ctx,
                layout=(frame[1] if frame is not None and frame[0] == data
                        else None),
            )
            hook = self.prog_hook
            if hook is None:
                emit(data, meta)
            else:
                hook(binding_id, data, meta, emit)
        while binding.recycled < desc_index:
            binding.recycled += 1
            binding.pi += 1
            binding.stats_recycled += 1
            if recycle_writer is not None:
                recycle_writer(binding.rq_doorbell_addr,
                               (binding.pi & 0xFFFFFFFF).to_bytes(4, "big"))

    # -- accounting ---------------------------------------------------------------

    def memory_bytes(self) -> Dict[str, int]:
        return {
            "rx_buffers": self.capacity_bytes,
            "rx_ring": 0,  # lives in host memory by design
            "rx_producer_indices": 4 * max(1, len(self._bindings)),
        }
