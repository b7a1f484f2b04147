"""FLD runtime library (§5.3): binds FLD and the NIC together.

This is the host-side library control-plane applications link against.
It owns the low-level plumbing both FLD-E and FLD-R need:

* creating NIC completion queues whose rings live inside the FLD BAR,
* creating NIC send queues whose (virtual) rings live inside the FLD BAR,
* creating multi-packet receive queues whose descriptor ring lives in
  *host memory* while the buffers point into FLD's receive SRAM (§5.2),
* creating RDMA RC QPs bound to FLD queues (the FLD-R split of the verbs
  QP abstraction: software owns the transport endpoint, the accelerator
  owns the data path).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..core import FlexDriver, bar as fld_bar
from ..core.fld import FldConfig
from ..nic import (
    MultiPacketReceiveQueue,
    Nic,
    OP_ETH_SEND,
    OP_RDMA_SEND,
    RcQp,
    SendQueue,
)
from ..nic.device import (
    DOORBELL_STRIDE,
    RQ_DOORBELL_BASE,
    WQE_MMIO_BASE,
    WQE_MMIO_STRIDE,
)
from ..nic.wqe import RX_DESC
from ..topology import FLD_BAR_BASE, NIC_BAR_BASE, Node


class FldRuntimeError(RuntimeError):
    """Raised on runtime misconfiguration."""


class FldRuntime:
    """One FLD device's host-side runtime state."""

    def __init__(self, node: Node, fld_config: Optional[FldConfig] = None,
                 fld_bar_base: int = FLD_BAR_BASE,
                 nic_bar_base: int = NIC_BAR_BASE,
                 fld_name: Optional[str] = None):
        self.node = node
        self.sim = node.sim
        self.nic: Nic = node.nic
        self.fld_bar_base = fld_bar_base
        self.nic_bar_base = nic_bar_base
        if fld_name is None:
            fld_name = f"{node.name}.fld"
            if fld_bar_base != FLD_BAR_BASE:
                # Additional FLD cores (§9 scaling) need distinct names.
                fld_name += f"@{fld_bar_base:#x}"
        from ..pcie import PcieLinkConfig
        self.fld = FlexDriver(
            self.sim, node.fabric, name=fld_name,
            config=fld_config, bar_base=fld_bar_base,
            link_config=PcieLinkConfig(
                lanes=8, latency=getattr(node, "pcie_latency", 300e-9)),
        )
        map_window = getattr(node, "map_window", None)
        if map_window is not None:
            # Overlap-checked reservation in the node's address map.
            map_window(fld_name, fld_bar_base, fld_bar.FLD_BAR_SIZE,
                       self.fld)
        else:  # bare fabric holders (tests wiring a minimal stand-in)
            node.fabric.map_window(fld_bar_base, fld_bar.FLD_BAR_SIZE,
                                   self.fld)
        # Doorbell-mode span contexts are stashed under the NIC's name so
        # its WQE fetch loop can claim them (see repro.telemetry.spans).
        self.fld.tx.trace_scope = self.nic.name
        self.fld_name = fld_name
        self._next_tx_queue = 0
        self._next_rx_binding = 0
        # Destroyed queue/binding ids, recycled lowest-first so churn
        # cannot exhaust the FLD's fixed id spaces.
        self._free_tx_ids: list = []
        self._free_rx_bindings: list = []
        # Teardown bookkeeping: what each queue id / rx binding owns.
        self._tx_queues: Dict[int, Tuple[Any, Any]] = {}  # id -> (sq|qp, cq)
        self._rx_queues: Dict[int, dict] = {}             # rqn -> info
        self._default_rq: Dict[int, int] = {}             # vport -> rqn
        # cq index -> RC QP, for the kernel driver's recovery hook.
        self._qp_by_cq: Dict[int, RcQp] = {}

    # ------------------------------------------------------------------
    # Queue plumbing
    # ------------------------------------------------------------------

    def _alloc_tx_ids(self) -> Tuple[int, int]:
        if self._free_tx_ids:
            queue_id = self._free_tx_ids.pop(0)
        else:
            queue_id = self._next_tx_queue
            self._next_tx_queue += 1
        if queue_id >= fld_bar.MAX_TX_QUEUES:
            raise FldRuntimeError(
                f"out of FLD tx queue slots ({fld_bar.MAX_TX_QUEUES})")
        return queue_id, queue_id  # (queue id, tx cq index)

    def _alloc_cq(self, cq_index: int):
        """A NIC completion queue whose ring is FLD cq ``cq_index``.

        FLD reads each CQE as its write lands in the BAR, so the CQ has
        no notify store: the NIC posts its CQE writes with no callback.
        """
        return self.nic.cmd.alloc_cq(
            self.fld_bar_base + fld_bar.cq_address(cq_index),
            self.fld.config.cq_entries, notify=False,
        )

    def create_eth_tx_queue(self, vport: int, entries: int = 1024,
                            use_mmio: bool = True,
                            meter: Optional[str] = None,
                            credits: Optional[int] = None) -> int:
        """An FLD Ethernet transmit queue; returns the FLD queue id.

        ``credits`` caps the accelerator's in-flight packets on this
        queue (§5.5's per-queue backpressure); defaults to the ring
        depth.
        """
        queue_id, cq_index = self._alloc_tx_ids()
        cq = self._alloc_cq(cq_index)
        sq = self.nic.cmd.alloc_sq(
            self.fld_bar_base + fld_bar.tx_ring_address(queue_id, 0, entries),
            entries, cq, vport=vport, meter=meter,
        )
        self._bind_tx(queue_id, sq, cq_index, entries, use_mmio,
                      credits=credits, vport=vport)
        self._tx_queues[queue_id] = (sq, cq)
        return queue_id

    def _bind_tx(self, queue_id: int, sq: SendQueue, cq_index: int,
                 entries: int, use_mmio: bool,
                 opcode: Optional[int] = None,
                 credits: Optional[int] = None,
                 vport: Optional[int] = None) -> None:
        self.fld.bind_tx_queue(
            queue_id, sq.qpn, entries,
            doorbell_addr=self.nic_bar_base + sq.qpn * DOORBELL_STRIDE,
            mmio_addr=(self.nic_bar_base + WQE_MMIO_BASE
                       + sq.qpn * WQE_MMIO_STRIDE),
            cq_index=cq_index, use_mmio=use_mmio,
            opcode=opcode if opcode is not None else OP_ETH_SEND,
            credits=credits, vport=vport,
        )

    def create_rx_queue(self, vport: int, ring_entries: int = 2,
                        strides_per_buffer: int = 64,
                        stride_size: int = 2048,
                        set_default: bool = True) -> MultiPacketReceiveQueue:
        """An FLD receive path: MPRQ + host-memory ring + FLD buffers.

        Returns the NIC receive queue (steering rules target it).
        """
        if self._free_rx_bindings:
            binding_id = self._free_rx_bindings.pop(0)
        else:
            binding_id = self._next_rx_binding
            self._next_rx_binding += 1
        cq_index = FlexDriver.RX_CQ_BASE + binding_id
        cq = self._alloc_cq(cq_index)
        # The receive descriptor ring lives in HOST memory (§5.2).
        ring_addr = self.node.driver.allocator.alloc(ring_entries * 16)
        rq = self.nic.cmd.alloc_mprq(ring_addr, ring_entries, cq,
                                     strides_per_buffer, stride_size)
        slice_offset = self.fld.bind_rx_queue(
            binding_id, cq_index, ring_entries, strides_per_buffer,
            stride_size,
            rq_doorbell_addr=(self.nic_bar_base + RQ_DOORBELL_BASE
                              + rq.rqn * DOORBELL_STRIDE),
        )
        self.fld.install_rx_fastpath(cq, cq_index)
        # Software writes the immutable descriptors once, pointing at
        # FLD's buffer slice, and posts the full ring.
        buffer_size = strides_per_buffer * stride_size
        for i in range(ring_entries):
            self.node.memory.write_local(
                rq.slot_addr(i) - self.node.driver.mem_base,
                RX_DESC.pack(self.fld_bar_base + slice_offset
                             + i * buffer_size, buffer_size, 0))
        rq.post(ring_entries)
        self._rx_queues[rq.rqn] = {
            "binding_id": binding_id, "rq": rq, "cq": cq,
            "ring_addr": ring_addr, "ring_bytes": ring_entries * 16,
            "vport": vport,
        }
        if set_default:
            self.nic.cmd.set_default_queue(vport, rq)
            self._default_rq[vport] = rq.rqn
        return rq

    def create_fldr_qp(self, vport: int, local_mac, local_ip,
                       rq: Optional[MultiPacketReceiveQueue] = None,
                       entries: int = 1024,
                       use_mmio: bool = True) -> Tuple[RcQp, int]:
        """An FLD-R RDMA QP (§5.3): FLD owns the data path, software the
        transport endpoint.  Returns (qp, fld queue id)."""
        queue_id, cq_index = self._alloc_tx_ids()
        cq = self._alloc_cq(cq_index)
        if rq is None:
            rq = self.create_rx_queue(vport, set_default=False)
        qp = self.nic.cmd.alloc_rc_qp(
            self.fld_bar_base + fld_bar.tx_ring_address(queue_id, 0, entries),
            entries, cq, rq, vport, local_mac, local_ip,
        )
        self._bind_tx(queue_id, qp.sq, cq_index, entries, use_mmio,
                      opcode=OP_RDMA_SEND, vport=vport)
        self._tx_queues[queue_id] = (qp, cq)
        self._qp_by_cq[cq_index] = qp
        return qp, queue_id

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def qp_for_cq(self, cq_index: int) -> Optional[RcQp]:
        """The RC QP completing onto FLD cq ``cq_index`` (recovery)."""
        return self._qp_by_cq.get(cq_index)

    def rx_binding_of(self, rq: MultiPacketReceiveQueue) -> int:
        """The FLD rx binding id backing an MPRQ (program attach target)."""
        try:
            return self._rx_queues[rq.rqn]["binding_id"]
        except KeyError:
            raise FldRuntimeError(
                f"rq {rq.rqn} was not created by this runtime") from None

    def destroy_tx_queue(self, queue_id: int) -> None:
        """Unbind an FLD tx queue and destroy its SQ (or QP) and CQ."""
        owner, cq = self._tx_queues.pop(queue_id)
        self.fld.unbind_tx_queue(queue_id)
        self.nic.cmd.destroy(owner)
        self.nic.cmd.destroy(cq)
        for cq_index, qp in list(self._qp_by_cq.items()):
            if qp is owner:
                del self._qp_by_cq[cq_index]
        self._free_tx_ids.append(queue_id)
        self._free_tx_ids.sort()

    def destroy_rx_queue(self, rq: MultiPacketReceiveQueue) -> None:
        """Full receive-path teardown: default route, FLD SRAM slice,
        NIC MPRQ + CQ, and the host-memory descriptor ring."""
        info = self._rx_queues.pop(rq.rqn)
        vport = info["vport"]
        if self._default_rq.get(vport) == rq.rqn:
            self.nic.cmd.clear_default_queue(vport)
            del self._default_rq[vport]
        self.fld.unbind_rx_queue(info["binding_id"])
        self.nic.cmd.destroy(rq)
        self.nic.cmd.destroy(info["cq"])
        self.node.driver.allocator.free(info["ring_addr"],
                                        info["ring_bytes"])
        self._free_rx_bindings.append(info["binding_id"])
        self._free_rx_bindings.sort()

    def shutdown(self) -> None:
        """Tear down every queue this runtime created, then release the
        FLD's BAR window from the node's address map and fabric."""
        for queue_id in sorted(self._tx_queues):
            self.destroy_tx_queue(queue_id)
        for rqn in sorted(self._rx_queues):
            self.destroy_rx_queue(self._rx_queues[rqn]["rq"])
        unmap = getattr(self.node, "unmap_window", None)
        if unmap is not None:
            unmap(self.fld_name)
        else:
            self.node.fabric.unmap_window(self.fld_bar_base)
        self.node.fabric.detach(self.fld)
