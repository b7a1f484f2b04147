"""The node primitive: PCIe fabric + host memory + NIC + software driver.

This is the only module that assembles a :class:`Node` — experiments
describe nodes in a :class:`~repro.topology.spec.TopologySpec` and let
:func:`~repro.topology.build.build` elaborate them (``repro.testbed``
re-exports the class and thin helpers for backwards compatibility).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..host import CpuCore, HostMemory, SoftwareDriver
from ..nic import BAR_SIZE, ForwardToVport, MatchSpec, Nic, NicConfig
from ..pcie import PcieFabric, PcieLinkConfig
from ..sim import Simulator
from .addrmap import (
    AddressMap,
    HOST_MEM_BASE,
    HOST_MEM_SIZE,
    NIC_BAR_BASE,
)


class Node:
    """One server: PCIe fabric, host memory, NIC, software driver."""

    def __init__(self, sim: Simulator, name: str,
                 nic_config: Optional[NicConfig] = None,
                 core: Optional[CpuCore] = None,
                 pcie_latency: float = 300e-9, host_lanes: int = 8):
        self.sim = sim
        self.name = name
        self.pcie_latency = pcie_latency
        self.addrmap = AddressMap(name)
        self.fabric = PcieFabric(sim)
        self.memory = HostMemory(f"{name}.mem", HOST_MEM_SIZE)
        self.fabric.attach(self.memory,
                           PcieLinkConfig(lanes=host_lanes,
                                          latency=pcie_latency))
        self.map_window("dram", HOST_MEM_BASE, HOST_MEM_SIZE, self.memory)
        self.nic = Nic(sim, self.fabric, f"{name}.nic", nic_config,
                       PcieLinkConfig(lanes=16, latency=pcie_latency))
        self.map_window("nic-bar", NIC_BAR_BASE, BAR_SIZE, self.nic)
        self.core = core if core is not None else CpuCore(sim)
        self.driver = SoftwareDriver(
            sim, self.fabric, self.nic, self.memory, HOST_MEM_BASE,
            NIC_BAR_BASE, core=self.core, name=f"{name}.cpu",
        )
        # mac -> vport already steered by add_vport_for_mac (idempotency
        # guard: the N-tenant builder leans on re-entrant wiring).
        self._fdb_macs: Dict[str, int] = {}
        self._fdb_rules: Dict[str, object] = {}

    def map_window(self, name: str, base: int, size: int, device) -> None:
        """Reserve an address window (overlap-checked) and map it."""
        self.addrmap.reserve(name, base, size)
        self.fabric.map_window(base, size, device)

    def unmap_window(self, name: str) -> None:
        """Release an address window and its fabric BAR."""
        window = self.addrmap.release(name)
        self.fabric.unmap_window(window.base)

    def add_vport_for_mac(self, vport: int, mac) -> None:
        """Create a vPort and steer frames for ``mac`` to it (FDB rule).

        Idempotent: repeating the same (mac, vport) pair is a no-op;
        steering an already-claimed MAC to a *different* vPort raises.
        """
        key = str(mac).lower()
        owner = self._fdb_macs.get(key)
        if owner is not None:
            if owner != vport:
                raise ValueError(
                    f"{self.name}: mac {key} already steered to vport "
                    f"{owner}, cannot re-steer to vport {vport}")
            return
        cmd = self.nic.cmd
        cmd.ensure_vport(vport)
        rule = cmd.install_rule(
            "fdb", MatchSpec(dst_mac=mac), [ForwardToVport(vport)],
            priority=10,
        )
        self._fdb_macs[key] = vport
        self._fdb_rules[key] = rule

    def remove_vport_for_mac(self, mac) -> None:
        """Undo :meth:`add_vport_for_mac`: drop the FDB rule and destroy
        the vPort once nothing references it."""
        key = str(mac).lower()
        vport = self._fdb_macs.pop(key, None)
        if vport is None:
            return
        cmd = self.nic.cmd
        rule = self._fdb_rules.pop(key, None)
        if rule is not None:
            cmd.try_destroy(rule)
        if vport in (v for v in self._fdb_macs.values()):
            return  # another MAC still steers here
        vport_obj = self.nic.eswitch.vports.get(vport)
        if vport_obj is not None:
            cmd.try_destroy(vport_obj)

    def teardown(self) -> None:
        """Remove every vPort this node steered (reverse add order)."""
        for key in reversed(list(self._fdb_macs)):
            self.remove_vport_for_mac(key)


def connect(a: Node, b: Node) -> None:
    """Cable two nodes' Ethernet ports back-to-back."""
    a.nic.port.connect(b.nic.port)
