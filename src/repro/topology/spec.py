"""Declarative testbed descriptions: topology as data, not code.

A :class:`TopologySpec` is a JSON-able description of a testbed —
nodes, links, vPorts with their steered MACs, FLD instances, the
accelerator functions behind them, and host queue pairs.  The
:func:`repro.topology.build.build` elaborator turns a spec into live
simulation objects in a fixed, documented order, so two runs of the
same spec construct (and therefore schedule) identically.

A spec round-trips through JSON canonically
(:meth:`TopologySpec.to_dict`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

#: Core roles a NodeSpec may request; mapped to CpuCore factories on
#: the experiments' :class:`~repro.experiments.setups.Calibration`.
CORE_ROLES = ("default", "loadgen", "app", "app-nojitter")


class SpecError(ValueError):
    """Raised when a spec is internally inconsistent."""


@dataclass(frozen=True)
class NodeSpec:
    """One server (PCIe fabric + memory + NIC + driver).

    ``core`` selects the calibration's CPU model: ``"loadgen"`` for the
    provisioned traffic generator, ``"app"`` / ``"app-nojitter"`` for
    the DPDK server core with/without OS jitter, ``"default"`` for the
    plain :class:`~repro.host.CpuCore`.  ``port_rate_bps`` overrides
    the calibration NIC's line rate (the §9 scaling testbed is 100 GbE).
    """

    name: str
    core: str = "default"
    host_lanes: int = 8
    port_rate_bps: Optional[float] = None
    pcie_latency: float = 300e-9


@dataclass(frozen=True)
class LinkSpec:
    """A back-to-back Ethernet cable between two nodes' ports."""

    a: str
    b: str


@dataclass(frozen=True)
class VportSpec:
    """A vPort on a node's eSwitch plus the FDB rule steering ``mac``."""

    node: str
    vport: int
    mac: str


@dataclass(frozen=True)
class FldSpec:
    """One FLD instance on a node.

    ``index`` places the BAR window (``FLD_BAR_BASE + index *
    FLD_BAR_SIZE``); ``name`` defaults to the runtime's historical
    naming (``<node>.fld`` for index 0).
    """

    node: str
    index: int = 0
    name: Optional[str] = None

    def resolved_name(self) -> str:
        if self.name is not None:
            return self.name
        return f"{self.node}.fld" if self.index == 0 else \
            f"{self.node}.fld{self.index}"


@dataclass(frozen=True)
class AccelFnSpec:
    """An accelerator function multiplexed onto one FLD.

    ``kind`` names a registered factory (see
    :mod:`repro.topology.functions`); ``vport`` is where its rx/tx
    queues attach; ``rx_default`` makes its receive queue the vPort's
    default destination (exactly one function per vPort should claim
    it).  The ``rx_*`` geometry carves this function's slice of FLD's
    receive SRAM — N functions sharing one FLD must divide the 256 KiB
    between them.  ``params`` is passed through to the factory.
    """

    name: str
    fld: str
    kind: str
    vport: int
    units: int = 2
    rx_default: bool = True
    tx_entries: int = 1024
    rx_ring_entries: int = 2
    rx_strides: int = 64
    rx_stride_size: int = 2048
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class HostQpSpec:
    """A host Ethernet queue pair on a node's software driver."""

    name: str
    node: str
    vport: int
    use_mmio_wqe: bool = False
    sq_entries: int = 1024
    rq_entries: int = 1024
    register_default: bool = True
    post_rx: int = 0


@dataclass
class TopologySpec:
    """The complete declarative testbed."""

    name: str
    nodes: List[NodeSpec] = field(default_factory=list)
    links: List[LinkSpec] = field(default_factory=list)
    vports: List[VportSpec] = field(default_factory=list)
    flds: List[FldSpec] = field(default_factory=list)
    accel_fns: List[AccelFnSpec] = field(default_factory=list)
    host_qps: List[HostQpSpec] = field(default_factory=list)

    # -- consistency -----------------------------------------------------

    def validate(self) -> "TopologySpec":
        """Check internal references; returns self for chaining."""
        node_names = [n.name for n in self.nodes]
        if len(set(node_names)) != len(node_names):
            raise SpecError(f"{self.name}: duplicate node names")
        names = set(node_names)
        for node in self.nodes:
            if node.core not in CORE_ROLES:
                raise SpecError(
                    f"{self.name}: node {node.name!r} has unknown core "
                    f"role {node.core!r} (choose from {CORE_ROLES})")
        port_users: Dict[str, str] = {}
        for link in self.links:
            if link.a == link.b:
                raise SpecError(
                    f"{self.name}: link connects {link.a!r} to itself")
            for end in (link.a, link.b):
                if end not in names:
                    raise SpecError(
                        f"{self.name}: link references unknown node "
                        f"{end!r}")
                if end in port_users:
                    raise SpecError(
                        f"{self.name}: node {end!r} port already cabled "
                        f"(links are one per Ethernet port)")
                port_users[end] = end
        seen_vports = set()
        for vp in self.vports:
            if vp.node not in names:
                raise SpecError(f"{self.name}: vport on unknown node "
                                f"{vp.node!r}")
            if (vp.node, vp.vport, vp.mac.lower()) in seen_vports:
                raise SpecError(
                    f"{self.name}: duplicate vport entry "
                    f"({vp.node}, {vp.vport}, {vp.mac})")
            seen_vports.add((vp.node, vp.vport, vp.mac.lower()))
        fld_names = []
        fld_slots = set()
        for fld in self.flds:
            if fld.node not in names:
                raise SpecError(f"{self.name}: fld on unknown node "
                                f"{fld.node!r}")
            if (fld.node, fld.index) in fld_slots:
                raise SpecError(
                    f"{self.name}: two FLDs claim BAR index "
                    f"{fld.index} on node {fld.node!r}")
            fld_slots.add((fld.node, fld.index))
            fld_names.append(fld.resolved_name())
        if len(set(fld_names)) != len(fld_names):
            raise SpecError(f"{self.name}: duplicate FLD names")
        rx_defaults = set()
        fn_names = set()
        for fn in self.accel_fns:
            if fn.fld not in fld_names:
                raise SpecError(
                    f"{self.name}: accel fn {fn.name!r} references "
                    f"unknown FLD {fn.fld!r}")
            if fn.name in fn_names:
                raise SpecError(
                    f"{self.name}: duplicate accel fn name {fn.name!r}")
            fn_names.add(fn.name)
            node = next(f.node for f in self.flds
                        if f.resolved_name() == fn.fld)
            if fn.rx_default:
                if (node, fn.vport) in rx_defaults:
                    raise SpecError(
                        f"{self.name}: two accel fns claim the default "
                        f"rx queue of vport {fn.vport} on {node!r}")
                rx_defaults.add((node, fn.vport))
        qp_names = set()
        for qp in self.host_qps:
            if qp.node not in names:
                raise SpecError(f"{self.name}: host qp on unknown node "
                                f"{qp.node!r}")
            if qp.name in qp_names:
                raise SpecError(
                    f"{self.name}: duplicate host qp name {qp.name!r}")
            qp_names.add(qp.name)
        return self

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-able dict (canonical under ``canonical_params``)."""
        return {
            "name": self.name,
            "nodes": [asdict(n) for n in self.nodes],
            "links": [asdict(link) for link in self.links],
            "vports": [asdict(v) for v in self.vports],
            "flds": [asdict(f) for f in self.flds],
            "accel_fns": [asdict(a) for a in self.accel_fns],
            "host_qps": [asdict(q) for q in self.host_qps],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TopologySpec":
        return cls(
            name=data["name"],
            nodes=[NodeSpec(**n) for n in data.get("nodes", [])],
            links=[LinkSpec(**link) for link in data.get("links", [])],
            vports=[VportSpec(**v) for v in data.get("vports", [])],
            flds=[FldSpec(**f) for f in data.get("flds", [])],
            accel_fns=[AccelFnSpec(**a)
                       for a in data.get("accel_fns", [])],
            host_qps=[HostQpSpec(**q) for q in data.get("host_qps", [])],
        )
