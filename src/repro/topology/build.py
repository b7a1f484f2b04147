"""Elaborate a :class:`TopologySpec` into a live, queryable testbed.

Elaboration order is fixed and load-bearing: the simulator schedules
same-timestamp processes in spawn order, so two elaborations of the
same spec construct identical event sequences (this is what keeps the
spec-built single-tenant experiments bit-identical to the historical
hand-wired path).  The phases:

1. **nodes** — in spec order (fabric, memory, NIC, core, driver);
2. **links** — back-to-back cables, in spec order;
3. **vPorts** — eSwitch vPorts + FDB MAC rules, in spec order;
4. **FLDs** — per FLD (spec order): the runtime, then each of *its*
   accelerator functions in spec order (rx queue, tx queue, engine);
5. **host QPs** — queue pairs + their receive buffer posts, in order.

The result is a :class:`Testbed`: components are addressable by their
spec names, and the uniform lifecycle is ``build`` (this function),
``reset`` (zero statistics between measurement phases) and ``quiesce``
(run the invariant auditor over every FLD and NIC).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

from ..sim import Pump, Simulator, Store
from .functions import make_accelerator
from .node import Node, connect
from .spec import AccelFnSpec, SpecError, TopologySpec


class RxFunctionDemux:
    """Route an FLD's shared rx stream to per-function input stores.

    The FLD tags each received packet with its rx binding id
    (``meta.queue_id``); when several accelerator functions share one
    FLD, this dispatcher — the behavioural stand-in for the paper's
    per-context function select (§5.4) — forwards each packet to the
    owning function's bounded store.  Puts block when a function falls
    behind, so backpressure still propagates to the NIC instead of a
    slow tenant's packets leaking into its neighbours' engines.
    """

    def __init__(self, sim: Simulator, fld, name: str):
        self.sim = sim
        self.fld = fld
        self.name = name
        self._routes: dict = {}
        self.stats_unrouted = 0
        self._pump = Pump(sim, fld.rx_stream, self._dispatch,
                          f"{name}.demux")

    def add_route(self, binding_id: int, fn_name: str) -> Store:
        store = Store(self.sim, capacity=self.fld.config.rx_stream_depth,
                      name=f"{fn_name}.rx")
        self._routes[binding_id] = store
        return store

    def _dispatch(self, item):
        store = self._routes.get(item[1].queue_id)
        if store is None:
            self.stats_unrouted += 1
            return True
        # False pauses the pump until the function's store has room.
        return store.put_or_park(item, self._admitted)

    def _admitted(self, _item) -> None:
        self._pump.resume()


@dataclass
class AccelFn:
    """One elaborated accelerator function and its queue plumbing."""

    spec: AccelFnSpec
    runtime: Any                 # FldRuntime
    accel: Any                   # Accelerator subclass
    rq: Any                      # MultiPacketReceiveQueue
    txq: int                     # FLD tx queue id


class Testbed:
    """Named, queryable handles over an elaborated topology."""

    def __init__(self, sim: Simulator, spec: TopologySpec):
        self.sim = sim
        self.spec = spec
        self.nodes: Dict[str, Node] = {}
        self.fld_runtimes: Dict[str, Any] = {}
        self.accel_fns: Dict[str, AccelFn] = {}
        self.host_qps: Dict[str, Any] = {}

    # -- queries ---------------------------------------------------------

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def fld(self, name: str):
        """The :class:`~repro.sw.runtime.FldRuntime` named ``name``."""
        return self.fld_runtimes[name]

    def accel(self, name: str) -> AccelFn:
        return self.accel_fns[name]

    def host_qp(self, name: str):
        return self.host_qps[name]

    # -- lifecycle -------------------------------------------------------

    def reset(self) -> None:
        """Zero measurement statistics (between measurement phases)."""
        for fn in self.accel_fns.values():
            accel = fn.accel
            accel.stats_processed = 0
            accel.stats_dropped = 0
            accel.stats_errors = 0
        for node in self.nodes.values():
            port = node.nic.port
            port.stats_tx_packets = 0
            port.stats_rx_packets = 0
            for vport in node.nic.eswitch.vports.values():
                vport.stats_rx = 0
                vport.stats_tx = 0

    def teardown(self) -> None:
        """Destroy every constructed NIC resource, in reverse build
        order, through the firmware command unit.

        After teardown the object tables are empty and the devices are
        clean to audit: host QPs close (releasing rings and buffers),
        each FLD runtime shuts down (releasing tx/rx queues, SRAM
        slices and its BAR window), and each node's vPorts and FDB
        rules are removed.
        """
        for qp in reversed(list(self.host_qps.values())):
            qp.close()
        self.host_qps.clear()
        self.accel_fns.clear()
        for runtime in reversed(list(self.fld_runtimes.values())):
            runtime.shutdown()
        self.fld_runtimes.clear()
        for node in reversed(list(self.nodes.values())):
            node.teardown()

    def objects(self) -> Dict[str, List[dict]]:
        """Every node's firmware object table, as data (the
        ``python -m repro objects`` dump)."""
        return {name: node.nic.cmd.table.rows()
                for name, node in self.nodes.items()}

    def quiesce(self) -> List:
        """Audit FLD/NIC conservation invariants; return violations.

        Call after the simulation drains.  An empty list means every
        FLD returned its credits/buffers and no NIC queue holds
        residue (see :mod:`repro.telemetry.audit`).
        """
        from ..telemetry.audit import audit_all
        flds = [runtime.fld for runtime in self.fld_runtimes.values()]
        nics = [node.nic for node in self.nodes.values()]
        fabrics = list({id(nic.fabric): nic.fabric for nic in nics}.values())
        return audit_all(flds=flds, nics=nics, fabrics=fabrics)

    def assert_quiesced(self) -> None:
        from ..telemetry.audit import assert_clean
        assert_clean(self.quiesce())


def build(sim: Simulator, spec: TopologySpec, cal=None,
          cores: Optional[Dict[str, Any]] = None,
          nic_configs: Optional[Dict[str, Any]] = None) -> Testbed:
    """Elaborate ``spec`` on ``sim``; returns the queryable testbed.

    ``cal`` supplies the calibrated component factories
    (:class:`~repro.experiments.setups.Calibration`; defaulted lazily).
    ``cores`` / ``nic_configs`` map node names to pre-built overrides —
    the escape hatch the legacy ``repro.testbed`` helpers use to pass
    caller-constructed objects through unchanged.
    """
    spec.validate()

    def calibration():
        nonlocal cal
        if cal is None:
            from ..experiments.setups import Calibration
            cal = Calibration()
        return cal

    testbed = Testbed(sim, spec)

    # Phase 1: nodes.
    for ns in spec.nodes:
        if cores is not None and ns.name in cores:
            core = cores[ns.name]
        elif ns.core == "default":
            core = None
        elif ns.core == "loadgen":
            core = calibration().client_core(sim)
        elif ns.core == "app":
            core = calibration().server_core(sim, jitter=True)
        else:  # "app-nojitter" (validate() rejects anything else)
            core = calibration().server_core(sim, jitter=False)
        if nic_configs is not None and ns.name in nic_configs:
            nic_config = nic_configs[ns.name]
        else:
            nic_config = calibration().nic_config()
        if nic_config is not None and ns.port_rate_bps is not None:
            nic_config = replace(nic_config,
                                 port_rate_bps=ns.port_rate_bps)
        testbed.nodes[ns.name] = Node(
            sim, ns.name, nic_config, core,
            pcie_latency=ns.pcie_latency, host_lanes=ns.host_lanes,
        )

    # Phase 2: links.
    for link in spec.links:
        connect(testbed.nodes[link.a], testbed.nodes[link.b])

    # Phase 3: vPorts + FDB steering.
    for vp in spec.vports:
        testbed.nodes[vp.node].add_vport_for_mac(vp.vport, vp.mac)

    # Phase 4: FLD instances, each followed by its accelerator
    # functions (rx queue, tx queue, engine — the historical order).
    from ..sw.runtime import FldRuntime
    for fld_spec in spec.flds:
        node = testbed.nodes[fld_spec.node]
        name = fld_spec.resolved_name()
        runtime = FldRuntime(
            node, fld_config=calibration().fld_config(),
            fld_bar_base=node.addrmap.fld_bar(fld_spec.index),
            fld_name=name,
        )
        testbed.fld_runtimes[name] = runtime
        fld_fns = [fn for fn in spec.accel_fns if fn.fld == name]
        # A lone function keeps the historical direct tap on the FLD rx
        # stream (bit-identical to the hand-wired testbeds); multiple
        # functions get a demultiplexer routing on the rx binding id.
        demux = (RxFunctionDemux(sim, runtime.fld, name)
                 if len(fld_fns) > 1 else None)
        for fn in fld_fns:
            binding_id = runtime._next_rx_binding
            rq = runtime.create_rx_queue(
                vport=fn.vport, ring_entries=fn.rx_ring_entries,
                strides_per_buffer=fn.rx_strides,
                stride_size=fn.rx_stride_size,
                set_default=fn.rx_default)
            txq = runtime.create_eth_tx_queue(vport=fn.vport,
                                              entries=fn.tx_entries)
            source = (demux.add_route(binding_id, fn.name)
                      if demux is not None else None)
            accel = make_accelerator(
                fn.kind, sim, runtime.fld, units=fn.units,
                tx_queue=txq, name=fn.name, params=fn.params,
                source=source,
            )
            testbed.accel_fns[fn.name] = AccelFn(
                spec=fn, runtime=runtime, accel=accel, rq=rq, txq=txq)

    # Phase 5: host queue pairs.
    for qp_spec in spec.host_qps:
        node = testbed.nodes[qp_spec.node]
        if qp_spec.vport not in node.nic.eswitch.vports:
            raise SpecError(
                f"{spec.name}: host qp {qp_spec.name!r} targets vport "
                f"{qp_spec.vport} which no VportSpec created on "
                f"{qp_spec.node!r}")
        qp = node.driver.create_eth_qp(
            vport=qp_spec.vport,
            use_mmio_wqe=qp_spec.use_mmio_wqe,
            sq_entries=qp_spec.sq_entries,
            rq_entries=qp_spec.rq_entries,
            register_default=qp_spec.register_default,
        )
        if qp_spec.post_rx:
            qp.post_rx_buffers(qp_spec.post_rx)
        testbed.host_qps[qp_spec.name] = qp
    return testbed
