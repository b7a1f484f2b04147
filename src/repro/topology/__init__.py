"""Declarative topology layer: compose testbeds from one spec.

``TopologySpec`` describes a testbed as data (nodes, links, vPorts,
FLDs, accelerator functions, host QPs); :func:`build` elaborates it
into a live, queryable :class:`Testbed` in a fixed order so identical
specs schedule identically.  :mod:`repro.topology.addrmap` is the one
home of the physical address constants.

Only the leaf modules (``addrmap``, ``spec``) import eagerly; the
elaborator and :class:`Node` load on first attribute access (PEP 562)
so that :mod:`repro.nic` can take its BAR layout constants from
``addrmap`` without creating an import cycle through ``node``.
"""

from .addrmap import (
    ACCEL_BAR_BASE,
    AddressMap,
    AddressMapError,
    BAR_SIZE,
    DOORBELL_STRIDE,
    FLD_BAR_BASE,
    HOST_MEM_BASE,
    HOST_MEM_SIZE,
    NIC_BAR_BASE,
    RQ_DOORBELL_BASE,
    WQE_MMIO_BASE,
    WQE_MMIO_STRIDE,
    Window,
)
from .spec import (
    AccelFnSpec,
    CORE_ROLES,
    FldSpec,
    HostQpSpec,
    LinkSpec,
    NodeSpec,
    SpecError,
    TopologySpec,
    VportSpec,
)

_LAZY = {
    "AccelFn": ("build", "AccelFn"),
    "Testbed": ("build", "Testbed"),
    "build": ("build", "build"),
    "accel_kinds": ("functions", "accel_kinds"),
    "make_accelerator": ("functions", "make_accelerator"),
    "register_kind": ("functions", "register_kind"),
    "Node": ("node", "Node"),
    "connect": ("node", "connect"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module
    value = getattr(import_module(f".{module_name}", __name__), attr)
    globals()[name] = value
    return value


__all__ = [
    "ACCEL_BAR_BASE",
    "AccelFn",
    "AccelFnSpec",
    "AddressMap",
    "AddressMapError",
    "BAR_SIZE",
    "CORE_ROLES",
    "DOORBELL_STRIDE",
    "FLD_BAR_BASE",
    "FldSpec",
    "HOST_MEM_BASE",
    "HOST_MEM_SIZE",
    "HostQpSpec",
    "LinkSpec",
    "NIC_BAR_BASE",
    "Node",
    "NodeSpec",
    "RQ_DOORBELL_BASE",
    "SpecError",
    "Testbed",
    "TopologySpec",
    "VportSpec",
    "WQE_MMIO_BASE",
    "WQE_MMIO_STRIDE",
    "Window",
    "accel_kinds",
    "build",
    "connect",
    "make_accelerator",
    "register_kind",
]
