"""Attribute a ``cProfile`` run to this repo's layers, by source file.

The layer names are the repo's modules (``src/repro/<package>/<file>``),
grouped as ISSUE 11 lists them.  Attribution is total: every profiled
function lands in exactly one layer, so the per-layer call counts sum to
the profile's total call count exactly — ``run.py`` asserts it.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Tuple

#: (package, file stem) -> layer; a package's unlisted files take the
#: package default below.
_FILE_LAYER = {
    ("sim", "resources"): "sim.resources",
    ("sim", "stats"): "sim.resources",
    ("pcie", "fabric"): "pcie.fabric",
    ("nic", "steering"): "nic.steering",
    ("nic", "eswitch"): "nic.steering",
    ("nic", "offloads"): "nic.steering",
    ("nic", "wqe"): "nic.wqe",
    ("nic", "queues"): "nic.wqe",
    ("nic", "rdma"): "nic.rdma",
    ("nic", "shaper"): "nic.rdma",
    ("nic", "cmd"): "nic.rdma",
    ("core", "cuckoo"): "core.cuckoo",
    ("core", "translation"): "core.cuckoo",
    ("core", "descriptors"): "core.descriptors",
    ("core", "buffers"): "core.descriptors",
    ("host", "testpmd"): "host.testpmd",
    ("host", "cpu"): "host.testpmd",
}

_PACKAGE_LAYER = {
    "sim": "sim.engine",          # engine, fastpath
    "pcie": "pcie.tlp",           # tlp, endpoint, config
    "nic": "nic.device",
    "core": "core.fld",           # fld, rx, tx, bar, axis, errors
    "host": "host.driver",        # driver, memory
    "net": "net",
    "accelerators": "accelerators",
    "sw": "sw",
    "prog": "prog",
    "telemetry": "telemetry",
}

#: Everything else under ``repro/`` (topology, experiments, sweep, models,
#: the top-level modules).
_REPRO_REST = "topology"

LAYERS = (
    "sim.engine", "sim.resources", "pcie.fabric", "pcie.tlp", "nic.device",
    "nic.steering", "nic.wqe", "nic.rdma", "core.fld", "core.cuckoo",
    "core.descriptors", "host.driver", "host.testpmd", "net", "accelerators",
    "sw", "prog", "telemetry", "topology", "builtins", "numpy", "other",
)

#: Stages the engine profiler (``repro.telemetry.profile``) can classify
#: an event into.  ISSUE 11 names the first eight; the last three are the
#: profiler's remaining stages, listed so the per-stage sum stays exact.
STAGES = ("pcie", "nic.queues", "accel", "wire", "app", "host", "fld.rx",
          "fld.tx", "nic.rdma", "nic.shaper", "other")

_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep
_NUMPY_MARK = os.sep + "numpy" + os.sep


def layer_of(filename: str, funcname: str) -> str:
    """The layer a profiled function belongs to."""
    if filename == "~":
        # C callables: cProfile names them "<built-in method numpy...>",
        # "<method 'tobytes' of 'numpy.ndarray' objects>", ...
        return "numpy" if "numpy" in funcname else "builtins"
    at = filename.rfind(_REPRO_MARK)
    if at >= 0:
        parts = filename[at + len(_REPRO_MARK):].split(os.sep)
        if len(parts) == 1:
            return _REPRO_REST
        stem = os.path.splitext(parts[1])[0]
        return _FILE_LAYER.get(
            (parts[0], stem), _PACKAGE_LAYER.get(parts[0], _REPRO_REST))
    if _NUMPY_MARK in filename:
        return "numpy"
    return "other"   # stdlib Python code and the benchmark's own drivers


def by_layer(profile) -> Tuple[Dict[str, int], Dict[str, float], int]:
    """Per-layer call counts and self seconds, and the total call count,
    of a finished ``cProfile.Profile``."""
    stats = pstats.Stats(profile)
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, funcname), (_prim, ncalls, tottime, _cum, _callers) \
            in stats.stats.items():
        layer = layer_of(filename, funcname)
        calls[layer] += ncalls
        self_s[layer] += tottime
    return calls, self_s, stats.total_calls
