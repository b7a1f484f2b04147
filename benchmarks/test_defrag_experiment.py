"""§8.2.2: the IP defragmentation experiment.

Paper numbers (Gbps): no fragmentation 23.2; fragmented + software
defrag 3.2 (RSS broken, one core); fragmented + hardware defrag 22.4
(7x); VXLAN + hardware defrag 5.25x over the software case (the
*sender* becomes the bottleneck).
"""

import random

import pytest

from repro.experiments.defrag import CONFIGS, NUM_FLOWS, experiment_points
from repro.scenario import run

from .conftest import print_table, run_once, run_points


def test_defrag_experiment(benchmark):
    def run():
        return {r["config"]: r
                for r in run_points(experiment_points(rounds=40,
                                                      configs=CONFIGS))}

    results = run_once(benchmark, run)
    rows = [
        {"config": c, "goodput_gbps": r["goodput_gbps"],
         "active_cores": r["active_cores"],
         "accel_reassembled": r["accel_reassembled"]}
        for c, r in results.items()
    ]
    print_table("§8.2.2: IP defragmentation goodput", rows)

    nofrag = results["nofrag"]["goodput_gbps"]
    sw = results["sw-defrag"]["goodput_gbps"]
    hw = results["hw-defrag"]["goodput_gbps"]
    vxlan_sw = results["vxlan-sw"]["goodput_gbps"]
    vxlan_hw = results["vxlan-hw"]["goodput_gbps"]

    # Baseline near line rate across all cores (paper: 23.2).
    assert nofrag == pytest.approx(23.2, abs=1.5)
    assert results["nofrag"]["active_cores"] >= 6

    # Fragmentation breaks RSS: one core, order-of-magnitude collapse
    # (paper: 3.2 Gbps).
    assert results["sw-defrag"]["active_cores"] == 1
    assert sw == pytest.approx(3.2, abs=1.0)

    # Hardware defrag restores RSS and ~line rate (paper: 22.4, 7x).
    assert results["hw-defrag"]["active_cores"] >= 6
    assert hw == pytest.approx(22.4, abs=1.5)
    assert 5.5 < hw / sw < 10.0

    # VXLAN: decap offload composes with defrag; the software sender
    # becomes the bottleneck, so the speedup is lower (paper: 5.25x).
    assert vxlan_hw < hw
    assert 4.0 < vxlan_hw / vxlan_sw < 7.5
    # Every fragment that reached the accelerator was reassembled.
    assert results["hw-defrag"]["accel_reassembled"] > 0


@pytest.mark.xfail(strict=True, reason=(
    "Flow.__init__ draws each flow's IP ident from the global RNG; the 60 "
    "flows share src, dst and proto, which with the ident make up the "
    "software reassembler's key, so vxlan-sw goodput moves with the seed"))
def test_goodput_does_not_depend_on_the_global_rng():
    goodput = []
    for seed in (0, 1):
        random.seed(seed)
        row = run("defrag", 30 * NUM_FLOWS, shape={"config": "vxlan-sw"})[0]
        goodput.append(row["goodput_gbps"])
    assert goodput[0] == goodput[1]
