"""Whole-experiment digests of the datapath, pinned byte for byte.

Nine small experiment runs, one per datapath shape (FLD-E remote and
local echo, the CPU echo's WQE ring fetch and receive-descriptor
bursts, closed-loop latency, ZUC over FLD-R, IoT shaping, defrag,
multi-tenant scale, a match-action program), each reduced to the
sha256 of its canonical JSON.  ``datapath_digests.json`` holds the
digests; a mismatch means a simulated number moved somewhere in that
run.  Regenerate only for an intentional model change::

    PYTHONPATH=src python -m tests.golden.test_datapath_digests
"""

import hashlib
import json
import os
import random

import pytest

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "datapath_digests.json")


def canonical_digest(result) -> str:
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _echo_remote():
    from repro.experiments.echo import echo_throughput
    random.seed(1234)
    return echo_throughput("flde-remote", 64, count=150)


def _echo_local():
    from repro.experiments.echo import echo_throughput
    random.seed(1234)
    return echo_throughput("flde-local", 256, count=150)


def _echo_cpu_remote():
    # cpu-remote drives the NIC's WQE ring fetch and receive-descriptor
    # bursts (`iter_unpack` of TX_WQE and RX_DESC).
    from repro.experiments.echo import echo_throughput
    random.seed(1234)
    return echo_throughput("cpu-remote", 512, count=150)


def _echo_latency():
    from repro.experiments.echo import echo_latency
    random.seed(99)
    return echo_latency("flde", count=100)


def _zuc():
    from repro.experiments.zuc import fld_throughput
    random.seed(5)
    return fld_throughput(512, count=80)


def _iot():
    from repro.experiments.iot import line_rate_point
    return line_rate_point(512, duration=0.1e-3)


def _defrag():
    from repro.experiments.defrag import run as defrag_run
    random.seed(11)
    return defrag_run("hw-defrag", rounds=4)


def _scale_tenants():
    from repro.experiments.scale_tenants import throughput
    random.seed(21)
    return throughput(2, size=256, count=80)


def _prog():
    from repro.experiments.prog import echo_fingerprint
    random.seed(31)
    return echo_fingerprint(size=256, count=80)


CASES = {
    "echo_flde_remote": _echo_remote,
    "echo_flde_local": _echo_local,
    "echo_cpu_remote": _echo_cpu_remote,
    "echo_latency_flde": _echo_latency,
    "zuc_fld": _zuc,
    "iot_line_rate": _iot,
    "defrag": _defrag,
    "scale_tenants": _scale_tenants,
    "prog_echo": _prog,
}


@pytest.fixture(scope="module")
def digests():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_case_is_pinned(digests):
    assert sorted(digests) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_datapath_digest(digests, name):
    assert canonical_digest(CASES[name]()) == digests[name], (
        f"{name}: a simulated result moved")


if __name__ == "__main__":
    table = {name: canonical_digest(CASES[name]()) for name in sorted(CASES)}
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE}")
