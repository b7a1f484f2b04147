"""Whole-experiment digests of the datapath, pinned byte for byte.

Nine small scenario runs, one per datapath shape (FLD-E remote and
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

from repro.scenario import run

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "datapath_digests.json")


def canonical_digest(result) -> str:
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


#: Case -> (scenario row, count, size, seed, shape, traffic); the
#: digest is of ``repro.scenario.run``'s result row, after seeding
#: ``random``.
CASES = {
    "echo_flde_remote": ("fig7b", 150, 64, 1234, {}, {}),
    "echo_flde_local": ("fig7b-local", 150, 256, 1234, {}, {}),
    # cpu-remote drives the NIC's WQE ring fetch and receive-descriptor
    # bursts (`iter_unpack` of TX_WQE and RX_DESC).
    "echo_cpu_remote": ("fig7b-cpu", 150, 512, 1234, {}, {}),
    "echo_latency_flde": ("table6", 100, 64, 99, {}, {}),
    "zuc_fld": ("fig8a", 80, 512, 5, {}, {}),
    "iot_line_rate": ("iot-line-rate", None, 512, 0, {},
                      {"duration": 0.1e-3}),
    "defrag": ("defrag", 240, None, 11, {"config": "hw-defrag"}, {}),
    "scale_tenants": ("scale-tenants", 80, 256, 21, {"tenants": 2}, {}),
    "prog_echo": ("prog-null", 80, 256, 31, {}, {}),
}


def result_of(name: str):
    row, count, size, seed, shape, traffic = CASES[name]
    random.seed(seed)
    return run(row, count, size, shape=shape, **traffic)[0]


@pytest.fixture(scope="module")
def digests():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_case_is_pinned(digests):
    assert sorted(digests) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_datapath_digest(digests, name):
    assert canonical_digest(result_of(name)) == digests[name], (
        f"{name}: a simulated result moved")


if __name__ == "__main__":
    table = {name: canonical_digest(result_of(name)) for name in sorted(CASES)}
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE}")
