"""Ablation: cuckoo hash provisioning (§5.2's load-factor-1/2 choice).

The paper doubles the translation tables to guarantee insertion
convergence.  This ablation sweeps the load factor and measures kicks
and stalls under an FLD-like insert/remove churn — showing why the 2x
provisioning (and the 4-entry stash) is the right spend.
"""

import os
import subprocess
import sys

from repro.core import CuckooFullError, CuckooHashTable

from .conftest import print_table, run_once

CAPACITY = 1024
ROUNDS = 30


def _churn(load_factor: float):
    table = CuckooHashTable(capacity=CAPACITY, load_factor=load_factor)
    target = int(CAPACITY * 0.95)
    stalls = 0
    inserted = 0
    # Sustained in-flight descriptor churn: fill to target, then
    # replace entries one by one, as FLD's tx pool does per packet.
    live = []
    for round_no in range(ROUNDS):
        for i in range(target):
            key = (round_no, i)
            try:
                table.insert(key, i)
                live.append(key)
                inserted += 1
            except CuckooFullError:
                stalls += 1
            if len(live) > target // 2:
                table.remove(live.pop(0))
        while live:
            table.remove(live.pop(0))
    return {
        "load_factor": load_factor,
        "inserted": inserted,
        "stalls": stalls + table.stats_stalls,
        "kicks": table.stats_kicks,
        "stash_peak": table.stats_stash_peak,
        "table_bytes": table.memory_bytes,
    }


def test_ablation_cuckoo_load_factor(benchmark):
    def run():
        return [_churn(lf) for lf in (0.5, 0.7, 0.85, 0.95, 1.0)]

    rows = run_once(benchmark, run)
    print_table("Ablation: cuckoo load factor under churn", rows)

    half = rows[0]
    full = rows[-1]
    # The paper's choice: at load factor 1/2 churn never stalls.
    assert half["load_factor"] == 0.5
    assert half["stalls"] == 0
    # Memory halves as the load factor doubles...
    assert full["table_bytes"] < half["table_bytes"] * 0.6
    # ...but displacement work rises monotonically with pressure.
    kicks = [r["kicks"] for r in rows]
    assert kicks[-1] >= kicks[0]
    assert sum(r["stalls"] for r in rows[2:]) >= 0  # tight tables may stall


def _fill_burst():
    """Insert into a 512-entry table at load factor 0.98 until it
    refuses.  The keys are tuples of ints, whose hash is the same in
    every process (a str's is salted per process: ``PYTHONHASHSEED``)."""
    table = CuckooHashTable(capacity=512, load_factor=0.98)
    placed = 0
    try:
        for i in range(512):
            table.insert((1, i), i)
            placed += 1
    except CuckooFullError:
        pass
    return {"placed": placed, "stash_peak": table.stats_stash_peak,
            "kicks": table.stats_kicks}


def test_ablation_stash_usage(benchmark):
    """The 4-entry stash absorbs collision bursts at high pressure."""
    result = run_once(benchmark, _fill_burst)
    print_table("Ablation: stash under a fill burst", [result])
    assert result["placed"] > 256  # the stash keeps the fill going deep


def test_fill_burst_row_does_not_depend_on_the_hash_seed():
    """The burst's row, run in a fresh process under ``PYTHONHASHSEED``
    0 and under 1, is the same."""
    rows = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        rows.append(subprocess.run(
            [sys.executable, "-c", "from benchmarks.test_ablation_cuckoo "
             "import _fill_burst; print(_fill_burst())"],
            env=env, capture_output=True, text=True, check=True).stdout)
    assert rows[0] == rows[1], rows
