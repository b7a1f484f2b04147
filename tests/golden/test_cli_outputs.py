"""The observe CLIs' artifacts, pinned to sha256.

One small run per ``(command, name)`` pair of ``python -m repro``'s
``trace``, ``latency``, ``profile`` and ``objects`` commands, driven
through :func:`repro.reporting.main` into a temporary directory with the
global RNG seeded first.  ``cli_outputs.json`` holds, per pair:

* ``trace``: the Chrome-trace JSON and the ``--metrics`` JSON, byte for
  byte;
* ``latency -o``: the document's ``report``, ``violations``,
  ``sampler`` and ``spans``;
* ``profile -o`` (no wall clock): ``profile``, ``engine_events``,
  ``delivered`` and ``violations``;
* ``objects -o``: the whole document;
* the run's result row, under the keys the row is pinned with (a row
  may grow keys; ``mode`` is the row's label, not a measurement, and is
  left out).

``STDOUT_CASES`` pin the whole stdout of the commands that write no
artifact (``prog``, ``scale-tenants``).

A mismatch means an observed run simulated something else.  Regenerate
only for an intentional change, and review the diff; naming cases
rewrites only those, each under the result keys it is already pinned
with::

    PYTHONPATH=src python -m tests.golden.test_cli_outputs ["profile echo" ...]
"""

import contextlib
import hashlib
import io
import json
import os
import random

import pytest

from repro.reporting import main

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "cli_outputs.json")

#: (command, name) -> --count, or (--count, --size)
CASES = {
    ("trace", "fig7b"): 40,
    ("trace", "table6"): 30,
    ("trace", "forwarding"): 60,
    ("trace", "fldr"): 20,
    # 1 KiB ZUC requests: write and completion trains that a later TLP
    # keys inside, so the lanes split and repair them.
    ("trace", "fig8a"): (80, 1024),
    ("latency", "echo"): 30,
    ("latency", "cpu-echo"): 30,
    ("latency", "forwarding"): 60,
    ("profile", "echo"): 60,
    ("profile", "cpu-echo"): 60,
    ("profile", "forwarding"): 60,
    ("objects", "echo"): None,
    ("objects", "cpu-echo"): None,
    ("objects", "forwarding"): None,
    ("objects", "fldr"): None,
}

#: argv of each command pinned by its stdout alone.
STDOUT_CASES = (
    ("prog", "--count", "40"),
    ("scale-tenants", "--tenants", "1", "3", "--count", "40"),
)

#: Document keys pinned per command (``-o`` JSON).
DOCUMENT_KEYS = {
    "latency": ("report", "violations", "sampler", "spans"),
    "profile": ("profile", "engine_events", "delivered", "violations"),
}


def _sha256(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _printed_result(out: str) -> dict:
    """``trace`` prints its row as ``  key: value`` lines, rounded, then
    the ``metrics json`` path."""
    row = {}
    for line in out.splitlines():
        if line.startswith("  ") and ": " in line:
            key, value = line.strip().split(": ", 1)
            row[key] = value
    row.pop("metrics json", None)
    return row


def _stdout(argv) -> str:
    random.seed(7)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(list(argv)) == 0
    return stdout.getvalue()


def observed(command, name, directory):
    """Run one case; return its artifact digests and result row."""
    out_json = os.path.join(directory, f"{command}-{name}.json")
    argv = [command, name]
    if command == "trace":
        metrics_json = os.path.join(directory, "metrics.json")
        argv += ["-o", out_json, "--metrics", metrics_json]
    else:
        argv += ["-o", out_json]
    count = CASES[command, name]
    if isinstance(count, tuple):
        count, size = count
        argv += ["--size", str(size)]
    if count is not None:
        argv += ["--count", str(count)]
    out = _stdout(argv)
    with open(out_json, "rb") as handle:
        raw = handle.read()
    if command == "trace":
        with open(metrics_json, "rb") as handle:
            digests = {"trace": _sha256(raw), "metrics": _sha256(handle.read())}
        return digests, _printed_result(out)
    if command == "objects":
        return {"document": _sha256(raw)}, None
    document = json.loads(raw)
    digests = {key: _sha256(document[key]) for key in DOCUMENT_KEYS[command]}
    return digests, document["result"]


def _case_id(case) -> str:
    return " ".join(case)


@pytest.fixture(scope="module")
def pinned():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_case_is_pinned(pinned):
    assert sorted(pinned) == sorted(
        [_case_id(case) for case in CASES]
        + [_case_id(argv) for argv in STDOUT_CASES])


@pytest.mark.parametrize("case", sorted(CASES), ids=_case_id)
def test_cli_output(pinned, case, tmp_path):
    expected = pinned[_case_id(case)]
    digests, result = observed(*case, str(tmp_path))
    assert digests == expected["sha256"]
    if expected["result"] is not None:
        assert {key: result[key] for key in expected["result"]} == \
            expected["result"]


@pytest.mark.parametrize("argv", STDOUT_CASES, ids=_case_id)
def test_stdout(pinned, argv):
    assert _sha256(_stdout(argv).encode()) == \
        pinned[_case_id(argv)]["stdout"]


if __name__ == "__main__":
    import sys
    import tempfile
    with open(FIXTURE, encoding="utf-8") as handle:
        table = json.load(handle)
    wanted = sys.argv[1:] or [_case_id(case)
                              for case in list(CASES) + list(STDOUT_CASES)]
    with tempfile.TemporaryDirectory() as directory:
        for case in sorted(CASES):
            if _case_id(case) not in wanted:
                continue
            digests, result = observed(*case, directory)
            if result is not None:
                keys = table.get(_case_id(case), {}).get("result") or result
                result = {key: result[key] for key in keys if key != "mode"}
            table[_case_id(case)] = {"sha256": digests, "result": result}
    for argv in STDOUT_CASES:
        if _case_id(argv) in wanted:
            digest = _sha256(_stdout(argv).encode())
            table[_case_id(argv)] = {"stdout": digest}
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FIXTURE}")
