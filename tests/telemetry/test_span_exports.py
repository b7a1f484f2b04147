"""Span and histogram exports, pinned to the byte.

``span_exports.json`` was written by :func:`export` running against the
commit *before* the recorder's hot path was rebuilt (context = trace,
sweep attribution, memoised histograms), so span ids, span order, every
stage sum and every bucket count of ``python -m repro latency echo
--count 30`` are held to what the lookup-per-span recorder and the
quadratic attribution produced.  An intended change to the export
regenerates it from a checkout that has this file:
``PYTHONPATH=src python -m tests.telemetry.test_span_exports``.
"""

import hashlib
import json
import random
import subprocess
from pathlib import Path

from repro.scenario import run
from repro.telemetry import Telemetry

FIXTURE = Path(__file__).with_name("span_exports.json")
COUNT = 30


def export():
    """What ``latency echo`` leaves in the recorder and the registry."""
    random.seed(7)
    telemetry = Telemetry(trace=False, spans=True)
    run("table6", COUNT, telemetry=telemetry)
    spans = telemetry.spans.to_dict()
    traces = spans.pop("traces")
    metrics = telemetry.metrics.to_dict()
    return {
        "recorder": spans,
        # 30 span trees are ~80 KB of JSON: the digest pins all of them,
        # the first and last are kept whole so a drift can be read.
        "traces_sha256": hashlib.sha256(
            json.dumps(traces, sort_keys=True).encode()).hexdigest(),
        "first_trace": traces[0],
        "last_trace": traces[-1],
        "sampler_counters": {
            name: value for name, value in metrics["counters"].items()
            if name.startswith("spans.sampler.")},
        "histograms": {
            name: histogram
            for name, histogram in metrics["histograms"].items()
            if name.startswith("spans.") or name.endswith(".wait")},
    }


def test_latency_echo_exports_equal_the_pinned_ones():
    pinned = json.loads(FIXTURE.read_text(encoding="utf-8"))
    pinned.pop("generated")
    # Through JSON and back, as the fixture went: float reprs round-trip
    # exactly, so == here is equality to the bit.
    got = json.loads(json.dumps(export()))
    assert got["first_trace"] == pinned["first_trace"]
    assert got["last_trace"] == pinned["last_trace"]
    assert got["histograms"] == pinned["histograms"]
    assert got == pinned

    recorder = got["recorder"]
    assert recorder["sampled"] + recorder["skipped"] + recorder["dropped"] \
        == recorder["seen"] == COUNT
    # A tally still at zero stays out of the registry export.
    assert got["sampler_counters"] == {"spans.sampler.sampled": COUNT}
    assert {"spans.e2e", "spans.unattributed",
            "store.server.fld.rx_stream.wait"} <= set(got["histograms"])


def source_revision(root=Path(__file__).resolve().parents[2]) -> str:
    """The commit ``root``'s ``src/`` is at, marked when ``src/`` has
    uncommitted changes: a fixture written from such a tree pins code
    that no commit holds."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, check=True).stdout.strip()
    commit = git("rev-parse", "HEAD")
    if git("status", "--porcelain", "--", "src"):
        return f"{commit} plus uncommitted changes to src/"
    return commit


def test_a_tree_with_uncommitted_source_is_marked(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *args], cwd=tmp_path,
                       capture_output=True, check=True)
    source = tmp_path / "src" / "module.py"
    source.parent.mkdir()
    source.write_text("x = 1\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-qm", "source")
    commit = source_revision(tmp_path)
    assert len(commit) == 40
    (tmp_path / "notes.txt").write_text("outside src/")
    assert source_revision(tmp_path) == commit
    source.write_text("x = 2\n")
    assert source_revision(tmp_path) == \
        f"{commit} plus uncommitted changes to src/"
    source.write_text("x = 1\n")
    (source.parent / "new.py").write_text("")
    assert source_revision(tmp_path) != commit


if __name__ == "__main__":
    document = {"generated": f"by tests/telemetry/test_span_exports.py "
                             f"export() against src/ at commit "
                             f"{source_revision()}"}
    document.update(export())
    FIXTURE.write_text(json.dumps(document, indent=1) + "\n",
                       encoding="utf-8")
