"""The quick examples run to their final "OK" (each asserts what it
shows); ``inline_defrag`` and ``iot_multitenant`` are whole experiments
that the experiment tests already run."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.mark.parametrize("name", [
    "quickstart", "disaggregated_zuc", "rdma_remote_memory",
    "per_queue_backpressure", "egress_program"])
def test_example_runs(name, capsys):
    runpy.run_path(str(EXAMPLES / f"{name}.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    if name != "disaggregated_zuc":
        assert out.rstrip().endswith("OK")
