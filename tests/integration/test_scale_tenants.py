"""The N-tenant scaling experiment (one FLD, N accelerator functions).

Four contracts: with one tenant the composed testbed is bit-identical
to the historical single-tenant FLD-E remote echo; with several
tenants every packet reaches exactly its own tenant's engine and the
invariant auditor stays clean; each tenant count is its own sweep
point with its own seed; and a tenant count past the FLD's tx queue
limit is refused before any packet is sent.
"""

import random

import pytest

from repro.core.bar import MAX_TX_QUEUES
from repro.experiments import scale_tenants
from repro.reporting import main
from repro.sim import Simulator
from repro.sw import FldRuntimeError
from repro.sweep import resolve_target
from repro.topology import build as build_topology

from ..golden.fingerprints import entries


def test_single_tenant_bit_identical_to_flde_remote():
    golden = entries()["topology/flde_echo_remote"]
    random.seed(1234)
    result = scale_tenants.throughput(1, 256, count=400)
    for key in ("sent", "received", "gbps", "mpps"):
        assert result[key] == golden[key], key
    assert result["violations"] == 0
    (tenant,) = result["per_tenant"]
    assert tenant["kind"] == "echo"
    assert tenant["received"] == golden["received"]


class TestFourTenants:
    @pytest.fixture(scope="class")
    def result(self):
        random.seed(1234)
        return scale_tenants.throughput(4, 256, count=400)

    def test_no_loss_and_clean_audit(self, result):
        assert result["sent"] == 400
        assert result["received"] == 400
        assert result["violations"] == 0

    def test_packets_reach_exactly_their_tenant(self, result):
        # 400 frames dealt round-robin over 4 tenants: each engine must
        # process exactly its 100 — any crosstalk through the shared
        # FLD rx stream would skew these counts.
        for row in result["per_tenant"]:
            assert row["accel_packets"] == 100, row
            assert row["received"] == 100, row

    def test_tenant_kind_mix(self, result):
        kinds = [row["kind"] for row in result["per_tenant"]]
        assert kinds == ["echo", "zuc-echo", "iot-echo", "echo"]
        vports = [row["vport"] for row in result["per_tenant"]]
        assert vports == [2, 3, 4, 5]

    def test_per_tenant_latency_reported(self, result):
        for row in result["per_tenant"]:
            assert row["mean_us"] is not None
            assert row["p99_us"] >= row["mean_us"] > 0
        by_kind = {row["kind"]: row for row in result["per_tenant"]}
        # The ZUC tenant pays its keystream setup+encrypt time twice
        # (encrypt on rx, decrypt on tx): visibly slower than echo.
        assert by_kind["zuc-echo"]["mean_us"] > by_kind["echo"]["mean_us"]


class TestSweepPoints:
    def test_each_tenant_count_has_its_own_seed(self):
        points = scale_tenants.sweep_points(tenant_counts=(1, 2, 4))
        assert [p.params["tenants"] for p in points] == [1, 2, 4]
        assert len({p.seed() for p in points}) == 3

    def test_same_shape_same_seed(self):
        (a,) = scale_tenants.sweep_points(tenant_counts=(4,))
        (b,) = scale_tenants.sweep_points(tenant_counts=(4,))
        assert a.seed() == b.seed()

    def test_points_name_a_runnable_target_with_their_shape(self):
        # The seed hashes exactly these params: the tenant count reaches
        # it only through them, never through the topology it builds.
        (point,) = scale_tenants.sweep_points(tenant_counts=(2,), size=128,
                                              count=50)
        assert point.params == {"tenants": 2, "size": 128, "count": 50}
        assert resolve_target(point.target) is scale_tenants.throughput
        assert point.telemetry is False


class TestTenantLimit:
    """One tx queue per tenant: the FLD BAR's TX data region holds
    ``MAX_TX_QUEUES`` data windows, so that many tenants fit."""

    def test_limit_tenants_audit_clean(self):
        random.seed(1234)
        result = scale_tenants.throughput(MAX_TX_QUEUES, 256, count=400)
        assert result["received"] == 400
        assert result["violations"] == 0

    def test_one_more_tenant_fails_at_build(self):
        spec = scale_tenants.scale_tenants_spec(MAX_TX_QUEUES + 1)
        with pytest.raises(FldRuntimeError, match="tx queue slots"):
            build_topology(Simulator(), spec)

    @pytest.mark.parametrize("tenants", [0, MAX_TX_QUEUES + 1])
    def test_cli_rejects_out_of_range_counts(self, tenants, capsys):
        assert main(["scale-tenants", "--tenants", str(tenants)]) == 2
        out = capsys.readouterr().out
        assert out == (f"--tenants must be 1..{MAX_TX_QUEUES} (one FLD tx "
                       f"queue each); got {tenants}\n")

    @pytest.mark.parametrize("argv,message", [
        ("--size 9000 --count 5",
         "scale-tenants carries sizes of 64 to 2048 B; got 9000"),
        ("--count -3", "scale-tenants needs a count of at least 1; got -3"),
    ], ids=["size", "count"])
    def test_cli_refuses_a_size_or_count_before_running(self, argv, message,
                                                         capsys):
        assert main(["scale-tenants", "--tenants", "2",
                     *argv.split()]) == 2
        assert capsys.readouterr().out == message + "\n"
