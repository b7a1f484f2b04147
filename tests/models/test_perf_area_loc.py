"""Tests for the performance model, area data and LOC counter."""

import os
import tempfile

import pytest

from repro.models import area, loc
from repro.models.perf import (
    FldPerfModel,
    ethernet_packet_rate,
    ethernet_throughput_bps,
    expected_echo_gbps,
    figure7a,
    zuc_model_gbps,
)


class TestPerfModel:
    def test_ethernet_rate_at_64b(self):
        # 25G / ((64+24)*8) = 35.5 Mpps
        assert ethernet_packet_rate(64, 25e9) == pytest.approx(35.5e6,
                                                               rel=0.01)

    def test_pcie_overhead_decreases_with_size(self):
        model = FldPerfModel()
        small = model.echo_throughput_bps(64) / ethernet_throughput_bps(
            64, 50e9)
        large = model.echo_throughput_bps(4096) / ethernet_throughput_bps(
            4096, 50e9)
        assert large > small

    def test_25g_config_meets_line_rate_above_128(self):
        """Paper: the 25G/50G-PCIe prototype meets line rate."""
        for row in figure7a(sizes=[128, 256, 512, 1024, 1500]):
            if row["config"] == "25G-eth/50G-pcie":
                assert row["fraction_of_ethernet"] == pytest.approx(1.0)

    def test_equal_rate_configs_lose_to_ethernet_at_small_sizes(self):
        rows = [r for r in figure7a(sizes=[64])
                if r["config"] == "100G-eth/100G-pcie"]
        assert rows[0]["fraction_of_ethernet"] < 0.7

    def test_fraction_at_512_large(self):
        """Paper claims ~95% at 512 B; our TLP accounting yields >75%
        with the same optimizations enabled (documented deviation)."""
        rows = [r for r in figure7a(sizes=[512])
                if r["config"] == "100G-eth/100G-pcie"]
        assert rows[0]["fraction_of_ethernet"] > 0.75

    def test_wqe_by_mmio_beats_doorbell_for_small_packets(self):
        with_mmio = FldPerfModel(wqe_by_mmio=True)
        without = FldPerfModel(wqe_by_mmio=False)
        assert (with_mmio.echo_packet_rate(64)
                > without.echo_packet_rate(64))

    def test_expected_echo_caps_at_wire(self):
        assert expected_echo_gbps(1500, 25e9, 50e9) < 25.0

    def test_zuc_model_monotone_in_size(self):
        values = [zuc_model_gbps(s) for s in (64, 256, 512, 2048, 8192)]
        assert values == sorted(values)

    def test_zuc_model_at_512_near_paper(self):
        """Paper: ~19.8 Gbps expected at 512 B requests on 25 GbE."""
        assert zuc_model_gbps(512) == pytest.approx(19.8, abs=1.0)


class TestAreaModel:
    def test_fld_smaller_than_bitw_designs(self):
        fld = area.fld_total_utilization()
        nica = next(a for a in area.TABLE1 if a.solution == "NICA")
        assert fld.lut < nica.utilization.lut
        assert fld.ff < nica.utilization.ff

    def test_fld_only_full_feature_design(self):
        full = [arch.solution for arch in area.TABLE1
                if arch.stateless_offloads and arch.tunneling == "yes"
                and arch.hardware_transport == "yes"]
        assert full == ["FLD"]

    def test_nica_comparison_direction(self):
        """§7: NICA needs more of every resource than FLD + IoT."""
        comparison = area.nica_comparison()
        assert 0.2 < comparison["lut_overhead"] < 0.5
        assert 0.2 < comparison["ff_overhead"] < 0.55
        assert 0.4 < comparison["bram_overhead"] < 0.8
        assert comparison["nica_slowdown"] == pytest.approx(5.7)

    def test_table5_modules_present(self):
        names = {m.name for m in area.TABLE5}
        assert {"FLD", "PCIe core", "ZUC", "IP defrag.", "IoT auth."} <= names

    def test_module_lookup(self):
        assert area.module("FLD").clock_mhz == 250
        with pytest.raises(KeyError):
            area.module("nonexistent")


class TestLocCounter:
    def test_counts_code_not_comments_or_docstrings(self):
        source = '"""Module docstring\nspanning lines."""\n\n' \
                 '# comment\nx = 1\n\n\ndef f():\n' \
                 '    """Doc."""\n    return x  # trailing\n'
        with tempfile.NamedTemporaryFile("w", suffix=".py",
                                         delete=False) as handle:
            handle.write(source)
            path = handle.name
        try:
            assert loc.count_python_loc(path) == 3  # x=1, def, return
        finally:
            os.unlink(path)

    def test_table4_components_nonempty(self):
        table = loc.table4()
        assert set(table) == set(loc.COMPONENTS)
        for name, count in table.items():
            assert count > 10, f"{name} suspiciously small"

    def test_runtime_is_largest_software_component(self):
        """Matches the paper's proportions: the runtime library leads."""
        table = loc.table4()
        assert table["FLD runtime library"] == max(table.values())

    def test_repository_total_substantial(self):
        assert loc.repository_loc() > 4000

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            loc.count_paths(["no/such/path.py"])
