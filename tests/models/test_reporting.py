"""Tests for the report CLI (python -m repro)."""

import pytest

from repro import reporting


class TestFormatTable:
    def test_basic_alignment(self):
        text = reporting.format_table("T", [{"a": 1, "bb": 2.5},
                                            {"a": 100, "bb": 0.1}])
        lines = text.splitlines()
        assert lines[0] == "\n=== T ===".strip("\n") or "=== T ===" in text
        assert "100" in text and "2.50" in text

    def test_empty_rows(self):
        assert "(no rows)" in reporting.format_table("T", [])

    def test_column_selection(self):
        text = reporting.format_table("T", [{"a": 1, "b": 2}],
                                      columns=["b"])
        assert "b" in text and "a" not in text.splitlines()[1]


class TestAnalyticalRenderers:
    """Every instant renderer produces its banner and key content."""

    def test_table1(self):
        text = reporting.render_table1()
        assert "FlexDriver" in text and "NICA" in text

    def test_table2(self):
        assert "1133" in reporting.render_table2()

    def test_table3(self):
        text = reporting.render_table3()
        assert "x105.0" in text
        assert "832.7 KiB" in text

    def test_table4(self):
        assert "FLD runtime library" in reporting.render_table4()

    def test_table5(self):
        assert "PCIe core" in reporting.render_table5()

    def test_fig4(self):
        text = reporting.render_fig4()
        assert "line rate" in text and "queues" in text

    def test_fig7a(self):
        assert "25G-eth/50G-pcie" in reporting.render_fig7a()


class TestMain:
    def test_default_prints_analytical(self, capsys):
        assert reporting.main([]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "--full" in out  # the hint line

    def test_named_section(self, capsys):
        assert reporting.main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out and "Table 1" not in out

    def test_unknown_section_errors(self, capsys):
        assert reporting.main(["nonsense"]) == 2
        assert "unknown sections" in capsys.readouterr().out

    def test_simulated_section_runs(self, capsys):
        assert reporting.main(["iot"]) == 0
        out = capsys.readouterr().out
        assert "tenant isolation" in out

    def test_bare_form_takes_the_sweep_options(self, capsys):
        # The options ``tables`` and ``figures`` take, not sections.
        assert reporting.main(["--jobs", "2", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out
        assert reporting.main(["--full", "-j", "2", "table4"]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out and "Table 1" not in out

    @pytest.mark.parametrize("argv", [
        "tables table1 --no-cache",
        "tables table1 --cache-dir cache",
        "table1 --no-cache",
    ])
    def test_removed_cache_options_are_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            reporting.main(argv.split())
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_rerun_prints_the_same_and_leaves_no_files(
            self, tmp_path, monkeypatch, capsys):
        # Every run simulates afresh: a second run must print Table 6
        # with the same columns in the same order, and write nothing.
        monkeypatch.chdir(tmp_path)
        outs = []
        for _ in range(2):
            assert reporting.main(["tables", "table6", "--full"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "mode" in outs[0]
        assert list(tmp_path.iterdir()) == []
