"""Tests for report rendering and the CLI."""

import pytest

from repro.analysis.report import (
    FIGURE5_CLASS_IDS,
    figure5_series,
    render_figure5,
    render_figure12,
    render_table,
    render_table2,
    render_table3,
    render_table4,
    render_table6,
)
from repro.cli import build_parser, main
from repro.core.campaign import Mode, run_campaign
from repro.core.properties import ControllerProperties


class TestGenericRenderer:
    def test_aligns_columns(self):
        table = render_table(("A", "BB"), [("1", "2"), ("333", "4")])
        lines = table.splitlines()
        assert len({line.index("|") for line in lines if "|" in line}) == 1

    def test_title_first(self):
        table = render_table(("A",), [("1",)], title="My Table")
        assert table.splitlines()[0] == "My Table"


class TestStaticTables:
    def test_table2_lists_nine_devices(self):
        table = render_table2()
        for idx in ("D1", "D5", "D8", "D9"):
            assert idx in table
        assert "ZooZ" in table and "Schlage" in table

    def test_table3_lists_fifteen_bugs_and_cves(self):
        table = render_table3()
        assert "CVE-2024-50929" in table
        assert "CVE-2023-6533" in table
        assert table.count("0x01") >= 7
        assert "Infinite" in table and "68 sec" in table and "4 min" in table

    def test_table3_with_measurements(self):
        table = render_table3({7: ("69 sec", 123.0, 456)})
        assert "t=123s pkt=456" in table

    def test_table4_formats_properties(self):
        props = ControllerProperties(
            home_id=0xE7DE3F3D,
            controller_node_id=1,
            listed_cmdcls=tuple(range(0x20, 0x31)),
            validated_unknown=tuple(range(0x40, 0x5A)),
            proprietary=(0x01, 0x02),
        )
        table = render_table4({"D1": props})
        assert "E7DE3F3D" in table
        assert "17 CMDCLs" in table
        assert "28 CMDCLs" in table


class TestFigure5:
    def test_series_matches_paper(self, full_registry):
        counts = [c for _, c in figure5_series(full_registry)]
        assert counts == [23, 15, 11, 10, 8, 7, 6, 6, 5, 4, 3, 2, 2, 1, 1, 0]

    def test_sixteen_classes_selected(self):
        assert len(FIGURE5_CLASS_IDS) == 16

    def test_render_contains_bars(self, full_registry):
        chart = render_figure5(full_registry)
        assert "#" * 23 in chart
        assert "NETWORK_MANAGEMENT_INCLUSION" in chart


class TestFigure12AndTable6:
    @pytest.fixture(scope="class")
    def short_campaign(self):
        return run_campaign("D1", Mode.FULL, duration=600.0, seed=0)

    def test_figure12_marks_discoveries(self, short_campaign):
        rendered = render_figure12(short_campaign)
        assert "X bug#" in rendered
        assert "packets" in rendered

    def test_table6_renders_all_modes(self, short_campaign):
        table = render_table6({Mode.FULL: short_campaign})
        assert "ZCover full" in table
        assert "ZCover beta" in table  # rendered with '-' placeholder
        assert str(short_campaign.unique_vulnerabilities) in table


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        for argv in (
            ["scan"],
            ["discover", "--device", "D3"],
            ["fuzz", "--hours", "0.1"],
            ["ablation"],
            ["compare", "--devices", "D1"],
            ["table", "--which", "2"],
            ["figure", "--which", "5"],
        ):
            assert parser.parse_args(argv) is not None

    def test_invalid_device_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["scan", "--device", "D8"])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "1h"])
    @pytest.mark.parametrize(
        "command, option",
        [("fuzz", "--hours"), ("sniff", "--seconds"), ("ids", "--train-seconds")],
    )
    def test_duration_must_be_positive_and_finite(self, command, option, value, capsys):
        # An infinite duration never returns; NaN freezes the simulated clock.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, f"{option}={value}"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"zcover {command}: error: argument {option}: "
            f"must be a positive finite number, got {value!r}"
        )

    def test_scan_smoke(self, capsys):
        assert main(["scan", "--device", "D1"]) == 0
        out = capsys.readouterr().out
        assert "E7DE3F3D" in out
        assert "listed CMDCLs (17)" in out

    def test_discover_smoke(self, capsys):
        assert main(["discover", "--device", "D3"]) == 0
        out = capsys.readouterr().out
        assert "unknown CMDCLs : 30" in out

    def test_fuzz_smoke(self, capsys, tmp_path):
        log_path = tmp_path / "bugs.jsonl"
        assert main(["fuzz", "--hours", "0.05", "--log", str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "packets sent" in out
        assert log_path.exists()

    def test_fuzz_json_export(self, capsys, tmp_path):
        import json

        json_path = tmp_path / "campaign.json"
        assert main(["fuzz", "--hours", "0.05", "--json", str(json_path)]) == 0
        data = json.loads(json_path.read_text())
        assert data["device"] == "D1"
        assert data["fingerprint"]["home_id"] == "E7DE3F3D"

    def test_table_smoke(self, capsys):
        assert main(["table", "--which", "3"]) == 0
        assert "CVE-2024-50929" in capsys.readouterr().out

    def test_figure5_smoke(self, capsys):
        assert main(["figure", "--which", "5"]) == 0
        assert "command distribution" in capsys.readouterr().out

    def test_sniff_and_replay_smoke(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["sniff", "--seconds", "60", "--out", str(trace), "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "saved" in out and "E7DE3F3D" in out
        assert main(["replay", str(trace), "--limit", "3"]) == 0
        assert "E7DE3F3D" in capsys.readouterr().out

    def test_triage_smoke(self, capsys, tmp_path):
        log = tmp_path / "bugs.jsonl"
        main(["fuzz", "--hours", "0.05", "--log", str(log)])
        capsys.readouterr()
        assert main(["triage", "--log", str(log)]) == 0
        assert "Triage report" in capsys.readouterr().out

    def test_trials_smoke(self, capsys):
        assert main(["trials", "--trials", "2", "--hours", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "trials of" in out and "found in every trial" in out

    def test_ids_smoke(self, capsys):
        assert main(["ids", "--device", "D1", "--train-seconds", "3600"]) == 0
        out = capsys.readouterr().out
        assert "trained on" in out
        assert "detected 4/4" in out

    def test_report_smoke(self, capsys, tmp_path):
        report = tmp_path / "report.md"
        svg = tmp_path / "fig.svg"
        assert main([
            "report", "--hours", "0.1", "--out", str(report), "--svg", str(svg)
        ]) == 0
        assert report.exists() and "ZCover campaign report" in report.read_text()
        assert svg.exists() and svg.read_text().startswith("<svg")
