"""CLI-level tests for `zcover lint`: exit codes, JSON schema, golden file."""

import json
from pathlib import Path

from repro.cli import main
from repro.lint import SCHEMA_VERSION, run_lint

DATA = Path(__file__).resolve().parent / "data"
FIXTURE = DATA / "lint_fixture"
GOLDEN = DATA / "lint_golden.json"


def run_cli(capsys, *argv):
    code = main(["lint", *argv])
    return code, capsys.readouterr().out


class TestRealTree:
    def test_repo_is_clean(self):
        # The acceptance bar: the shipped tree has zero findings.
        report = run_lint()
        assert report.findings == []
        assert report.exit_code == 0

    def test_cli_exit_zero(self, capsys):
        code, out = run_cli(capsys)
        assert code == 0
        assert "no findings" in out


class TestGoldenFile:
    def test_json_output_matches_golden(self, capsys):
        code, out = run_cli(capsys, "--root", str(FIXTURE), "--format", "json")
        assert code == 1
        produced = json.loads(out)
        expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert produced == expected

    def test_schema_envelope(self, capsys):
        _, out = run_cli(capsys, "--root", str(FIXTURE), "--format", "json")
        doc = json.loads(out)
        assert doc["schema"] == "zcover-lint-findings"
        assert doc["version"] == SCHEMA_VERSION
        assert doc["errors"] == sum(
            1 for f in doc["findings"] if f["severity"] == "error"
        )
        assert doc["warnings"] == sum(
            1 for f in doc["findings"] if f["severity"] == "warning"
        )
        for f in doc["findings"]:
            assert set(f) == {
                "rule", "severity", "path", "line", "col", "message", "hint"
            }

    def test_findings_sorted(self, capsys):
        _, out = run_cli(capsys, "--root", str(FIXTURE), "--format", "json")
        doc = json.loads(out)
        keys = [(f["path"], f["line"], f["col"], f["rule"]) for f in doc["findings"]]
        assert keys == sorted(keys)


class TestSeededViolationsPerFamily:
    """Each rule family independently forces a non-zero exit."""

    GENERIC = "def g(registry, p):\n    registry.get(p.cmdcl)\n"

    def check(self, capsys, tmp_path, text, expected_rule):
        (tmp_path / "mod.py").write_text(text, encoding="utf-8")
        code, out = run_cli(capsys, "--root", str(tmp_path), "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert expected_rule in {f["rule"] for f in doc["findings"]}

    def test_determinism(self, capsys, tmp_path):
        self.check(
            capsys, tmp_path,
            self.GENERIC + "import random\nx = random.random()\n",
            "D101",
        )

    def test_conformance(self, capsys, tmp_path):
        self.check(
            capsys, tmp_path,
            self.GENERIC + "def h(p):\n    return p.cmdcl == 0xEE\n",
            "C201",
        )

    def test_wire_safety(self, capsys, tmp_path):
        self.check(
            capsys, tmp_path,
            self.GENERIC
            + "from dataclasses import dataclass\n"
            + "from typing import Any\n"
            + "@dataclass\nclass P:\n    x: Any\n",
            "W301",
        )


class TestSuppressions:
    def test_justified_allow_is_silent(self, capsys, tmp_path):
        (tmp_path / "mod.py").write_text(
            "def g(registry, p):\n"
            "    registry.get(p.cmdcl)\n"
            "import time\n"
            "t = time.time()  # lint: allow[D101] -- test fixture\n",
            encoding="utf-8",
        )
        code, out = run_cli(capsys, "--root", str(tmp_path))
        assert code == 0
        assert "no findings" in out

    def test_unjustified_allow_warns_but_passes(self, capsys, tmp_path):
        (tmp_path / "mod.py").write_text(
            "def g(registry, p):\n"
            "    registry.get(p.cmdcl)\n"
            "import time\n"
            "t = time.time()  # lint: allow[D101]\n",
            encoding="utf-8",
        )
        code, out = run_cli(capsys, "--root", str(tmp_path))
        assert code == 0
        assert "LINT001" in out


class TestRulesListing:
    def test_lists_every_family(self, capsys):
        code, out = run_cli(capsys, "--rules")
        assert code == 0
        for rule in ("D101", "D102", "D103", "C201", "C202", "C203", "C204",
                     "W301", "W302", "D201", "D202", "D203", "D204", "W401"):
            assert rule in out


class TestSarifOutput:
    def test_sarif_matches_golden(self, capsys):
        code, out = run_cli(capsys, "--root", str(FIXTURE), "--format", "sarif")
        assert code == 1
        produced = json.loads(out)
        expected = json.loads((DATA / "lint_golden.sarif").read_text(encoding="utf-8"))
        assert produced == expected

    def test_sarif_envelope(self, capsys):
        _, out = run_cli(capsys, "--root", str(FIXTURE), "--format", "sarif")
        doc = json.loads(out)
        assert doc["version"] == "2.1.0"
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "zcover-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"D101", "D201", "D204", "W401", "C201", "W301"} <= rule_ids
        for result in run["results"]:
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startColumn"] >= 1  # SARIF columns are 1-based

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "lint.sarif"
        code, out = run_cli(
            capsys, "--root", str(FIXTURE), "--format", "sarif",
            "--out", str(target),
        )
        assert code == 1
        assert "written to" in out
        assert json.loads(target.read_text(encoding="utf-8"))["version"] == "2.1.0"


class TestStrict:
    WARN_ONLY = (
        "def g(registry, p):\n"
        "    registry.get(p.cmdcl)\n"
        "import time\n"
        "t = time.time()  # lint: allow[D101]\n"
    )

    def test_strict_fails_on_warnings(self, capsys, tmp_path):
        (tmp_path / "mod.py").write_text(self.WARN_ONLY, encoding="utf-8")
        code, _ = run_cli(capsys, "--root", str(tmp_path), "--strict")
        assert code == 1

    def test_default_passes_on_warnings(self, capsys, tmp_path):
        (tmp_path / "mod.py").write_text(self.WARN_ONLY, encoding="utf-8")
        code, _ = run_cli(capsys, "--root", str(tmp_path))
        assert code == 0

    def test_real_tree_survives_strict(self, capsys):
        code, _ = run_cli(capsys, "--strict")
        assert code == 0


class TestManifestCli:
    GOLDEN_MANIFEST = DATA / "purity_manifest_golden.json"

    def test_write_matches_golden(self, capsys, tmp_path):
        target = tmp_path / "manifest.json"
        run_cli(
            capsys, "--root", str(FIXTURE), "--write-manifest", str(target)
        )
        assert target.read_text(encoding="utf-8") == self.GOLDEN_MANIFEST.read_text(
            encoding="utf-8"
        )

    def test_check_clean(self, capsys):
        code, out = run_cli(
            capsys, "--root", str(FIXTURE),
            "--check-manifest", str(self.GOLDEN_MANIFEST),
        )
        # Findings still fail the run (exit 1) but the manifest matches.
        assert code == 1
        assert "matches" in out

    def test_check_drift_exits_2(self, capsys, tmp_path):
        drifted = json.loads(self.GOLDEN_MANIFEST.read_text(encoding="utf-8"))
        drifted["entry_points"]["mod.py::dispatch"]["verdict"] = "pure-given-seed"
        stale = tmp_path / "manifest.json"
        stale.write_text(json.dumps(drifted), encoding="utf-8")
        code, out = run_cli(
            capsys, "--root", str(FIXTURE), "--check-manifest", str(stale)
        )
        assert code == 2
        assert "drift" in out
        assert "mod.py::dispatch" in out

    def test_check_unreadable_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        assert main(["lint", "--root", str(FIXTURE), "--check-manifest", str(missing)]) == 2
        message = f"zcover lint: [Errno 2] No such file or directory: '{missing}'"
        assert message in capsys.readouterr().err
