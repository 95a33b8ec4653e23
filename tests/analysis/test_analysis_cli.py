"""CLI behaviour: exit codes, JSON schema stability, cache, self-hosting."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import REPORT_SCHEMA_VERSION, ResultCache, analyze_paths
from repro.analysis.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

CLEAN = "import numpy as np\n\n\ndef draw(rng):\n    return rng.random()\n"
DIRTY = "import numpy as np\n\nrng = np.random.default_rng()\n"

# The schema is a published contract (CI parses it): changing either set
# below requires bumping REPORT_SCHEMA_VERSION.
TOP_LEVEL_KEYS = {
    "schema_version",
    "analyzer_version",
    "paths",
    "files_scanned",
    "rules",
    "counts",
    "findings",
}
FINDING_KEYS = {
    "rule",
    "path",
    "line",
    "col",
    "message",
    "status",
    "justification",
    "snippet",
    "tier",
}
RULE_ENTRY_KEYS = {"id", "title", "tier"}


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr().out
    return code, out


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        code, _ = run_cli([tmp_path, "--no-cache"], capsys)
        assert code == 0

    def test_open_findings_exit_one(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(DIRTY)
        code, out = run_cli([tmp_path, "--no-cache"], capsys)
        assert code == 1
        assert "DET001" in out

    def test_no_paths_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_list_rules_exits_zero(self, capsys):
        code, out = run_cli(["--list-rules"], capsys)
        assert code == 0
        listed = [line.split()[0] for line in out.splitlines() if line[:1] != " "]
        assert sorted(listed) == [
            "ABI001",
            "CONC001",
            "DET001",
            "DET002",
            "DET003",
            "DET004",
            "NUM001",
            "PRIV002",
            "PRIV003",
        ]

    @pytest.mark.parametrize("option", ["--baseline", "--write-baseline"])
    def test_baseline_options_are_gone(self, tmp_path, monkeypatch, option):
        """A pragma is the only way to accept a finding: no option marks
        open findings as grandfathered."""
        monkeypatch.chdir(tmp_path)  # where a baseline would have been written
        (tmp_path / "bad.py").write_text(DIRTY)
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path), "--no-cache", option])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "name", ["nonexistent_dir", "missing.py", "notes.txt"]
    )
    def test_path_that_is_not_python_is_usage_error(
        self, tmp_path, capsys, name
    ):
        (tmp_path / "notes.txt").write_text("not python\n")
        target = tmp_path / name
        with pytest.raises(SystemExit) as excinfo:
            main([str(target), "--no-cache"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"not a python file or directory: {target}" in err

    def test_jobs_must_be_positive(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path), "--no-cache", "--jobs", "0"])
        assert excinfo.value.code == 2


class TestJsonSchema:
    def test_schema_version_and_keys_are_stable(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(DIRTY)
        code, out = run_cli([tmp_path, "--no-cache", "--format", "json"], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION == 3
        assert set(payload) == TOP_LEVEL_KEYS
        assert payload["counts"] == {"open": 1, "suppressed": 0}
        (finding,) = payload["findings"]
        assert set(finding) == FINDING_KEYS
        assert finding["rule"] == "DET001"
        assert finding["status"] == "open"
        assert finding["tier"] == "ast"
        for rule_entry in payload["rules"]:
            assert set(rule_entry) == RULE_ENTRY_KEYS
            assert rule_entry["tier"] in ("ast", "flow")
        assert {r["tier"] for r in payload["rules"]} == {"ast", "flow"}

    def test_json_is_deterministic_across_runs(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(DIRTY)
        (tmp_path / "ok.py").write_text(CLEAN)
        _, first = run_cli([tmp_path, "--no-cache", "--format", "json"], capsys)
        _, second = run_cli([tmp_path, "--no-cache", "--format", "json"], capsys)
        assert first == second


class TestCache:
    def test_second_run_hits_cache_and_edit_invalidates(self, tmp_path):
        target = tmp_path / "bad.py"
        target.write_text(DIRTY)
        cache_file = tmp_path / "cache.json"

        cache = ResultCache(cache_file)
        first = analyze_paths([tmp_path], cache=cache)
        cache.save()
        assert (first.cache_hits, first.cache_misses) == (0, 1)

        cache = ResultCache(cache_file)
        second = analyze_paths([tmp_path], cache=cache)
        cache.save()
        assert (second.cache_hits, second.cache_misses) == (1, 0)
        assert [f.to_dict() for f in second.findings] == [
            f.to_dict() for f in first.findings
        ]

        target.write_text(DIRTY + "x = 1\n")
        cache = ResultCache(cache_file)
        third = analyze_paths([tmp_path], cache=cache)
        assert (third.cache_hits, third.cache_misses) == (0, 1)


#: Everything the CI analysis job sweeps (PR 10 widened it from src+tests).
GATE_PATHS = ("src", "tests", "benchmarks", "examples")


class TestSelfHosted:
    def test_repo_src_and_tests_are_clean(self):
        """The CI gate, run in-process: no open findings over the repo."""
        report = analyze_paths(
            [REPO_ROOT / p for p in GATE_PATHS],
            cache=None,
            root=REPO_ROOT,
        )
        open_findings = [f for f in report.findings if f.status == "open"]
        assert open_findings == [], "\n".join(
            f"{f.path}:{f.line}: {f.rule} {f.message}" for f in open_findings
        )
        assert report.exit_code == 0
        # Every suppression in the tree carries a justification.
        for finding in report.findings:
            if finding.status == "suppressed":
                assert finding.justification, finding

    def test_cli_subprocess_over_repo(self):
        """End-to-end: the exact command CI runs, exit 0 with parseable JSON."""
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.analysis",
                *GATE_PATHS,
                "--no-cache",
                "--format",
                "json",
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["counts"]["open"] == 0
        assert payload["files_scanned"] > 100

    def test_jobs_run_matches_serial_run(self, tmp_path):
        """--jobs parallelism may not change the finding set (order incl.)."""
        serial = analyze_paths(
            [REPO_ROOT / "src" / "repro" / "analysis"],
            cache=None,
            root=REPO_ROOT,
        )
        parallel = analyze_paths(
            [REPO_ROOT / "src" / "repro" / "analysis"],
            cache=None,
            root=REPO_ROOT,
            jobs=2,
        )
        assert [f.to_dict() for f in parallel.findings] == [
            f.to_dict() for f in serial.findings
        ]
        assert parallel.files_scanned == serial.files_scanned
