"""benchmarks/check_regression.py: comparison output and input validation."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SCRIPT = REPO / "benchmarks" / "check_regression.py"


def bench_json(path: Path, benches):
    path.write_text(json.dumps({"benchmarks": benches}))
    return str(path)


def entry(name, mean):
    return {"name": name, "stats": {"mean": mean}}


def run(*argv):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *argv],
        capture_output=True,
        text=True,
        cwd=str(REPO),
    )


@pytest.fixture
def baseline(tmp_path):
    return bench_json(tmp_path / "baseline.json", [entry("bench_a", 0.100)])


class TestComparison:
    def test_clean_run_exits_zero(self, tmp_path, baseline):
        fresh = bench_json(tmp_path / "fresh.json", [entry("bench_a", 0.101)])
        proc = run(fresh, "--baseline", baseline)
        assert proc.returncode == 0
        assert "no regressions" in proc.stdout

    def test_regression_warns_but_does_not_gate(self, tmp_path, baseline):
        fresh = bench_json(tmp_path / "fresh.json", [entry("bench_a", 0.200)])
        proc = run(fresh, "--baseline", baseline)
        assert proc.returncode == 0  # informational by design
        assert "::warning" in proc.stdout
        assert "REGRESSION" in proc.stdout

    def test_disjoint_benchmarks(self, tmp_path, baseline):
        fresh = bench_json(tmp_path / "fresh.json", [entry("bench_b", 0.1)])
        proc = run(fresh, "--baseline", baseline)
        assert proc.returncode == 0
        assert "nothing compared" in proc.stdout


class TestMalformedInput:
    """A missing metric key must be a clear error, not a KeyError trace."""

    def test_missing_stats_key(self, tmp_path, baseline):
        fresh = bench_json(tmp_path / "fresh.json", [{"name": "bench_a"}])
        proc = run(fresh, "--baseline", baseline)
        assert proc.returncode == 2
        assert "KeyError" not in proc.stderr
        assert "bench_a" in proc.stderr
        assert "'stats'/'mean'" in proc.stderr

    def test_missing_mean_key(self, tmp_path, baseline):
        fresh = bench_json(
            tmp_path / "fresh.json", [{"name": "bench_a", "stats": {"median": 1}}]
        )
        proc = run(fresh, "--baseline", baseline)
        assert proc.returncode == 2
        assert "pytest-benchmark" in proc.stderr

    def test_nameless_entry_reported_by_position(self, tmp_path, baseline):
        fresh = bench_json(tmp_path / "fresh.json", [{"stats": {}}])
        proc = run(fresh, "--baseline", baseline)
        assert proc.returncode == 2
        assert "entry 0" in proc.stderr

    def test_malformed_baseline_also_caught(self, tmp_path):
        fresh = bench_json(tmp_path / "fresh.json", [entry("bench_a", 0.1)])
        bad = bench_json(tmp_path / "bad.json", [{"name": "bench_a"}])
        proc = run(fresh, "--baseline", bad)
        assert proc.returncode == 2
        assert "bad.json" in proc.stderr
