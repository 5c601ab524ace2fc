"""Self-test of the benchmark plumbing at a tiny cap (~1 minute).

    python3 -m pytest perfbench -q

Reference outputs for the tiny cap are made by the program itself, so
these tests check the benchmark, not the analysis: every named metric is
emitted with its unit, a wrong reference fails the run, traced self
times never sum past the traced wall, a checkout without the program
exits non-zero without a result, and the reference copies in
``expected/`` equal the committed ``results/``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import SELF_TIME  # noqa: E402
from tracer import attribute  # noqa: E402

CAP = 2000
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _env(work_root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["CARGO_TARGET_DIR"] = str(work_root)
    return env


@pytest.fixture(scope="module")
def expected(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("expected")
    subprocess.run(
        [sys.executable, "-m", "repro", "run", "table3", "table4", "fig8",
         "--cap", str(CAP), "--out", str(out)],
        cwd=ROOT, env=_env(out), check=True, capture_output=True, timeout=300,
    )
    return out


def _bench(workload: str, trace: int, expected: Path, work_root: Path, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--cap", str(CAP),
         "--expected", str(expected)],
        cwd=cwd, env=_env(work_root), capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, expected, tmp_path):
    code, result, proc = _bench(workload, trace, expected, tmp_path)
    assert code == 0, proc.stderr[-2000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        self_time = sum(values[m] for m in SELF_TIME.values())
        assert self_time <= values["traced_wall_s"] + 1e-9
        assert values["unattributed_s"] == pytest.approx(values["traced_wall_s"] - self_time)
    else:
        assert all(v > 0 for v in values.values())


def _corrupt(expected: Path, tmp_path: Path) -> Path:
    """A copy of the references whose Table 3 "Opt AP" column is wrong for
    every workload (a config no other table shares)."""
    wrong = tmp_path / "wrong"
    shutil.copytree(expected, wrong)
    lines = (wrong / "table3.csv").read_text().splitlines()
    column = lines[0].split(",").index("Opt AP")
    rows = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[column] = str(float(cells[column]) * 2 + 1)
        rows.append(",".join(cells))
    (wrong / "table3.csv").write_text("\n".join(rows) + "\n")
    return wrong


@pytest.mark.parametrize("workload", ["paper-cold", "serve-mixed"])
def test_a_wrong_reference_fails_the_run(workload, expected, tmp_path):
    code, result, _ = _bench(workload, 0, _corrupt(expected, tmp_path), tmp_path)
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_a_checkout_without_the_program_exits_nonzero(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result, _ = _bench("paper-cold", 0, bare / "perfbench" / "expected", tmp_path, bare)
    assert code != 0 and result is None


def test_reference_copies_match_the_committed_results():
    for copy in sorted((HERE / "expected").iterdir()):
        assert copy.read_bytes() == (ROOT / "results" / copy.name).read_bytes(), copy.name


def test_attribution_splits_concurrent_work_and_never_exceeds_the_window():
    spans = [
        # process 1, thread 1: a parent with one child
        ("parent", 1, 1, 0.0, 10.0, False, None),
        ("child", 1, 1, 2.0, 4.0, False, None),
        # process 2 runs alongside for 2..6
        ("worker", 2, 1, 2.0, 6.0, False, None),
        # a waiting client gets only the instants nobody works
        ("client", 3, 1, 0.0, 12.0, True, None),
    ]
    shares = attribute(spans, (0.0, 12.0))
    assert shares["child"] == pytest.approx(1.0)
    assert shares["worker"] == pytest.approx(1.0 + 1.0)
    assert shares["parent"] == pytest.approx(2.0 + 1.0 + 4.0)
    assert shares["client"] == pytest.approx(2.0)
    assert sum(shares.values()) == pytest.approx(12.0)
    clipped = attribute(spans, (3.0, 5.0))
    assert sum(clipped.values()) == pytest.approx(2.0)
