"""End-to-end benchmark of the paper's workload (see perfbench/README.md).

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). The line before it records the seed and the environment.
Exits 1 when any output differs from the reference tables, 2 when the
checkout has no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    PYTHON,
    Context,
    compare_outputs,
    environment_stamp,
    launch,
    source_digest,
)

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CAP = 250_000

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

#: Analysis jobs per suite workload in each experiment's grid.
GRID_CONFIGS = {"table3": 2, "table4": 4, "fig8": 9}
SUITE_SIZE = 10

#: experiment -> the files ``repro run --out`` writes for it.
OUTPUT_FILES = {
    "table3": ["table3.txt", "table3.csv"],
    "table4": ["table4.txt", "table4.csv"],
    "fig8": ["fig8.txt", "fig8.0.csv", "fig8.1.csv"],
}

#: Number of fresh interpreters whose start-up + import is timed for
#: paper-cold's set-up; the median is reported.
IMPORT_SAMPLES = 5


def paper(ctx: Context, experiments: List[str], jobs: int, warm: bool):
    """One ``repro run`` per unit, in a fresh process, repeated while
    ``--seconds`` have not elapsed; a traced run makes one unit under the
    layer shims instead. Cold units start from an empty trace directory;
    warm units share one filled during set-up."""
    trace_dir = ctx.work / "traces"
    if warm:
        prepare = subprocess.run(
            [PYTHON, ctx.script("prepare.py"), "--trace-dir", str(trace_dir),
             "--cap", str(ctx.cap)],
            cwd=ctx.work, env=ctx.env, capture_output=True, text=True, timeout=150,
        )
        if prepare.returncode != 0:
            raise RuntimeError(f"trace fill failed: {prepare.stdout}{prepare.stderr}")
        setup_s = json.loads(prepare.stdout.splitlines()[-1])["fill_s"]
    else:
        samples = []
        for _ in range(IMPORT_SAMPLES):
            start = time.monotonic()
            subprocess.run(
                [PYTHON, "-c", "import repro.harness.cli"], cwd=ctx.work, env=ctx.env,
                check=True, timeout=60,
            )
            samples.append(time.monotonic() - start)
        setup_s = median(samples)

    names = [name for experiment in experiments for name in OUTPUT_FILES[experiment]]
    grid_jobs = SUITE_SIZE * sum(GRID_CONFIGS[e] for e in experiments)
    tally = {"attempted": 0, "failed": 0, "errors": []}

    def unit(index: int, traced_spans: Optional[Path] = None):
        if not warm:
            shutil.rmtree(trace_dir, ignore_errors=True)
        out = ctx.work / f"out-{index}"
        argv = ["run", *experiments, "--jobs", str(jobs), "--cap", str(ctx.cap),
                "--trace-dir", str(trace_dir), "--out", str(out)]
        env = ctx.env
        if traced_spans is None:
            argv = [PYTHON, "-m", "repro"] + argv
        else:
            argv = [PYTHON, ctx.script("traced_main.py")] + argv
            env["PERFBENCH_SPANS"] = str(traced_spans)
            # The engine records queue waits in JobOutcome only with its
            # own metrics registry on.
            env["REPRO_METRICS"] = "1"
        result = launch(argv, ctx, ctx.work, ctx.work / f"log-{index}.txt", env)
        tally["attempted"] += len(names)
        if result.returncode != 0:
            tally["failed"] += len(names)
            tally["errors"].append(f"unit {index} exited {result.returncode}")
        else:
            bad = compare_outputs(out, ctx.expected, names)
            tally["failed"] += len(bad)
            tally["errors"].extend(f"unit {index}: {name} differs" for name in bad)
        return result

    if ctx.traced:
        spans = ctx.work / "spans"
        spans.mkdir()
        units = [unit(0, spans)]
        traced = (spans, (units[0].started, units[0].finished), {})
    else:
        units, traced = [], None
        deadline = time.monotonic() + ctx.seconds
        while not units or time.monotonic() < deadline:
            units.append(unit(len(units)))
    metrics = {
        "wall_s": median([u.wall_s for u in units]),
        "setup_s": setup_s,
        "cpu_s": median([u.cpu_s for u in units]),
        "peak_rss_mb": median([u.peak_rss_mb for u in units]),
    }
    return metrics, tally, {"units": len(units), "grid_jobs": grid_jobs}, traced


def serve_mixed(ctx: Context):
    import serve_mix

    session, setup, spans, plan = serve_mix.run(ctx)
    metrics = {
        "wall_s": session.wall_s,
        "setup_s": setup["setup_s"],
        "cpu_s": session.cpu_s,
        "peak_rss_mb": session.peak_rss_mb,
    }
    tally = {"attempted": session.attempted, "failed": session.failed, "errors": session.errors}
    classes = serve_mix.class_latencies(session)
    detail = {"requests": len(plan.requests), "setup": setup, "fetch_s": session.fetch_s, **classes}
    traced = None
    if spans is not None:
        latency_sum = sum(sum(values) for values in session.latencies.values())
        extra = {
            "serve.exec_s": session.exec_s,
            "serve.overhead_s": latency_sum - session.exec_s,
            "serve.result_bytes": float(session.result_bytes),
            "serve.dedupe_ratio": len(session.latencies["dup"]) / session.attempted,
            "serve.rejected": float(session.rejected),
            **classes,
        }
        traced = (spans, (session.start, session.end), extra)
    return metrics, tally, detail, traced


#: The state of the program's caches when the timed part starts.
CACHES_AT_START = {
    "paper-cold": {"trace_dir": "empty", "result_cache": "none"},
    "paper-warm": {"trace_dir": "filled", "result_cache": "none"},
    "serve-mixed": {"trace_dir": "filled", "result_cache": "prefilled", "server_traces": "loaded"},
}

WORKLOADS = {
    "paper-cold": lambda ctx: paper(ctx, ["table3", "table4"], jobs=1, warm=False),
    "paper-warm": lambda ctx: paper(ctx, ["table4", "fig8"], jobs=2, warm=True),
    "serve-mixed": serve_mixed,
}


def _report(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, dict]:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


class WallLog:
    """Untraced ``wall_s`` values of this checkout's code, kept beside the
    work directories: a traced run subtracts their median to report its
    tracing overhead (0 until an untraced run has been recorded)."""

    def __init__(self, path: Path, workload: str, cap: int, source: str):
        self.path = path
        self.key = {"workload": workload, "cap": cap, "source": source}

    def median(self) -> Optional[float]:
        if not self.path.exists():
            return None
        walls = []
        for line in self.path.read_text().splitlines():
            entry = json.loads(line)
            if all(entry.get(k) == v for k, v in self.key.items()):
                walls.append(entry["wall_s"])
        return median(walls) if walls else None

    def add(self, wall_s: float) -> None:
        with open(self.path, "a") as handle:
            handle.write(json.dumps({**self.key, "wall_s": wall_s}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP,
                        help="instruction cap (the reference tables are for the default)")
    parser.add_argument("--expected", default=str(Path(__file__).resolve().parent / "expected"),
                        help="directory of reference outputs (default: perfbench/expected)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    from layers import PER_LAYER, layer_metrics
    from tracer import load_spans

    work_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"perfbench-{args.workload}-", dir=work_root))
    source = source_digest(ROOT)
    walls = WallLog(work_root / "perfbench-walls.jsonl", args.workload, args.cap, source)
    run_workload = WORKLOADS[args.workload]

    ctx = Context(
        root=ROOT, work=work, expected=Path(args.expected).resolve(),
        seed=args.seed, seconds=args.seconds, cap=args.cap, traced=bool(args.trace),
    )
    try:
        metrics, tally, detail, traced = run_workload(ctx)
        if traced is None:
            walls.add(metrics["wall_s"])
        else:
            reference = walls.median()
            spans, window, extra = traced
            extra["error_rate"] = tally["failed"] / tally["attempted"]
            layers = layer_metrics(load_spans(str(spans)), window, reference, extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stamp = environment_stamp(ctx, args.workload, CACHES_AT_START[args.workload], source)
    stamp.update(detail=detail, errors=tally["errors"])
    if args.trace:
        stamp["traced_end_to_end"] = metrics
        stamp["untraced_wall_s_reference"] = reference
    print(json.dumps(stamp))
    correct = tally["failed"] == 0
    result = {
        "correct": correct,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": (
            _report(layers, dict(PER_LAYER)) if args.trace else _report(metrics, dict(END_TO_END))
        ),
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
