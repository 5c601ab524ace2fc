"""Diff fresh pytest-benchmark results against the committed baseline.

Usage::

    python benchmarks/check_regression.py bench-smoke.json \
        [--baseline benchmarks/BENCH_throughput.json] [--threshold 0.20]

Compares mean runtimes by benchmark name and prints one line per shared
benchmark. A slowdown at or past the threshold (default 20%) emits a
GitHub Actions ``::warning::`` annotation so it shows up on the run page.

Deliberately non-gating: shared CI runners are too noisy to fail merges
on, so the exit code is always 0 — the committed baseline
(``benchmarks/BENCH_throughput.json``) stays the reference for local,
quiet-machine comparisons.

The exceptions are the same-run ratio gates, where machine speed cancels
out and the ratios are stable enough to gate on:

- ``--stream-gate`` compares the streaming pipeline against the
  in-memory pipeline within the same fresh run; a ratio past the overhead
  bound exits non-zero and fails CI.
"""

from __future__ import annotations

import argparse
import json
import sys


class MetricsFormatError(Exception):
    """A benchmark JSON file is missing a key this script needs."""


def load_means(path: str) -> dict:
    """``{name: mean}`` per benchmark row, with loud format errors."""
    with open(path) as handle:
        data = json.load(handle)
    means = {}
    for position, bench in enumerate(data.get("benchmarks", [])):
        try:
            name = bench["name"]
            mean = bench["stats"]["mean"]
        except (KeyError, TypeError) as error:
            label = f"entry {position}"
            if isinstance(bench, dict) and "name" in bench:
                label = bench["name"]
            raise MetricsFormatError(
                f"{path}: benchmark {label!r} has no 'stats'/'mean' metric "
                "(is this pytest-benchmark JSON?)"
            ) from error
        means[name] = mean
    return means


#: Same-run ratio bounds for --stream-gate. The local quiet-machine ratio
#: is ~1.0x; the bound leaves headroom for runner jitter while still
#: catching a structural regression (an accidental extra decode, a
#: chunk-boundary quadratic).
STREAM_GATE_BENCHES = {"stream": "test_stream_throughput_from_file"}
STREAM_GATE_BASELINE = "test_inmemory_throughput_from_file"
STREAM_GATE_MAX = {"stream": 1.6}


def stream_gate(fresh: dict) -> int:
    """Gate streaming overhead on same-run ratios; returns an
    exit code (0 ok, 1 regression, 2 missing benchmarks)."""
    missing = sorted(
        name
        for name in [STREAM_GATE_BASELINE, *STREAM_GATE_BENCHES.values()]
        if name not in fresh
    )
    if missing:
        print(
            f"check_regression: --stream-gate needs benchmarks {missing} "
            "in the fresh results (run bench_throughput.py with "
            '-k "from_file")',
            file=sys.stderr,
        )
        return 2
    baseline = fresh[STREAM_GATE_BASELINE]
    failed = False
    for label, name in sorted(STREAM_GATE_BENCHES.items()):
        ratio = fresh[name] / baseline if baseline else 0.0
        bound = STREAM_GATE_MAX[label]
        ok = ratio <= bound
        print(
            f"{label:<8} {fresh[name] * 1000:9.2f}ms / "
            f"{baseline * 1000:9.2f}ms in-memory = {ratio:5.2f}x "
            f"(bound {bound:.1f}x) {'ok' if ok else '<-- REGRESSION'}"
        )
        if not ok:
            print(
                f"::error title=streaming overhead::{name} runs {ratio:.2f}x "
                f"the in-memory pipeline (bound {bound:.1f}x, same-run ratio)"
            )
            failed = True
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", help="fresh pytest-benchmark JSON")
    parser.add_argument(
        "--baseline",
        default="benchmarks/BENCH_throughput.json",
        help="committed baseline JSON (default: %(default)s)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="relative slowdown that triggers a warning (default: %(default)s)",
    )
    parser.add_argument(
        "--stream-gate",
        action="store_true",
        help="gate on same-run streaming overhead ratios "
        "(exits non-zero on regression; skips the baseline diff)",
    )
    args = parser.parse_args(argv)

    try:
        fresh = load_means(args.results)
        if args.stream_gate:
            return stream_gate(fresh)
        baseline = load_means(args.baseline)
    except MetricsFormatError as error:
        print(f"check_regression: {error}", file=sys.stderr)
        return 2  # malformed input is an error even though comparisons never gate
    shared = sorted(set(fresh) & set(baseline))
    if not shared:
        print("::warning::no benchmarks shared with the baseline; nothing compared")
        return 0

    regressions = []
    for name in shared:
        before, after = baseline[name], fresh[name]
        delta = (after - before) / before if before else 0.0
        marker = " <-- REGRESSION" if delta >= args.threshold else ""
        print(
            f"{name:<45} {before * 1000:9.2f}ms -> {after * 1000:9.2f}ms "
            f"({delta:+6.1%}){marker}"
        )
        if delta >= args.threshold:
            regressions.append((name, delta))

    only_fresh = sorted(set(fresh) - set(baseline))
    if only_fresh:
        print(f"(not in baseline: {', '.join(only_fresh)})")

    for name, delta in regressions:
        print(
            f"::warning title=benchmark regression::{name} is {delta:+.1%} "
            f"vs the committed baseline (threshold {args.threshold:.0%})"
        )
    if not regressions:
        print(f"no regressions >= {args.threshold:.0%} across {len(shared)} benchmarks")
    return 0  # informational only — never gate merges on shared-runner noise


if __name__ == "__main__":
    sys.exit(main())
