"""Paper-scale streaming smoke: analyze a multi-million-record trace
under a hard memory ceiling.

The paper analyzed 100M-instruction traces on a 16MB DECstation; the
streaming layer exists so this reproduction can do the paper-scale runs
without holding a decoded trace in memory. This script proves it:

1. the parent lazily writes a synthetic ~10M-record PGT2 trace to disk
   (records are generated on the fly — the parent never holds the trace
   either),
2. a child process pins its address space with ``RLIMIT_AS`` far below
   the decoded size of the trace and streams the analysis
   (:func:`repro.core.stream.stream_analyze_file`),
3. the child's ``repro.obs`` registry snapshot, throughput, and peak RSS
   are written to a metrics JSONL artifact, and the parent fails loudly
   if the child died (a whole-trace materialization under the ceiling
   dies on ``MemoryError``).

Usage::

    PYTHONPATH=src python benchmarks/scale_smoke.py \
        [--records 10000000] [--limit-mb 512] [--chunk-records 262144] \
        [--metrics scale-metrics.jsonl]
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.isa.opclasses import OpClass  # noqa: E402
from repro.trace.io import write_trace  # noqa: E402
from repro.trace.segments import DEFAULT_SEGMENTS  # noqa: E402
from repro.trace.synthetic import random_trace  # noqa: E402

#: One conservative-syscall firewall per this many records (~200 over 10M).
SYSCALL_EVERY = 50_000

#: The deterministic dependency pattern cycled to trace length. Prime, so
#: the cycle never phase-locks with chunk boundaries.
PATTERN_RECORDS = 4099


def generate_records(count):
    """Yield ``count`` records without materializing the trace: a fixed
    random dependency pattern cycled end to end, with a syscall record
    spliced in every :data:`SYSCALL_EVERY` instructions."""
    pattern = list(random_trace(3, PATTERN_RECORDS, syscall_fraction=0.0))
    syscall = (int(OpClass.SYSCALL), (), (), 0, -1)
    cycle = itertools.cycle(pattern)
    for index in range(count):
        if index and index % SYSCALL_EVERY == 0:
            yield syscall
        else:
            yield next(cycle)


def write_synthetic_trace(path, count):
    with open(path, "wb") as stream:
        return write_trace(stream, generate_records(count), DEFAULT_SEGMENTS, count)


def run_child(args):
    """Analyze the trace under RLIMIT_AS; exits non-zero on any failure."""
    limit = args.limit_mb * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    from repro.core.config import AnalysisConfig
    from repro.core.stream import stream_analyze_file
    from repro.obs import metrics as obs

    obs.enable()
    started = time.time()
    result = stream_analyze_file(
        args.child, AnalysisConfig(), chunk_records=args.chunk_records
    )
    elapsed = time.time() - started
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = {
        "records": result.records_processed,
        "seconds": round(elapsed, 3),
        "records_per_second": round(result.records_processed / elapsed),
        "peak_rss_kb": peak_rss_kb,
        "limit_mb": args.limit_mb,
        "chunk_records": args.chunk_records,
        "critical_path_length": result.critical_path_length,
        "parallelism": round(result.available_parallelism, 3),
    }
    if peak_rss_kb > args.limit_mb * 1024:
        raise SystemExit(
            f"peak RSS {peak_rss_kb}kB exceeded the {args.limit_mb}MB ceiling"
        )
    with open(args.metrics, "w") as handle:
        handle.write(json.dumps({"event": "scale_smoke", **summary}) + "\n")
        handle.write(
            json.dumps({"event": "registry", "registry": obs.registry().snapshot()})
            + "\n"
        )
    print(json.dumps(summary))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=10_000_000)
    parser.add_argument("--limit-mb", type=int, default=512)
    parser.add_argument("--chunk-records", type=int, default=262_144)
    parser.add_argument("--metrics", default="scale-metrics.jsonl")
    parser.add_argument("--keep-trace", help="write the trace here and keep it")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return run_child(args)

    workdir = None
    if args.keep_trace:
        path = args.keep_trace
    else:
        workdir = tempfile.TemporaryDirectory(prefix="paragraph-scale-")
        path = os.path.join(workdir.name, "scale.pgt2")
    try:
        started = time.time()
        write_synthetic_trace(path, args.records)
        wrote = time.time() - started
        size_mb = os.path.getsize(path) / (1024 * 1024)
        print(
            f"wrote {args.records} records ({size_mb:.0f}MB) in {wrote:.1f}s; "
            f"streaming under a {args.limit_mb}MB address-space ceiling"
        )
        child = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--child",
                path,
                "--limit-mb",
                str(args.limit_mb),
                "--chunk-records",
                str(args.chunk_records),
                "--metrics",
                args.metrics,
            ],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path[:1])},
        )
        if child.returncode != 0:
            print(
                "::error title=scale smoke::streaming analysis died under the "
                f"{args.limit_mb}MB ceiling (exit {child.returncode})",
                file=sys.stderr,
            )
            return 1
        print(f"metrics written to {args.metrics}")
        return 0
    finally:
        if workdir is not None:
            workdir.cleanup()


if __name__ == "__main__":
    sys.exit(main())
