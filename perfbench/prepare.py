"""Set-up steps that run in a fresh process of their own.

    python3 perfbench/prepare.py --trace-dir D --cap N [--result-cache C --prefill specs.json]

Fills the trace directory through ``TraceStore.ensure_on_disk`` for every
suite workload, then (optionally) analyzes the prefill specs into the
result cache through the engine. Prints one JSON line per step, with
its timing, as soon as the step is done.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-dir", required=True)
    parser.add_argument("--cap", type=int, required=True)
    parser.add_argument("--result-cache")
    parser.add_argument("--prefill", help="JSON list of job specs to analyze into the cache")
    args = parser.parse_args()

    from repro.harness.runner import TraceStore
    from repro.workloads.suite import SUITE_NAMES

    store = TraceStore(args.trace_dir)
    start = time.perf_counter()
    for name in SUITE_NAMES:
        store.ensure_on_disk(name, args.cap)
    print(json.dumps({"fill_s": time.perf_counter() - start}), flush=True)

    if args.prefill:
        from repro.engine.api import ExperimentEngine
        from repro.serve.service import job_from_spec

        with open(args.prefill) as handle:
            jobs = [job_from_spec(spec) for spec in json.load(handle)]
        start = time.perf_counter()
        engine = ExperimentEngine(store=store, jobs=1, result_cache=args.result_cache)
        failed = [o.error for o in engine.run_grid(jobs) if not o.ok]
        if failed:
            print(json.dumps({"prefill_errors": failed[:5]}), file=sys.stderr)
            return 1
        print(json.dumps({"prefill_s": time.perf_counter() - start, "prefilled": len(jobs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
