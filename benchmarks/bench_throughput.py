"""Tool throughput microbenchmarks (the paper quotes ~10 hours per 100M-
instruction analysis on a DECstation 3100; these measure our stack).

The ``test_analyze_throughput_*`` rows time the production analyzer, one
row per kernel family, on the same 100k-record espressox columnar trace;
the committed baseline numbers live in ``benchmarks/BENCH_throughput.json``. To refresh
it after kernel work::

    PYTHONPATH=src python -m pytest benchmarks/bench_throughput.py \\
        --benchmark-json=benchmarks/BENCH_throughput.json -q
"""

import resource

import pytest

from repro.core.analyzer import analyze
from repro.core.config import AnalysisConfig
from repro.core.stream import stream_analyze_file
from repro.cpu.machine import Machine
from repro.trace.columnar import ColumnarTrace
from repro.workloads.suite import load_workload

@pytest.fixture(scope="module")
def bench_trace(store):
    return store.trace("espressox", 100_000)


@pytest.fixture(scope="module")
def bench_columnar(store):
    trace = store.columnar("espressox", 100_000)
    # Trace statistics are cached per trace, not part of a kernel run.
    trace.census()
    trace.operand_counts()
    return trace


def test_analyze_throughput_dataflow(benchmark, bench_columnar):
    result = benchmark(analyze, bench_columnar, AnalysisConfig())
    assert result.records_processed == 100_000


def test_analyze_throughput_windowed(benchmark, bench_columnar):
    result = benchmark(analyze, bench_columnar, AnalysisConfig(window_size=1024))
    assert result.records_processed == 100_000


def test_analyze_throughput_generic(benchmark, bench_columnar):
    result = benchmark(analyze, bench_columnar, AnalysisConfig.no_renaming())
    assert result.records_processed == 100_000


def test_columnar_decode_from_file(benchmark, store, bench_trace):
    path, _ = store.ensure_on_disk("espressox", 100_000)
    trace = benchmark(ColumnarTrace.from_file, path)
    benchmark.extra_info["decode"] = "buffered"
    assert len(trace) == 100_000


# --- streaming vs in-memory -------------------------------------------------
# Same trace (cc1x@100k), same dataflow config, two pipelines: whole-file
# decode + analyze, and chunked frontier streaming. check_regression.py
# --stream-gate turns the same-run ratio into a gating bound on streaming
# overhead (machine speed cancels out).


@pytest.fixture(scope="module")
def stream_file(store):
    path, _ = store.ensure_on_disk("cc1x", 100_000)
    return path


def _record_peak_rss(benchmark):
    benchmark.extra_info["peak_rss_kb"] = resource.getrusage(
        resource.RUSAGE_SELF
    ).ru_maxrss


def test_inmemory_throughput_from_file(benchmark, stream_file):
    def run():
        return analyze(ColumnarTrace.from_file(stream_file), AnalysisConfig())

    result = benchmark(run)
    _record_peak_rss(benchmark)
    assert result.records_processed == 100_000


def test_stream_throughput_from_file(benchmark, stream_file):
    result = benchmark(
        stream_analyze_file, stream_file, AnalysisConfig(), chunk_records=16_384
    )
    _record_peak_rss(benchmark)
    assert result.records_processed == 100_000


def test_simulator_throughput(benchmark):
    program = load_workload("espressox").program()

    def run():
        machine = Machine(program, trace=True)
        return machine.run(max_instructions=100_000)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.executed == 100_000


def test_compiler_throughput(benchmark):
    from repro.lang.compiler import compile_source

    source = load_workload("spice2g6x").source()
    program = benchmark(compile_source, source, static_frames=True)
    assert len(program.instructions) > 100
