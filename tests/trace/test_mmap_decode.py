"""PGT2 decode: mmap == buffered, byte for byte, or a loud error.

Two decoders turn a PGT2 file into columns: the buffered
``ColumnarTrace.from_file`` (one read, then ``scan_columns_fast``) and the
chunked reader ``iter_chunks``, which walks a read-only memory map. Both
use vectorized u32 column gathers when NumPy is present and the
per-record python scan otherwise. The decode path is not allowed to be a
semantics knob: every column must come out identical across decoders on
every workload, with or without NumPy, and a truncated or corrupted file
must raise :class:`TraceFormatError` before any partial trace escapes.
"""

import pytest

from repro.core.analyzer import analyze
from repro.core.config import AnalysisConfig
from repro.obs import metrics as obs
from repro.obs.metrics import MetricsRegistry
from repro.trace import io as trace_io
from repro.trace.chunked import iter_chunks
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import TraceFormatError, write_trace_file
from repro.trace.synthetic import TraceBuilder, random_trace

COLUMNS = (
    "opclass",
    "flags",
    "aux",
    "src_offsets",
    "src_values",
    "dest_offsets",
    "dest_values",
)


def assert_same_columns(left: ColumnarTrace, right: ColumnarTrace):
    for name in COLUMNS:
        assert bytes(memoryview(getattr(left, name))) == bytes(
            memoryview(getattr(right, name))
        ), name
    assert left.segments == right.segments
    assert left.digest() == right.digest()


def mmap_decode(path) -> ColumnarTrace:
    """The whole file decoded as one chunk of the mmap-backed reader."""
    (chunk,) = iter_chunks(path, 1 << 30)
    return chunk


def write_tmp(tmp_path, trace, name="t.pgt"):
    path = tmp_path / name
    write_trace_file(path, trace)
    return path


class TestMmapMatchesBuffered:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_traces(self, tmp_path, seed):
        trace = random_trace(seed=seed, length=500, syscall_fraction=0.05)
        path = write_tmp(tmp_path, trace, f"r{seed}.pgt")
        assert_same_columns(
            mmap_decode(path), ColumnarTrace.from_file(path)
        )

    def test_every_suite_workload(self, tmp_path, workload_traces):
        """The acceptance property: mmap decode equals buffered decode
        byte-for-byte on every suite workload."""
        for name, trace in workload_traces.items():
            path = write_tmp(tmp_path, trace, f"{name}.pgt")
            assert_same_columns(
                mmap_decode(path), ColumnarTrace.from_file(path)
            )

    def test_empty_trace(self, tmp_path):
        path = write_tmp(tmp_path, TraceBuilder().build())
        assert list(iter_chunks(path)) == []
        assert len(ColumnarTrace.from_file(path)) == 0

    def test_decoded_trace_analyzes_identically(self, tmp_path):
        buffer = random_trace(seed=9, length=400, syscall_fraction=0.03)
        path = write_tmp(tmp_path, buffer)
        via_mmap = analyze(mmap_decode(path), AnalysisConfig())
        via_file = analyze(ColumnarTrace.from_file(path), AnalysisConfig())
        assert via_mmap.critical_path_length == via_file.critical_path_length
        assert via_mmap.placed_operations == via_file.placed_operations

    def test_python_fallback_decode_identical(self, tmp_path, monkeypatch):
        """With NumPy masked out, scan_columns_fast degrades to the pure
        python reference scan — same columns, same digest check."""
        trace = random_trace(seed=4, length=300, syscall_fraction=0.05)
        path = write_tmp(tmp_path, trace)
        with_numpy = ColumnarTrace.from_file(path)
        monkeypatch.setattr(trace_io, "_np", None)
        assert_same_columns(ColumnarTrace.from_file(path), with_numpy)
        assert_same_columns(mmap_decode(path), with_numpy)


class TestLoudErrors:
    """No partial traces: a bad file raises before any columns escape."""

    @pytest.fixture
    def good_file(self, tmp_path):
        trace = random_trace(seed=5, length=200, syscall_fraction=0.05)
        return write_tmp(tmp_path, trace)

    def test_truncated_file(self, good_file):
        data = good_file.read_bytes()
        good_file.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceFormatError):
            ColumnarTrace.from_file(good_file)

    def test_corrupt_payload_fails_digest(self, good_file):
        data = bytearray(good_file.read_bytes())
        data[len(data) // 2] ^= 0xFF
        good_file.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="stale or corrupted"):
            ColumnarTrace.from_file(good_file)

    def test_trailing_garbage_fails_digest(self, good_file):
        good_file.write_bytes(good_file.read_bytes() + b"\x00" * 16)
        with pytest.raises(TraceFormatError):
            ColumnarTrace.from_file(good_file)

    def test_bad_magic(self, good_file):
        data = bytearray(good_file.read_bytes())
        data[:4] = b"NOPE"
        good_file.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="bad magic"):
            ColumnarTrace.from_file(good_file)

    def test_corrupt_python_fallback_also_loud(self, good_file, monkeypatch):
        data = bytearray(good_file.read_bytes())
        data[len(data) // 2] ^= 0xFF
        good_file.write_bytes(bytes(data))
        monkeypatch.setattr(trace_io, "_np", None)
        with pytest.raises(TraceFormatError):
            ColumnarTrace.from_file(good_file)


class TestScanColumnsFast:
    def test_matches_reference_scan(self):
        import io as stdio

        trace = random_trace(seed=6, length=250, syscall_fraction=0.05)
        stream = stdio.BytesIO()
        trace_io.write_trace(stream, trace.records, trace.segments, len(trace))
        payload = stream.getvalue()[trace_io._HEADER.size :]
        fast = trace_io.scan_columns_fast(payload, len(trace))
        slow = trace_io.scan_columns(payload, len(trace))
        assert fast == slow

    def test_heads_walk_then_gather(self):
        import io as stdio

        if trace_io._np is None:
            pytest.skip("NumPy is not installed")
        trace = random_trace(seed=7, length=120, syscall_fraction=0.05)
        stream = stdio.BytesIO()
        trace_io.write_trace(stream, trace.records, trace.segments, len(trace))
        payload = stream.getvalue()[trace_io._HEADER.size :]
        heads = trace_io.walk_record_heads(payload, len(trace))
        assert heads[0] == 0 and heads[-1] == len(payload)
        columns = trace_io.gather_columns(payload, heads, len(trace))
        assert columns == trace_io.scan_columns(payload, len(trace))


class TestFallbackCounters:
    """The pure-python decode is the one numpy/python choice left in the
    stack; every time it is taken, a counter records why."""

    PREFIX = "trace_decode.fallback."

    @pytest.fixture
    def registry(self):
        previous = obs.registry()
        registry = MetricsRegistry()
        obs.set_registry(registry)
        yield registry
        obs.set_registry(previous)

    def fallbacks(self, registry):
        counters = registry.snapshot()["counters"]
        return {
            name[len(self.PREFIX) :]: value
            for name, value in counters.items()
            if name.startswith(self.PREFIX) and value
        }

    def test_numpy_masked_counts_each_decode(self, tmp_path, monkeypatch, registry):
        path = write_tmp(tmp_path, random_trace(seed=4, length=300))
        monkeypatch.setattr(trace_io, "_np", None)
        ColumnarTrace.from_file(path)
        mmap_decode(path)
        assert self.fallbacks(registry) == {"no_numpy": 2}

    @pytest.mark.skipif(trace_io._np is None, reason="NumPy is not installed")
    def test_numpy_present_never_falls_back(self, tmp_path, registry):
        path = write_tmp(tmp_path, random_trace(seed=4, length=300))
        ColumnarTrace.from_file(path)
        mmap_decode(path)
        assert self.fallbacks(registry) == {}

    @pytest.mark.skipif(trace_io._np is None, reason="NumPy is not installed")
    def test_ragged_tail_counted(self, registry):
        with pytest.raises(TraceFormatError):
            trace_io.scan_columns_fast(b"\x00" * 5, 1)
        assert self.fallbacks(registry) == {"ragged_tail": 1}
