"""Bounded-memory PGT2 access: chunk streaming."""

import os

import pytest

from repro.core.stream import stream_analyze_file
from repro.trace.chunked import iter_chunks
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import (
    _HEADER,
    _digest_hasher,
    TraceFormatError,
    read_header,
    write_trace_file,
)
from repro.trace.synthetic import TraceBuilder, random_trace


@pytest.fixture
def trace():
    return random_trace(7, 200, syscall_fraction=0.05)


@pytest.fixture
def trace_path(tmp_path, trace):
    path = str(tmp_path / "t.pgt2")
    write_trace_file(path, trace)
    return path


def _flip_byte(path, offset):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


def _rewrite_count(path, count):
    """Claim ``count`` records in the header, with a digest that matches
    the (unchanged) payload under that claim."""
    with open(path, "r+b") as handle:
        segments, _, _ = read_header(handle)
        payload = handle.read()
        hasher = _digest_hasher(segments, count)
        hasher.update(payload)
        handle.seek(0)
        raw = bytearray(handle.read(_HEADER.size))
        fields = list(_HEADER.unpack(bytes(raw)))
        fields[5] = count
        fields[6] = hasher.digest()
        handle.seek(0)
        handle.write(_HEADER.pack(*fields))


class TestIterChunks:
    @pytest.mark.parametrize("chunk_records", [1, 7, 64, 200, 1000])
    def test_chunks_reassemble_the_trace(self, trace_path, trace, chunk_records):
        records = []
        for chunk in iter_chunks(trace_path, chunk_records):
            assert isinstance(chunk, ColumnarTrace)
            assert len(chunk.opclass) <= chunk_records
            records.extend(chunk.to_buffer())
        assert records == list(trace)

    @pytest.mark.parametrize("limit", [0, 1, 50, 64, 199, 200, 1000])
    def test_limit_yields_the_head(self, trace_path, trace, limit):
        records = []
        for chunk in iter_chunks(trace_path, 7, limit=limit):
            assert len(chunk.opclass) <= 7
            records.extend(chunk.to_buffer())
        assert records == list(trace)[:limit]

    def test_empty_trace(self, tmp_path):
        path = str(tmp_path / "empty.pgt2")
        write_trace_file(path, TraceBuilder().build())
        assert list(iter_chunks(path, 64)) == []
        assert list(iter_chunks(path, 64, limit=10)) == []

    def test_corrupted_payload_raises_before_last_chunk(self, trace_path):
        _flip_byte(trace_path, os.path.getsize(trace_path) - 3)
        with pytest.raises(TraceFormatError, match="digest mismatch"):
            list(iter_chunks(trace_path, 64))

    def test_truncated_file_raises(self, trace_path):
        size = os.path.getsize(trace_path)
        with open(trace_path, "r+b") as handle:
            handle.truncate(size - 5)
        with pytest.raises(TraceFormatError, match="truncated"):
            list(iter_chunks(trace_path, 64))

    @pytest.mark.parametrize("limit", [0, 10, 199])
    def test_corrupted_payload_past_the_limit_raises(self, trace_path, limit):
        _flip_byte(trace_path, os.path.getsize(trace_path) - 3)
        with pytest.raises(TraceFormatError, match="digest mismatch"):
            list(iter_chunks(trace_path, 64, limit=limit))

    @pytest.mark.parametrize("delta", [-1, 1, "zero"])
    def test_header_count_disagreeing_with_payload_raises(
        self, trace_path, trace, delta
    ):
        # "zero": a header claiming no records over a non-empty payload
        # must not read as an empty trace.
        count = 0 if delta == "zero" else len(trace) + delta
        _rewrite_count(trace_path, count)
        with pytest.raises(TraceFormatError, match="trailing bytes|truncated"):
            list(iter_chunks(trace_path, 64))
        with pytest.raises(TraceFormatError):
            ColumnarTrace.from_file(trace_path)

    def test_rejects_bad_chunk_size(self, trace_path):
        with pytest.raises(ValueError, match="chunk_records"):
            list(iter_chunks(trace_path, 0))

    def test_rejects_negative_limit(self, trace_path):
        with pytest.raises(ValueError, match="limit"):
            list(iter_chunks(trace_path, 64, limit=-1))


class TestCappedStream:
    """A capped stream decodes only the head but verifies the whole file."""

    @pytest.mark.parametrize("cap", [1, 50, 199])
    def test_corruption_past_the_cap_raises(self, trace_path, cap):
        _flip_byte(trace_path, os.path.getsize(trace_path) - 3)
        with pytest.raises(TraceFormatError, match="digest mismatch"):
            stream_analyze_file(trace_path, cap=cap, chunk_records=16)
