"""Decoder robustness: a damaged PGT2 file decodes to the original trace
or raises :class:`TraceFormatError` — nothing else.

``POST /v1/traces`` hands untrusted bytes to these decoders, so every one
of them is fed byte-level mutants (flip, truncate, insert, delete) of a
valid file: the buffered tuple reader, the columnar reader with and
without NumPy, and the mmap chunked reader, whole and limited to the
first half of the records (a capped stream decodes only those, but must
still reject damage anywhere in the file).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace import io as trace_io
from repro.trace.chunked import iter_chunks
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import TraceFormatError, read_trace_file, write_trace_file
from repro.trace.synthetic import random_trace

#: Records per chunk for the mmap reader: small, so mutants land in
#: leading, middle and final chunks.
CHUNK_RECORDS = 16


@pytest.fixture(scope="module")
def original(tmp_path_factory):
    """A valid file's bytes, its records and segments, and the scratch path
    each mutant is written to."""
    trace = random_trace(seed=21, length=60, syscall_fraction=0.05)
    directory = tmp_path_factory.mktemp("decode-robustness")
    path = directory / "original.pgt"
    write_trace_file(path, trace)
    data = path.read_bytes()
    return data, list(trace.records), trace.segments, directory / "mutant.pgt"


def mutate(data: bytes, kind: str, position: int, value: int, span: int) -> bytes:
    position %= len(data) + (kind == "insert")
    if kind == "flip":
        return data[:position] + bytes([data[position] ^ (value or 1)]) + data[position + 1 :]
    if kind == "truncate":
        return data[:position]
    if kind == "insert":
        return data[:position] + bytes([value]) * span + data[position:]
    return data[:position] + data[position + span :]


def _decoders(path, count):
    """Each decoder as ``(callable, records expected)``; the callable
    returns ``(records, segment maps)``."""
    half = count // 2

    def buffered():
        trace = read_trace_file(path)
        return list(trace.records), [trace.segments]

    def columnar():
        trace = ColumnarTrace.from_file(path)
        return list(trace), [trace.segments]

    def chunked(limit=None):
        chunks = list(iter_chunks(path, CHUNK_RECORDS, limit=limit))
        return [record for chunk in chunks for record in chunk], [
            chunk.segments for chunk in chunks
        ]

    return {
        "read_trace_file": (buffered, count),
        "ColumnarTrace.from_file": (columnar, count),
        "iter_chunks": (chunked, count),
        "iter_chunks(limit)": (lambda: chunked(half), half),
    }


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["flip", "truncate", "insert", "delete"]),
    position=st.integers(0, 1 << 16),
    value=st.integers(0, 255),
    span=st.integers(1, 12),
    numpy_masked=st.booleans(),
)
def test_mutant_decodes_to_original_or_raises(
    original, kind, position, value, span, numpy_masked
):
    data, records, segments, path = original
    mutant = mutate(data, kind, position, value, span)
    path.write_bytes(mutant)
    with pytest.MonkeyPatch.context() as patch:
        if numpy_masked:
            patch.setattr(trace_io, "_np", None)
        for name, (decode, expected) in _decoders(path, len(records)).items():
            try:
                decoded, segment_maps = decode()
            except TraceFormatError:
                continue
            assert decoded == records[:expected] and all(
                seen == segments for seen in segment_maps
            ), f"{name} accepted a {kind} mutant at {position} as a different trace"
