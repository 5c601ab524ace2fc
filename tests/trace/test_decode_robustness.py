"""Decoder robustness: a damaged PGT2 file decodes to the original trace
or raises :class:`TraceFormatError` — nothing else.

``POST /v1/traces`` hands untrusted bytes to these decoders, so every one
of them is fed byte-level mutants (flip, truncate, insert, delete) of a
valid file: the buffered tuple reader, the columnar reader with and
without NumPy, the mmap chunked reader, and the shard-slice reader (given
the slice geometry and digest of the original file, as a stitch worker
would be after the file changed under it).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace import io as trace_io
from repro.trace.chunked import decode_slice, iter_chunks
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import TraceFormatError, read_header, read_trace_file, write_trace_file
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
    with open(path, "rb") as stream:
        segments, count, digest = read_header(stream)
        offset = stream.tell()
    data = path.read_bytes()
    geometry = (offset, len(data) - offset, count, segments, digest)
    return data, list(trace.records), trace.segments, geometry, directory / "mutant.pgt"


def mutate(data: bytes, kind: str, position: int, value: int, span: int) -> bytes:
    position %= len(data) + (kind == "insert")
    if kind == "flip":
        return data[:position] + bytes([data[position] ^ (value or 1)]) + data[position + 1 :]
    if kind == "truncate":
        return data[:position]
    if kind == "insert":
        return data[:position] + bytes([value]) * span + data[position:]
    return data[:position] + data[position + span :]


def _decoders(path, geometry):
    """Each decoder as a callable returning ``(records, segment maps)``."""
    offset, length, count, segments, digest = geometry

    def buffered():
        trace = read_trace_file(path)
        return list(trace.records), [trace.segments]

    def columnar():
        trace = ColumnarTrace.from_file(path)
        return list(trace), [trace.segments]

    def chunked():
        chunks = list(iter_chunks(path, CHUNK_RECORDS))
        return [record for chunk in chunks for record in chunk], [
            chunk.segments for chunk in chunks
        ]

    def sliced():
        trace = decode_slice(path, offset, length, count, segments, digest=digest)
        return list(trace), [trace.segments]

    return {
        "read_trace_file": buffered,
        "ColumnarTrace.from_file": columnar,
        "iter_chunks": chunked,
        "decode_slice": sliced,
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
    data, records, segments, geometry, path = original
    mutant = mutate(data, kind, position, value, span)
    path.write_bytes(mutant)
    with pytest.MonkeyPatch.context() as patch:
        if numpy_masked:
            patch.setattr(trace_io, "_np", None)
        for name, decode in _decoders(path, geometry).items():
            try:
                decoded, segment_maps = decode()
            except TraceFormatError:
                continue
            assert decoded == records and all(
                seen == segments for seen in segment_maps
            ), f"{name} accepted a {kind} mutant at {position} as a different trace"
