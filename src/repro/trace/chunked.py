"""Bounded-memory PGT2 access: chunked decode.

The whole-trace readers in :mod:`repro.trace.io` gulp the entire record
stream into memory, which is fine at the default ~100k-record experiment
cap and hopeless at the paper's 100M-instruction scale. :func:`iter_chunks`
breaks that assumption without touching the file format: it walks a trace
file through ``mmap`` (so the OS pages the file in and out behind a
fixed-size window) and yields it as a sequence of columnar chunks, holding
one chunk in memory at a time and verifying the header digest
incrementally as the bytes flow past.
"""

from __future__ import annotations

import mmap
from typing import Iterator, Optional

from repro.trace import io as _io
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import (
    _HEADER,
    _digest_hasher,
    TraceFormatError,
    read_header,
    scan_columns,
    walk_record_heads,
)

#: Default chunk size in records: small enough that a decoded chunk is
#: tens of MB, not the whole trace, large enough that per-chunk overhead
#: (record-head walk, column gather, frontier resume) amortizes to nothing.
DEFAULT_CHUNK_RECORDS = 1 << 20


def _verify_rest(path, payload, offset: int, count: int, decoded: int, hasher, digest):
    """Close the digest check once ``decoded`` of ``count`` records, ending
    at byte ``offset`` of ``payload``, have been read. A whole-stream read
    must end exactly at the payload's end; a limited read feeds the
    undecoded rest to ``hasher`` as is, so a corrupted tail still fails."""
    rest = payload[offset:]
    try:
        if decoded == count:
            if len(rest):
                raise TraceFormatError(
                    f"record stream holds {len(rest)} trailing bytes after {count} records"
                )
        else:
            hasher.update(rest)
    finally:
        rest.release()
    if hasher.hexdigest() != digest:
        raise TraceFormatError(
            f"trace digest mismatch in {path}: file is stale or corrupted"
        )


def iter_chunks(
    path, chunk_records: int = DEFAULT_CHUNK_RECORDS, limit: Optional[int] = None
) -> Iterator[ColumnarTrace]:
    """Stream ``path`` as columnar chunks of at most ``chunk_records``
    records, one resident at a time. With ``limit``, only the first
    ``limit`` records are decoded and yielded.

    The header digest is verified incrementally: every payload byte is fed
    to the seeded hasher as its chunk is read (the bytes past ``limit``
    without being decoded), and the final chunk's yield only happens once
    the whole stream has matched the header. (A mismatch raises
    :class:`TraceFormatError` before any trailing chunk is surfaced,
    mirroring the whole-file readers' fail-loudly contract.)
    """
    if chunk_records < 1:
        raise ValueError(f"chunk_records must be >= 1, got {chunk_records}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    from repro.obs import metrics as obs

    with open(path, "rb") as stream:
        segments, count, digest = read_header(stream)
        stop = count if limit is None else min(limit, count)
        hasher = _digest_hasher(segments, count)
        with mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
            view = memoryview(mapped)
            payload = view[_HEADER.size :]
            try:
                if stop == 0:
                    _verify_rest(path, payload, 0, count, 0, hasher, digest)
                offset = 0
                start = 0
                while start < stop:
                    chunk_count = min(chunk_records, stop - start)
                    chunk_offset = offset
                    # Record heads (chunk-relative) collected during the
                    # boundary walk feed the vectorized column gather below,
                    # so numpy decode costs no second walk.
                    rest = payload[chunk_offset:]
                    try:
                        heads = walk_record_heads(rest, chunk_count)
                    finally:
                        rest.release()
                    offset = chunk_offset + heads[chunk_count]
                    chunk_view = payload[chunk_offset:offset]
                    try:
                        hasher.update(chunk_view)
                        start += chunk_count
                        if start == stop:
                            _verify_rest(path, payload, offset, count, stop, hasher, digest)
                        obs.inc("trace_stream.chunks")
                        if _io._np is not None:
                            columns = _io.gather_columns(chunk_view, heads, chunk_count)
                        else:
                            _io.count_decode_fallback("no_numpy")
                            columns = scan_columns(bytes(chunk_view), chunk_count)
                    finally:
                        chunk_view.release()
                    yield ColumnarTrace(*columns, segments)
            finally:
                payload.release()
                view.release()
