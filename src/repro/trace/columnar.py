"""Columnar trace representation: flat arrays instead of tuple-per-record.

A :class:`~repro.trace.buffer.TraceBuffer` stores one 5-tuple per dynamic
instruction — hundreds of thousands of small heap objects that the analyzer
hot loop then pointer-chases. A :class:`ColumnarTrace` stores the same
logical content as seven flat ``array('q')`` columns:

========  ====================================================================
Column    Meaning
========  ====================================================================
opclass   latency/placement class per record
flags     taken/conditional bitmask per record
aux       pc (control records) / statement id per record
src_offsets, src_values    CSR-encoded source-location lists
dest_offsets, dest_values  CSR-encoded destination-location lists
========  ====================================================================

Record ``i``'s sources are ``src_values[src_offsets[i]:src_offsets[i+1]]``
(likewise destinations), so the per-family analysis loops in
:mod:`repro.core.stream` scan plain machine integers with no per-record
allocation. Columns come from PGT2 bytes only: decoded from a file (or
an in-memory copy of one) without materializing tuples, or, for a
``TraceBuffer``, from its records packed once into a PGT2 record stream.
Either way the trace carries the digest of the bytes it was decoded from.
The columnar form is packable into POSIX shared memory so the parallel
engine's workers can attach the parent's copy zero-copy instead of
re-decoding the trace file per process.

Content identity is preserved across every representation: ``digest()``
equals :meth:`TraceBuffer.digest` for the same records, the PGT2 header
digest, and the digest embedded in a shared-memory block's header.
"""

from __future__ import annotations

import struct
from array import array
from typing import Iterator, Optional, Tuple

from repro.isa.opclasses import OpClass
from repro.trace.buffer import TraceBuffer
from repro.trace.io import (
    digest_records,
    pack_records,
    parse_trace_bytes,
    read_trace_payload,
    scan_columns_fast,
)
from repro.trace.record import FLAG_CONDITIONAL, TraceRecord
from repro.trace.segments import DEFAULT_SEGMENTS, SegmentMap

_SYSCALL = int(OpClass.SYSCALL)
_BRANCH = int(OpClass.BRANCH)

#: Shared-memory block header: magic, data_base, stack_floor, stack_top,
#: record count, source count, destination count, raw sha256 digest.
#: 72 bytes — a multiple of 8, so the ``q`` columns that follow stay aligned.
_SHM_MAGIC = b"PGC1"
_SHM_HEADER = struct.Struct("<4sIIIQQQ32s")


class SharedTraceError(Exception):
    """Raised when a shared-memory trace block is malformed."""


class ColumnarTrace:
    """A trace as flat columns (see module docstring).

    Columns are ``array('q')`` when built locally and zero-copy
    ``memoryview`` casts when attached to shared memory; both index
    identically, so the kernels never care which they were handed.
    """

    __slots__ = (
        "opclass",
        "flags",
        "aux",
        "src_offsets",
        "src_values",
        "dest_offsets",
        "dest_values",
        "segments",
        "_digest",
        "_census",
        "_operand_counts",
        "_buffer",
        "_shm",
        "_views",
    )

    def __init__(
        self,
        opclass,
        flags,
        aux,
        src_offsets,
        src_values,
        dest_offsets,
        dest_values,
        segments: SegmentMap = DEFAULT_SEGMENTS,
        digest: Optional[str] = None,
    ):
        self.opclass = opclass
        self.flags = flags
        self.aux = aux
        self.src_offsets = src_offsets
        self.src_values = src_values
        self.dest_offsets = dest_offsets
        self.dest_values = dest_values
        self.segments = segments
        self._digest = digest
        self._census = None
        self._operand_counts = None
        self._buffer = None
        self._shm = None
        self._views = ()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_buffer(cls, buffer: TraceBuffer) -> "ColumnarTrace":
        """Columns for an in-memory tuple trace, through the PGT2 codec:
        the records are packed once into a record stream, whose digest
        comes with the packing, and decoded like a file's."""
        count = len(buffer)
        payload, digest = pack_records(buffer.segments, count, buffer.records)
        return cls(*scan_columns_fast(payload, count), buffer.segments, digest=digest)

    @classmethod
    def from_file(cls, path) -> "ColumnarTrace":
        """Decode a PGT2 trace file straight into columns — no per-record
        tuples — verifying the header content digest."""
        segments, count, digest, payload = read_trace_payload(path)
        return cls(*scan_columns_fast(payload, count), segments, digest=digest)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ColumnarTrace":
        """:meth:`from_file` over a whole PGT2 file held in memory."""
        segments, count, digest, payload = parse_trace_bytes(data)
        return cls(*scan_columns_fast(payload, count), segments, digest=digest)

    # -- record views ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.opclass)

    def __getitem__(self, index: int) -> TraceRecord:
        if index < 0:
            index += len(self.opclass)
        srcs = tuple(self.src_values[self.src_offsets[index]:self.src_offsets[index + 1]])
        dests = tuple(self.dest_values[self.dest_offsets[index]:self.dest_offsets[index + 1]])
        return (self.opclass[index], srcs, dests, self.flags[index], self.aux[index])

    def __iter__(self) -> Iterator[TraceRecord]:
        """Reconstruct records lazily, so a ``ColumnarTrace`` is accepted
        everywhere a record iterable is (reference analyzer, DDG builder,
        trace statistics)."""
        src_values = self.src_values
        dest_values = self.dest_values
        src_offsets = self.src_offsets
        dest_offsets = self.dest_offsets
        s_lo = 0
        d_lo = 0
        for index, klass in enumerate(self.opclass):
            s_hi = src_offsets[index + 1]
            d_hi = dest_offsets[index + 1]
            yield (
                klass,
                tuple(src_values[s_lo:s_hi]),
                tuple(dest_values[d_lo:d_hi]),
                self.flags[index],
                self.aux[index],
            )
            s_lo = s_hi
            d_lo = d_hi

    def to_buffer(self) -> TraceBuffer:
        """Materialize back to a tuple-per-record buffer, for the
        tuple-scanning implementations that need ``.records``: the two-pass
        analyzer's reverse scan, the readable reference, and the DDG
        oracle. The production analyzer never calls this — every kernel
        family scans the columns directly.

        Memoized: repeated calls — e.g. several tuple-scanning jobs against
        one shared-memory trace — pay the tuple materialization once.
        """
        if self._buffer is None:
            buffer = TraceBuffer(list(self), self.segments)
            buffer._digest = self._digest
            self._buffer = buffer
        return self._buffer

    def digest(self) -> str:
        """Stable content digest — identical to the same trace's
        :meth:`TraceBuffer.digest` and PGT2 header digest.

        Every decoded or packed trace carries the digest of the bytes it
        came from; only a digest-less slice (a streamed chunk) re-derives
        it from reconstructed records, counted as
        ``trace.digest_from_records``."""
        if self._digest is None:
            from repro.obs import metrics as obs

            obs.inc("trace.digest_from_records")
            self._digest = digest_records(self.segments, len(self), iter(self))
        return self._digest

    def census(self, start: int = 0, end: Optional[int] = None) -> Tuple[int, int]:
        """``(syscalls, conditional_branches)`` over records ``[start,
        end)`` (default: the whole trace).

        Both are pure trace statistics — independent of any analysis
        configuration — so the dataflow and windowed loops read them here
        instead of testing every record's flags in their hot loops. The
        whole-trace census is computed once and cached; across a config
        grid the single counting pass amortizes to nothing.
        """
        count = len(self.opclass)
        if end is None:
            end = count
        whole = start == 0 and end == count
        if whole and self._census is not None:
            return self._census
        syscalls = 0
        conditional_branches = 0
        conditional = FLAG_CONDITIONAL
        syscall = _SYSCALL
        branch = _BRANCH
        opclass = self.opclass
        flags = self.flags
        if not whole:
            opclass = opclass[start:end]
            flags = flags[start:end]
        for klass, flag in zip(opclass, flags):
            if klass == syscall:
                syscalls += 1
            elif klass == branch and flag & conditional:
                conditional_branches += 1
        if whole:
            self._census = (syscalls, conditional_branches)
        return syscalls, conditional_branches

    def operand_counts(self) -> Tuple:
        """``(src_counts, dest_counts)``: per-record operand arities.

        The arities are the offset columns' first differences — pure trace
        shape, independent of any analysis configuration — so they are
        computed once and cached. With them in hand the specialized kernels
        drive running iterators over the value columns directly (C-speed
        ``next`` per operand) instead of slicing with boxed offsets; across
        a config grid the single differencing pass amortizes to nothing.
        """
        if self._operand_counts is None:
            count = len(self.opclass)
            src_counts = array("q", bytes(8 * count))
            dest_counts = array("q", bytes(8 * count))
            for offsets, counts in (
                (self.src_offsets, src_counts),
                (self.dest_offsets, dest_counts),
            ):
                lo = 0
                highs = iter(offsets)
                next(highs)
                for index, hi in enumerate(highs):
                    counts[index] = hi - lo
                    lo = hi
            self._operand_counts = (src_counts, dest_counts)
        return self._operand_counts

    # -- shared memory -----------------------------------------------------

    def _columns(self) -> Tuple:
        return (
            self.opclass,
            self.flags,
            self.aux,
            self.src_offsets,
            self.src_values,
            self.dest_offsets,
            self.dest_values,
        )

    def nbytes(self) -> int:
        """Size of a shared-memory block holding this trace."""
        return _SHM_HEADER.size + 8 * sum(len(column) for column in self._columns())

    def to_shared_memory(self, name: Optional[str] = None):
        """Pack this trace into a new ``multiprocessing.shared_memory``
        block and return the ``SharedMemory`` object.

        The caller owns the block: it must keep the returned handle alive
        while attachments exist and ``close()``/``unlink()`` it afterwards
        (the engine does this around a grid run).
        """
        from multiprocessing import shared_memory

        from repro.obs import metrics as obs

        obs.inc("trace_shm.packs")
        obs.inc("trace_shm.packed_bytes", self.nbytes())
        segments = self.segments
        shm = shared_memory.SharedMemory(name=name, create=True, size=self.nbytes())
        buf = shm.buf
        _SHM_HEADER.pack_into(
            buf,
            0,
            _SHM_MAGIC,
            segments.data_base,
            segments.stack_floor,
            segments.stack_top,
            len(self),
            len(self.src_values),
            len(self.dest_values),
            bytes.fromhex(self.digest()),
        )
        offset = _SHM_HEADER.size
        for column in self._columns():
            nbytes = 8 * len(column)
            if nbytes:
                chunk = buf[offset:offset + nbytes]
                view = chunk.cast("q")
                view[:] = column
                view.release()
                chunk.release()
            offset += nbytes
        return shm

    @classmethod
    def from_shared_memory(cls, name: str) -> "ColumnarTrace":
        """Attach to a block written by :meth:`to_shared_memory`.

        The columns are zero-copy ``memoryview`` casts into the block; the
        attachment is held by the returned trace and released by
        :meth:`close` (or process exit). The block itself stays owned by
        its creator — attaching never unlinks.
        """
        from multiprocessing import shared_memory

        from repro.obs import metrics as obs

        obs.inc("trace_shm.attaches")

        try:
            # Python >= 3.13: opt out of resource tracking for attachments.
            shm = shared_memory.SharedMemory(name=name, create=False, track=False)
        except TypeError:
            # Older interpreters register the attachment with the resource
            # tracker. Attachers here are always multiprocessing children of
            # the block's creator, so they share the creator's tracker and
            # the extra register is a duplicate set-add; the creator's
            # unlink-time unregister cleans it up exactly once.
            shm = shared_memory.SharedMemory(name=name, create=False)
        try:
            header = _SHM_HEADER.unpack_from(shm.buf, 0)
        except struct.error:
            shm.close()
            raise SharedTraceError(f"shared trace block {name!r}: truncated header")
        magic, data_base, stack_floor, stack_top, count, nsrc, ndest = header[:7]
        if magic != _SHM_MAGIC:
            shm.close()
            raise SharedTraceError(f"shared trace block {name!r}: bad magic {magic!r}")
        digest = header[7].hex()
        lengths = (count, count, count, count + 1, nsrc, count + 1, ndest)
        size = len(shm.buf)
        if size < _SHM_HEADER.size + 8 * sum(lengths):
            shm.close()
            raise SharedTraceError(
                f"shared trace block {name!r}: {size} bytes is too "
                f"small for {count} records"
            )
        views = []
        columns = []
        offset = _SHM_HEADER.size
        for length in lengths:
            chunk = shm.buf[offset:offset + 8 * length]
            column = chunk.cast("q")
            views.append(chunk)
            views.append(column)
            columns.append(column)
            offset += 8 * length
        trace = cls(
            *columns,
            SegmentMap(data_base=data_base, stack_floor=stack_floor, stack_top=stack_top),
            digest=digest,
        )
        trace._shm = shm
        trace._views = tuple(views)
        return trace

    def close(self) -> None:
        """Release a shared-memory attachment (no-op for local traces)."""
        if self._shm is None:
            return
        for view in self._views:
            view.release()
        self._views = ()
        shm, self._shm = self._shm, None
        shm.close()
