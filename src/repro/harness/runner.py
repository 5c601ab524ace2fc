"""Trace generation with caching.

Every experiment analyzes the same capped traces under different Paragraph
configurations (the paper likewise captured a Pixie trace once and reran
the analyzer). The store keeps traces in memory for the process lifetime
and optionally persists them to disk in the binary trace format; the
parallel engine shares that on-disk cache with its worker processes so a
multi-hundred-thousand-record buffer is never pickled per job.

Disk-cache integrity: trace files embed a format version and content
digest (see :mod:`repro.trace.io`). A stale, truncated, or corrupted
cache file raises :class:`~repro.trace.io.TraceFormatError` on read; the
store logs a warning and regenerates it from the workload — loud recovery
instead of silently analyzing corrupt records.
"""

from __future__ import annotations

import logging
import os
from typing import Dict, Optional, Set, Tuple, Union

from repro.obs import metrics as obs
from repro.obs.spans import span
from repro.trace.buffer import TraceBuffer
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import TraceFormatError, read_trace_digest, write_trace_file
from repro.workloads.suite import load_workload

logger = logging.getLogger(__name__)

#: The paper analyzed at most 100M instructions per benchmark; our default
#: budget scales that to pure-Python analysis speeds.
DEFAULT_CAP = 250_000


def _header_digest(path: str) -> Optional[str]:
    """The digest in ``path``'s PGT2 header, or ``None`` when the file is
    missing or its header is unreadable."""
    try:
        return read_trace_digest(path)
    except (OSError, TraceFormatError):
        return None


class TraceStore:
    """Caches workload traces by (name, cap, optimized), one
    :class:`ColumnarTrace` per key.

    Columns only ever come from PGT2 bytes: a cached ``.pgt`` file is
    decoded straight into columns, and a freshly simulated trace is
    written to disk and decoded back (or, without a directory, packed
    into a record stream in memory) — so each trace's digest is the
    digest of the bytes it was decoded from, and the simulator's tuple
    buffer is dropped as soon as it is encoded. Tuple consumers get the
    memoized :meth:`ColumnarTrace.to_buffer` through :meth:`trace`.
    """

    def __init__(self, directory: Optional[str] = None):
        self.directory = directory
        self._traces: Dict[Tuple[str, int, bool], ColumnarTrace] = {}
        #: Keys added by :meth:`register`: no workload can regenerate them.
        self._registered: Set[Tuple[str, int, bool]] = set()
        self._lengths: Dict[str, int] = {}
        if directory:
            os.makedirs(directory, exist_ok=True)

    def persist_to(self, directory: str) -> None:
        """Attach (or switch) the on-disk cache directory. The engine calls
        this with a scratch directory when a parallel run needs disk-shared
        traces but the store was created memory-only."""
        os.makedirs(directory, exist_ok=True)
        self.directory = directory

    def _path(self, name: str, cap: int, optimize: bool = False) -> Optional[str]:
        if not self.directory:
            return None
        suffix = ".opt" if optimize else ""
        return os.path.join(self.directory, f"{name}.{cap}{suffix}.pgt")

    def register(self, name: str, trace: Union[ColumnarTrace, TraceBuffer]) -> int:
        """Serve ``trace`` under ``name`` (an uploaded or generated trace
        with no workload behind it); returns the cap (= record count, at
        least 1) jobs against it must use. It is never regenerated:
        :meth:`invalidate` drops only its disk spill."""
        if not isinstance(trace, ColumnarTrace):
            trace = ColumnarTrace.from_buffer(trace)
        key = (name, max(1, len(trace)), False)
        self._traces[key] = trace
        self._registered.add(key)
        return key[1]

    def unregister(self, name: str, cap: int) -> bool:
        """Forget a :meth:`register`-ed trace; ``True`` when it was held."""
        key = (name, cap, False)
        self._registered.discard(key)
        return self._traces.pop(key, None) is not None

    def trace(self, workload, cap: int = DEFAULT_CAP, optimize: bool = False) -> TraceBuffer:
        """The first ``cap`` dynamic instructions of ``workload`` as tuples,
        for the tuple-scanning consumers (trace statistics, baselines):
        the memoized :meth:`ColumnarTrace.to_buffer` of :meth:`columnar`."""
        return self.columnar(workload, cap, optimize).to_buffer()

    def columnar(
        self, workload, cap: int = DEFAULT_CAP, optimize: bool = False
    ) -> ColumnarTrace:
        """The first ``cap`` dynamic instructions of ``workload``, cached
        per store: decoded from the on-disk ``.pgt`` file when a valid one
        exists, else simulated and encoded (see the class docstring)."""
        name = workload if isinstance(workload, str) else workload.name
        key = (name, cap, optimize)
        cached = self._traces.get(key)
        if cached is not None:
            obs.inc("trace_store.memory_hit")
            return cached
        path = self._path(name, cap, optimize)
        trace = self._read(path, cap) if path and os.path.exists(path) else None
        if trace is None:
            trace = self._generate(workload, cap, optimize, path)
        else:
            obs.inc("trace_store.disk_hit")
        self._traces[key] = trace
        return trace

    def _read(self, path: str, cap: int) -> Optional[ColumnarTrace]:
        """Decode a cached trace file, or ``None`` (with one warning and a
        ``trace_store.regenerate.<reason>`` count) when it is stale."""
        try:
            with span("trace_decode"):
                trace = ColumnarTrace.from_file(path)
        except TraceFormatError as error:
            reason, detail = "format_error", str(error)
        else:
            if len(trace) <= cap:
                return trace
            reason, detail = "over_cap", f"holds {len(trace)} records for cap {cap}"
        logger.warning("stale trace cache %s (%s); regenerating", path, detail)
        obs.inc(f"trace_store.regenerate.{reason}")
        return None

    def _generate(self, workload, cap: int, optimize: bool, path: Optional[str]) -> ColumnarTrace:
        """Simulate a trace and encode it: written to ``path`` and decoded
        back when the store has a directory, packed in memory otherwise."""
        if isinstance(workload, str):
            workload = load_workload(workload)
        obs.inc("trace_store.generate")
        with span("trace_generate"):
            buffer = workload.trace(max_instructions=cap, optimize=optimize)
        if not path:
            return ColumnarTrace.from_buffer(buffer)
        write_trace_file(path, buffer)
        del buffer  # free the tuples before the columns are decoded
        with span("trace_decode"):
            return ColumnarTrace.from_file(path)

    def ensure_on_disk(
        self, workload, cap: int = DEFAULT_CAP, optimize: bool = False
    ) -> Tuple[str, str]:
        """Materialize a trace in the disk cache; returns ``(path, digest)``.

        Used by the parallel engine: workers receive the path and load the
        trace themselves, and the digest keys the result cache. When the
        file already exists and is wanted cold (not yet in memory), only
        its header is read — the digest comes for free without touching
        the record stream.
        """
        if not self.directory:
            raise ValueError("ensure_on_disk requires a disk-backed TraceStore")
        name = workload if isinstance(workload, str) else workload.name
        path = self._path(name, cap, optimize)
        if (name, cap, optimize) not in self._traces:
            on_disk = _header_digest(path)
            if on_disk is not None:
                return path, on_disk
        trace = self.columnar(workload, cap, optimize)
        digest = trace.digest()
        if _header_digest(path) != digest:
            write_trace_file(path, trace)
        return path, digest

    def invalidate(self, workload, cap: int = DEFAULT_CAP, optimize: bool = False) -> bool:
        """Drop every cached form of one trace — the in-memory columns and
        the on-disk ``.pgt`` file — so the next request regenerates it from
        the workload. A :meth:`register`-ed trace cannot be regenerated, so
        only its disk spill goes. The resilience layer calls this before
        retrying a job that failed on a truncated or corrupted cached
        trace; returns ``True`` when anything was actually dropped."""
        name = workload if isinstance(workload, str) else workload.name
        key = (name, cap, optimize)
        dropped = key not in self._registered and self._traces.pop(key, None) is not None
        path = self._path(name, cap, optimize)
        if path and os.path.exists(path):
            try:
                os.remove(path)
                dropped = True
                logger.warning("invalidated cached trace %s", path)
            except OSError:
                pass
        return dropped

    def full_run_length(self, workload) -> int:
        """Dynamic instruction count of the complete (untraced) run — the
        paper's "Total Instructions in Trace" column."""
        if isinstance(workload, str):
            workload = load_workload(workload)
        cached = self._lengths.get(workload.name)
        if cached is not None:
            return cached
        result, _ = workload.run(max_instructions=20_000_000, trace=False)
        self._lengths[workload.name] = result.executed
        return result.executed


#: Shared default store (in-memory only).
DEFAULT_STORE = TraceStore()


def workload_trace(name: str, cap: int = DEFAULT_CAP) -> TraceBuffer:
    """Convenience accessor against the default store."""
    return DEFAULT_STORE.trace(name, cap)
