"""Analysis job specifications and their stable identities.

A *job* is the engine's unit of parallelism: one Paragraph analysis of one
capped workload trace under one configuration. Jobs — not trace shards —
are the unit because a single analysis is an inherently serial scan (each
record's placement depends on the live-well state left by every earlier
record), while the experiment grids of the paper (Tables 2-4, Figures 7-8,
every ablation) are embarrassingly parallel across (trace x config) points.

Identity is content-based: a job digest covers the workload name, cap,
optimization flag, analysis method, and the full canonical configuration;
combined with the trace content digest it keys the on-disk result cache,
so identical work is never recomputed — across processes or across runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict

from repro.core.analyzer import analyze
from repro.core.config import AnalysisConfig
from repro.core.results import AnalysisResult
from repro.core.twopass import twopass_analyze
from repro.trace.buffer import TraceBuffer
from repro.trace.columnar import ColumnarTrace


def _analyze_reference(trace, config: AnalysisConfig) -> AnalysisResult:
    from repro.core.reference import reference_analyze

    if isinstance(trace, ColumnarTrace):
        trace = trace.to_buffer()
    return reference_analyze(trace, config)


def _analyze_oracle(trace, config: AnalysisConfig) -> AnalysisResult:
    # Imported lazily: repro.verify imports this module for METHODS.
    from repro.verify.oracle import oracle_analyze

    if isinstance(trace, ColumnarTrace):
        trace = trace.to_buffer()
    return oracle_analyze(trace, config)


#: Records per chunk of the ``stream`` method: a few, so even a tiny
#: verification case is cut (and its frontier resumed) every few records.
_STREAM_CHUNK_RECORDS = 3

#: Most chunks one ``stream`` job cuts its trace into, so a long trace
#: (a ``repro serve`` client may ask for ``stream``) costs a bounded number
#: of frontier resumes instead of one per few records.
_STREAM_MAX_CHUNKS = 64


def _analyze_stream(trace, config: AnalysisConfig) -> AnalysisResult:
    """Chunked streaming re-analysis: one frontier advanced over chunks of
    a few records each (exercising resume-at-a-cut for every
    configuration), at most :data:`_STREAM_MAX_CHUNKS` of them.
    Late-binds through the module attribute so the harness can mutate
    it."""
    from repro.core import stream

    chunk = max(_STREAM_CHUNK_RECORDS, -(-len(trace) // _STREAM_MAX_CHUNKS))
    return stream.stream_analyze_trace(trace, config, chunk_records=chunk)


#: Analysis methods a job may request. Values take ``(trace, config)`` and
#: return an :class:`AnalysisResult`. ``forward`` and ``twopass`` are the
#: production pair (identical results except ``peak_live_well``, see
#: :mod:`repro.core.twopass`); the rest pin one implementation each for
#: the differential verification harness (:mod:`repro.verify`) —
#: ``reference`` (readable live-well pass) and ``oracle`` (explicit DDG +
#: longest path; sentinel ``firewalls``/``peak_live_well``). ``stream``
#: runs the bounded-memory chunked frontier of :mod:`repro.core.stream`
#: (results identical to ``forward``).
METHODS: Dict[str, Callable[[TraceBuffer, AnalysisConfig], AnalysisResult]] = {
    "forward": analyze,
    "twopass": twopass_analyze,
    "reference": _analyze_reference,
    "oracle": _analyze_oracle,
    "stream": _analyze_stream,
}

#: Methods whose fastest input is a :class:`ColumnarTrace`.
_COLUMNAR_METHODS = frozenset({"forward", "stream"})


@dataclass(frozen=True)
class AnalysisJob:
    """One (workload, cap, config) analysis request.

    Attributes:
        workload: suite workload name (resolved in the worker process).
        cap: instruction cap — the first ``cap`` dynamic instructions.
        config: the Paragraph configuration to analyze under.
        method: ``"forward"`` (streaming, method 2), ``"twopass"``
            (reverse-annotated, method 1), or one of the pinned
            verification methods in :data:`METHODS`.
        optimize: analyze the compiler-optimized trace of the workload
            (the abl-compiler grid axis).
    """

    workload: str
    cap: int
    config: AnalysisConfig = field(default_factory=AnalysisConfig)
    method: str = "forward"
    optimize: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(
                f"unknown analysis method {self.method!r}; "
                f"choose from {', '.join(METHODS)}"
            )
        if self.cap < 1:
            raise ValueError(f"cap must be >= 1, got {self.cap}")

    # -- identity ----------------------------------------------------------

    def canonical(self) -> dict:
        """JSON-safe canonical form (wire format across processes and the
        job half of cache keys)."""
        return {
            "workload": self.workload,
            "cap": self.cap,
            "config": self.config.canonical(),
            "method": self.method,
            "optimize": self.optimize,
        }

    @classmethod
    def from_canonical(cls, data: dict) -> "AnalysisJob":
        """Inverse of :meth:`canonical` (worker-side reconstruction).
        Unknown keys are ignored, so older wire forms that carried an
        execution-backend preference still decode to the same job."""
        return cls(
            workload=data["workload"],
            cap=data["cap"],
            config=AnalysisConfig.from_canonical(data["config"]),
            method=data["method"],
            optimize=data["optimize"],
        )

    def digest(self) -> str:
        """Stable hex digest of the job spec, identical across processes."""
        payload = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    @property
    def short_digest(self) -> str:
        """First 12 hex chars of :meth:`digest` — the compact tag run
        journals and retry log lines use to reference a job."""
        return self.digest()[:12]

    def describe(self) -> str:
        """Short human-readable tag for progress lines."""
        extras = []
        if self.method != "forward":
            extras.append(self.method)
        if self.optimize:
            extras.append("optimized")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        return f"{self.workload}@{self.cap} {self.config.describe()}{suffix}"

    # -- trace identity ----------------------------------------------------

    @property
    def trace_key(self) -> tuple:
        """The (workload, cap, optimize) triple identifying the input trace;
        jobs sharing a trace key share one cached trace load per worker."""
        return (self.workload, self.cap, self.optimize)

    @property
    def prefers_columnar(self) -> bool:
        """True when the job's method runs fastest on a
        :class:`~repro.trace.columnar.ColumnarTrace` (the forward analyzer
        and the stream method scan columns); tuple-scanning methods
        need the materialized record list."""
        return self.method in _COLUMNAR_METHODS

    def run(self, trace) -> AnalysisResult:
        """Execute this job against an already-loaded trace.

        Accepts either representation: a columnar trace is handed straight
        to the column-scanning methods and materialized back to a record
        buffer for methods that need one.
        """
        if isinstance(trace, ColumnarTrace) and not self.prefers_columnar:
            trace = trace.to_buffer()
        return METHODS[self.method](trace, self.config)
