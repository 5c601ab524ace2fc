"""Spans around the repro package's public functions, recorded from outside.

Traced runs only. :func:`install` wraps each layer's public entry points
with a shim that records one span per call, installed wherever callers
look the name up: the defining module, every module that imported the
name, module-level dispatch tables (``repro.engine.jobs.METHODS``), and
class attributes for methods. Forked pool workers inherit the shims; each
process appends its spans to its own ``spans-<pid>.jsonl`` file under
the directory named by :data:`ENV`, flushing whenever a thread's outermost
span ends (a worker leaves through ``os._exit``, so nothing may wait for
interpreter exit).

:func:`attribute` turns the spans of every process into per-layer self
times that sum to at most the traced wall: at each instant the wall time
is split equally among the innermost spans running anywhere, and spans
marked ``wait`` (a client round trip, the engine parent waiting on its
pool) only receive the instants when nothing else runs.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import importlib
import json
import os
import pkgutil
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Environment variable naming the directory traced processes write to.
ENV = "PERFBENCH_SPANS"

clock = time.monotonic  # CLOCK_MONOTONIC: one timeline for every process


class Recorder:
    """Per-process span buffer; thread-safe, fork-aware."""

    def __init__(self, directory: str):
        self.directory = directory
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pending: List[str] = []
        os.register_at_fork(after_in_child=self._after_fork)
        atexit.register(self.flush)

    def _after_fork(self) -> None:
        # The child keeps only its own spans; the parent flushes its own.
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pending = []

    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    def begin(self) -> float:
        self._local.depth = self._depth() + 1
        return clock()

    def end(self, name: str, start: float, attrs: Optional[dict] = None, wait: bool = False) -> None:
        stop = clock()
        line = json.dumps(
            [name, os.getpid(), threading.get_ident(), start, stop, wait, attrs]
        )
        with self._lock:
            self._pending.append(line)
        self._local.depth = self._depth() - 1
        if self._local.depth == 0:
            self.flush()

    def flush(self) -> None:
        with self._lock:
            lines, self._pending = self._pending, []
        if not lines:
            return
        path = os.path.join(self.directory, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write("\n".join(lines) + "\n")

    @contextlib.contextmanager
    def span(self, name: str, wait: bool = False) -> Iterator[None]:
        """Record the ``with`` body as one span (the benchmark's own code)."""
        start = self.begin()
        try:
            yield
        finally:
            self.end(name, start, None, wait)


# -- shims ---------------------------------------------------------------------

Counter = Callable[[tuple, dict, object], Optional[dict]]


def _shim(recorder: Recorder, fn, name, attrs: Optional[Counter] = None, wait: bool = False):
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        label = name(args, kwargs) if callable(name) else name
        start = recorder.begin()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.end(label, start, None, wait)
            raise
        recorder.end(label, start, attrs(args, kwargs, result) if attrs else None, wait)
        return result

    return shim


def _replace_everywhere(original, replacement) -> int:
    """Rebind ``original`` to ``replacement`` in every loaded repro module:
    module globals and the values of module-level dicts."""
    import sys

    count = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement
                count += 1
            elif isinstance(value, dict):
                for dict_key, item in list(value.items()):
                    if item is original:
                        value[dict_key] = replacement
                        count += 1
    return count


def _patch_function(recorder, module_name: str, attr: str, name, attrs=None, wait=False) -> None:
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    replacement = _shim(recorder, original, name, attrs, wait)
    if _replace_everywhere(original, replacement) == 0:
        raise RuntimeError(f"no caller binds {module_name}.{attr}")


def _patch_method(recorder, cls, attr: str, name, attrs=None, wait=False) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(_shim(recorder, raw.__func__, name, attrs, wait)))
    else:
        setattr(cls, attr, _shim(recorder, raw, name, attrs, wait))


def _file_bytes(args, kwargs, result) -> dict:
    path = args[0] if args and not isinstance(args[0], type) else args[1]
    return {"bytes": os.path.getsize(path)}


def _import_all_repro() -> None:
    """Import every repro module first, so aliases made by ``from x import
    f`` exist to be rebound (later lazy imports read the patched name)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def install(recorder: Recorder) -> None:
    """Wrap every layer's public functions (once per process)."""
    _import_all_repro()
    from repro.core import kernels
    from repro.cpu.machine import Machine
    from repro.engine.api import ExperimentEngine
    from repro.engine.cache import ResultCache
    from repro.harness.experiments import ExperimentOutput
    from repro.harness.runner import TraceStore
    from repro.harness.tables import Table
    from repro.trace.buffer import TraceBuffer
    from repro.trace.columnar import ColumnarTrace

    # lang, cpu
    _patch_function(recorder, "repro.lang.compiler", "compile_source", "lang.compile")
    _patch_method(
        recorder, Machine, "run", "cpu.simulate",
        lambda a, k, result: {"instructions": result.executed},
    )
    # trace
    _patch_method(recorder, TraceBuffer, "digest", "trace.digest")
    _patch_method(recorder, ColumnarTrace, "digest", "trace.digest")
    _patch_function(recorder, "repro.trace.io", "write_trace_file", "trace.encode", _file_bytes)
    _patch_method(recorder, ColumnarTrace, "from_buffer", "trace.columnar_build")
    _patch_method(recorder, ColumnarTrace, "from_file", "trace.decode", _file_bytes)
    _patch_function(recorder, "repro.trace.io", "read_trace_file", "trace.decode", _file_bytes)
    _patch_function(recorder, "repro.trace.io", "read_trace_digest", "trace.decode")
    _patch_method(recorder, ColumnarTrace, "to_buffer", "trace.to_buffer")
    _patch_method(recorder, ColumnarTrace, "to_shared_memory", "trace.shm_pack")
    _patch_method(recorder, ColumnarTrace, "from_shared_memory", "trace.shm_attach")

    # core: one analysis, bucketed by the kernel family its config selects
    def family(args, kwargs) -> str:
        config = args[1] if len(args) > 1 else kwargs.get("config")
        if config is None:
            from repro.core.config import AnalysisConfig

            config = AnalysisConfig()
        return "core." + kernels.select_kernel(config)

    _patch_function(
        recorder, "repro.core.analyzer", "analyze", family,
        lambda a, k, result: {"records": len(a[0]) if hasattr(a[0], "__len__") else 0},
    )

    # engine
    def grid_counts(args, kwargs, outcomes) -> dict:
        engine = args[0]
        return {
            "jobs": len(outcomes),
            "busy": sum(o.seconds for o in outcomes if not o.cached and not o.replayed),
            "queue_wait": sum(o.queue_wait for o in outcomes),
            "retries": sum(max(0, o.attempts - 1) for o in outcomes),
            "failed": sum(1 for o in outcomes if not o.ok),
            "workers": engine.jobs,
        }

    _patch_method(recorder, ExperimentEngine, "run_grid", "engine.grid", grid_counts, wait=True)
    _patch_method(
        recorder, ResultCache, "load", "engine.cache_load",
        lambda a, k, result: {"hit": int(result is not None), "loads": 1},
    )
    _patch_method(recorder, ResultCache, "store", "engine.cache_store")
    for function in ("result_to_dict", "result_from_dict"):
        _patch_function(recorder, "repro.engine.serialize", function, "engine.serialize")
    # harness
    for method in ("trace", "columnar", "ensure_on_disk", "full_run_length", "invalidate"):
        _patch_method(recorder, TraceStore, method, "harness.trace_store")
    _patch_method(recorder, ExperimentOutput, "render", "harness.render")
    _patch_method(recorder, Table, "to_csv", "harness.render")


def install_from_env() -> Optional[Recorder]:
    """Install the shims when :data:`ENV` names a span directory."""
    directory = os.environ.get(ENV)
    if not directory:
        return None
    recorder = Recorder(directory)
    install(recorder)
    return recorder


# -- attribution ---------------------------------------------------------------

Span = Tuple[str, int, int, float, float, bool, Optional[dict]]


def load_spans(directory: str) -> List[Span]:
    spans: List[Span] = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(directory, entry)) as handle:
                spans.extend(tuple(json.loads(line)) for line in handle if line.strip())
    return spans


def _self_segments(spans: Iterable[Span]):
    """Per thread: the intervals during which each span is the innermost
    one open, as ``(start, end, name, wait)``."""
    ordered = sorted(spans, key=lambda s: (s[3], -s[4]))
    stack: List[Span] = []
    cursor = None
    for span in ordered:
        while stack and stack[-1][4] <= span[3]:
            top = stack.pop()
            if top[4] > cursor:
                yield cursor, top[4], top[0], top[5]
            cursor = max(cursor, top[4])
        if stack and span[3] > cursor:
            yield cursor, span[3], stack[-1][0], stack[-1][5]
        stack.append(span)
        cursor = span[3]
    while stack:
        top = stack.pop()
        if top[4] > cursor:
            yield cursor, top[4], top[0], top[5]
        cursor = max(cursor, top[4])


def attribute(spans: List[Span], window: Tuple[float, float]) -> Dict[str, float]:
    """Wall-share self time per span name inside ``window``."""
    lo, hi = window
    threads: Dict[Tuple[int, int], List[Span]] = defaultdict(list)
    for span in spans:
        threads[(span[1], span[2])].append(span)
    events = []  # (time, +1/-1, segment id)
    segments = []
    for thread_spans in threads.values():
        for start, end, name, wait in _self_segments(thread_spans):
            start, end = max(start, lo), min(end, hi)
            if end > start:
                events.append((start, 1, len(segments)))
                events.append((end, -1, len(segments)))
                segments.append((name, wait))
    events.sort(key=lambda e: (e[0], e[1]))
    shares: Dict[str, float] = defaultdict(float)
    active_work, active_wait = set(), set()
    previous = None
    for moment, kind, segment in events:
        if previous is not None and moment > previous:
            active = active_work or active_wait
            if active:
                share = (moment - previous) / len(active)
                for index in active:
                    shares[segments[index][0]] += share
        previous = moment
        target = active_wait if segments[segment][1] else active_work
        if kind > 0:
            target.add(segment)
        else:
            target.discard(segment)
    return dict(shares)


def totals(spans: List[Span], window: Tuple[float, float]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls`` and the summed attrs, over spans that
    started inside ``window``."""
    lo, hi = window
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for name, _pid, _tid, start, _end, _wait, attrs in spans:
        if not lo <= start <= hi:
            continue
        row = out[name]
        row["calls"] += 1
        for key, value in (attrs or {}).items():
            row[key] += value
    return out
