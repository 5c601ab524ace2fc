"""Resumable Paragraph analysis: the placement loops and their frontier.

This module holds the one python implementation of the placement rule:
one loop per kernel family (:func:`repro.core.kernels.select_kernel`),
each an exact continuation over a record range whose state lives in an
explicit :class:`Frontier` between calls. A whole-trace analysis
(:func:`repro.core.analyzer.analyze`) is a single call over the full
range; a trace too large for memory streams through a bounded window:

    frontier = new_frontier(config, segments)
    for chunk in chunks:            # each chunk decoded, used, discarded
        advance(frontier, chunk)
    result = finalize(frontier)     # identical to whole-trace analysis

Because every path runs the same loops, chunked streaming reproduces the
monolithic result for *every* configuration: all rename settings, window
sizes, branch predictors, resource limits, syscall policies, memory
disambiguation, lifetimes, profiles.

A cut is invisible to the loops because the frontier carries *all* of
their state across it: the live well, the floor and deepest placement,
the window ring and its cursor, the conservative-memory levels, the
predictor's pattern table, the resource occupancy and the lifetime
tallies. Chunks must therefore be advanced in trace order, one after the
other; nothing here analyzes a chunk out of order or in parallel.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from typing import Dict, List, Optional

from repro.core.branch import make_predictor
from repro.core.config import (
    CONSERVATIVE,
    CONSERVATIVE_DISAMBIGUATION,
    AnalysisConfig,
)
from repro.core.kernels import (
    KERNEL_GENERIC,
    KERNEL_WINDOWED,
    select_kernel,
)
from repro.core.lifetimes import LifetimeStats
from repro.core.livewell import NEVER_USED
from repro.core.profile import ParallelismProfile
from repro.core.resources import ResourceState
from repro.core.results import AnalysisResult
from repro.isa.locations import MEM_BASE
from repro.isa.opclasses import OpClass
from repro.trace.chunked import DEFAULT_CHUNK_RECORDS, iter_chunks
from repro.trace.record import FLAG_CONDITIONAL, FLAG_TAKEN
from repro.trace.segments import DEFAULT_SEGMENTS, SegmentMap

_SYSCALL = int(OpClass.SYSCALL)
_BRANCH = int(OpClass.BRANCH)
_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)


class Frontier:
    """The complete mutable state of one in-progress analysis.

    Everything the loops keep in locals lives here between ``advance``
    calls: the live well, the level floor, the deepest
    placement, the instruction-window ring, counters, the parallelism
    profile, conservative-memory levels, and the predictor and resource
    objects.
    """

    __slots__ = (
        "config",
        "segments",
        "kernel",
        "latency",
        "conservative",
        "conservative_mem",
        "well",
        "floor",
        "deepest",
        "ring",
        "ring_pos",
        "profile",
        "records",
        "placed",
        "syscalls",
        "firewalls",
        "branches",
        "mispredictions",
        "mem_store_level",
        "mem_deepest_access",
        "predictor",
        "resources",
        "life_hist",
        "share_hist",
    )

    def __init__(self, config: AnalysisConfig, segments: SegmentMap):
        self.config = config
        self.segments = segments
        self.kernel = select_kernel(config)
        self.latency = config.latency.as_list()
        self.conservative = config.syscall_policy == CONSERVATIVE
        self.conservative_mem = (
            config.memory_disambiguation == CONSERVATIVE_DISAMBIGUATION
        )
        self.well: dict = {}
        self.floor = 0
        self.deepest = -1
        window = config.window_size
        self.ring: Optional[List[Optional[int]]] = [None] * window if window else None
        self.ring_pos = 0
        self.profile: Optional[Counter] = Counter() if config.collect_profile else None
        self.records = 0
        self.placed = 0
        self.syscalls = 0
        self.firewalls = 0
        self.branches = 0
        self.mispredictions = 0
        self.mem_store_level = NEVER_USED
        self.mem_deepest_access = NEVER_USED
        self.predictor = (
            make_predictor(config.branch_predictor) if config.branch_predictor else None
        )
        self.resources = None
        if config.resources is not None and not config.resources.unconstrained:
            self.resources = ResourceState(config.resources)
        self.life_hist: Dict[int, int] = {}
        self.share_hist: Dict[int, int] = {}


def new_frontier(
    config: Optional[AnalysisConfig] = None,
    segments: SegmentMap = DEFAULT_SEGMENTS,
) -> Frontier:
    """A fresh frontier: the state of an analysis that has seen nothing."""
    return Frontier(config if config is not None else AnalysisConfig(), segments)


def advance(frontier: Frontier, trace, start: int = 0, end: Optional[int] = None) -> Frontier:
    """Run records ``[start, end)`` of a columnar ``trace`` through
    ``frontier``, mutating it in place (and returning it for chaining).
    Runs the loop of the frontier's kernel family, resolved as a module
    global per call."""
    n = len(trace.opclass)
    if end is None:
        end = n
    if not 0 <= start <= end <= n:
        raise ValueError(f"bad record range [{start}, {end}) for {n}-record trace")
    if start == end:
        return frontier
    if frontier.kernel == KERNEL_GENERIC:
        _advance_generic(frontier, trace, start, end)
    elif frontier.kernel == KERNEL_WINDOWED:
        _advance_windowed(frontier, trace, start, end)
    else:
        _advance_dataflow(frontier, trace, start, end)
    return frontier


def finalize(frontier: Frontier) -> AnalysisResult:
    """The :class:`AnalysisResult` of everything ``frontier`` has seen —
    identical to one ``advance`` over the concatenated records. The
    frontier itself is left untouched (lifetime flushing works on copies),
    so a caller may finalize, keep advancing, and finalize again."""
    config = frontier.config
    lifetimes = None
    if config.collect_lifetimes:
        life_hist = dict(frontier.life_hist)
        share_hist = dict(frontier.share_hist)
        life_get = life_hist.get
        share_get = share_hist.get
        for entry in frontier.well.values():
            if not entry[3]:
                uses = entry[2]
                life = entry[1] - entry[0] if uses else 0
                life_hist[life] = life_get(life, 0) + 1
                share_hist[uses] = share_get(uses, 0) + 1
        lifetimes = LifetimeStats(
            lifetime_histogram=life_hist,
            sharing_histogram=share_hist,
            values_created=sum(share_hist.values()),
            total_uses=sum(uses * count for uses, count in share_hist.items()),
        )
    profile = None
    if config.collect_profile:
        counts = [0] * (max(frontier.profile) + 1 if frontier.profile else 0)
        for level, count in frontier.profile.items():
            counts[level] = count
        profile = ParallelismProfile(counts)
    return AnalysisResult(
        records_processed=frontier.records,
        placed_operations=frontier.placed,
        critical_path_length=frontier.deepest + 1,
        profile=profile,
        syscalls=frontier.syscalls,
        firewalls=frontier.firewalls,
        branches=frontier.branches,
        mispredictions=frontier.mispredictions,
        peak_live_well=len(frontier.well),
        lifetimes=lifetimes,
        config=config,
    )


# -- per-family resumable loops -----------------------------------------------


def _window(column, start: int, end: int):
    """``column[start:end]``, or the column itself when the range covers
    all of it (the whole-trace path copies nothing)."""
    if start == 0 and end == len(column):
        return column
    return column[start:end]


def _operands(trace, start: int, end: int):
    """``(src_counts, dest_counts, src_it, dest_it)`` for records
    ``[start, end)``: the cached per-record operand arities plus plain
    running iterators over the value columns, so the loops fetch each
    operand with one C-speed ``next`` and no offset arithmetic."""
    src_counts, dest_counts = trace.operand_counts()
    src_offsets = trace.src_offsets
    dest_offsets = trace.dest_offsets
    return (
        _window(src_counts, start, end),
        _window(dest_counts, start, end),
        iter(_window(trace.src_values, src_offsets[start], src_offsets[end])),
        iter(_window(trace.dest_values, dest_offsets[start], dest_offsets[end])),
    )


def _fold_levels(fr: Frontier, levels: List[int], mark: int, deepest: int) -> None:
    """Fold one range's placement levels into ``fr``: the placement count,
    ``deepest`` (the loops only maintain it up to their last conservative
    syscall; ``levels[mark:]`` are the placements since), and the profile
    as one C-speed :class:`Counter` pass. Transient memory is O(range)."""
    if len(levels) > mark:
        since = max(levels[mark:])
        if since > deepest:
            deepest = since
    fr.deepest = deepest
    fr.placed += len(levels)
    if fr.profile is not None:
        fr.profile.update(levels)


def _advance_dataflow(fr: Frontier, trace, start: int, end: int) -> None:
    """Dataflow-limit loop: full renaming, no window, no resource limits,
    no predictor, perfect disambiguation, no lifetimes. With storage
    dependencies renamed away a well entry is just the level its value
    became available at, so the well maps location -> level (plain ints):
    sources only read it, destinations only overwrite it. One source and
    one destination — the overwhelmingly common shapes — are unrolled, and
    the syscall/branch tallies come from the trace census, not the loop."""
    latency = fr.latency
    conservative = fr.conservative
    syscall_top = latency[_SYSCALL]
    src_counts, dest_counts, src_it, dest_it = _operands(trace, start, end)

    well = fr.well
    well_set = well.setdefault
    levels: List[int] = []
    append = levels.append
    floor_m1 = fr.floor - 1  # floor - 1, the only form this loop needs
    deepest = fr.deepest
    mark = 0

    for klass, ns, nd in zip(_window(trace.opclass, start, end), src_counts, dest_counts):
        if klass < _SYSCALL:
            # Ordinary value-creating operation. A first-touch source
            # enters the well at floor - 1 via setdefault, which can never
            # raise the base, so no missing-key branch is needed.
            base = floor_m1
            if ns == 1:
                level = well_set(next(src_it), floor_m1)
                if level > base:
                    base = level
            elif ns == 2:
                level = well_set(next(src_it), floor_m1)
                if level > base:
                    base = level
                level = well_set(next(src_it), floor_m1)
                if level > base:
                    base = level
            elif ns:
                for _ in range(ns):
                    level = well_set(next(src_it), floor_m1)
                    if level > base:
                        base = level
            level = base + latency[klass]
            append(level)
            if nd == 1:
                well[next(dest_it)] = level
            elif nd:
                for _ in range(nd):
                    well[next(dest_it)] = level
        else:
            # Control record or syscall: sources are never levels here,
            # but the iterators must stay aligned with the class column.
            if ns == 1:
                next(src_it)
            elif ns:
                for _ in range(ns):
                    next(src_it)
            if klass == _SYSCALL and conservative:
                # Firewall immediately after the deepest computation; the
                # call itself is placed there.
                if len(levels) > mark:
                    since = max(levels[mark:])
                    if since > deepest:
                        deepest = since
                level = deepest + 1
                low = floor_m1 + syscall_top
                if low > level:
                    level = low
                append(level)
                deepest = level
                floor_m1 = level
                mark = len(levels)
                for _ in range(nd):
                    well[next(dest_it)] = level
            elif nd:
                for _ in range(nd):
                    next(dest_it)

    syscalls, branches = trace.census(start, end)
    fr.floor = floor_m1 + 1
    fr.records += end - start
    fr.syscalls += syscalls
    fr.firewalls += syscalls if conservative else 0
    fr.branches += branches
    _fold_levels(fr, levels, mark, deepest)


def _advance_windowed(fr: Frontier, trace, start: int, end: int) -> None:
    """The dataflow loop plus the contiguous instruction window (Figure 8
    sweeps): a ring of completion levels whose displaced entry raises the
    floor. The ring and its cursor persist on the frontier across cuts."""
    latency = fr.latency
    conservative = fr.conservative
    syscall_top = latency[_SYSCALL]
    src_counts, dest_counts, src_it, dest_it = _operands(trace, start, end)

    window = fr.config.window_size
    ring = fr.ring
    ring_pos = fr.ring_pos

    well = fr.well
    well_set = well.setdefault
    levels: List[int] = []
    append = levels.append
    floor = fr.floor
    deepest = fr.deepest
    mark = 0

    for klass, ns, nd in zip(_window(trace.opclass, start, end), src_counts, dest_counts):
        old = ring[ring_pos]
        if old is not None and old >= floor:
            floor = old + 1
        if klass < _SYSCALL:
            base = floor - 1
            first_touch = base
            if ns == 1:
                level = well_set(next(src_it), first_touch)
                if level > base:
                    base = level
            elif ns == 2:
                level = well_set(next(src_it), first_touch)
                if level > base:
                    base = level
                level = well_set(next(src_it), first_touch)
                if level > base:
                    base = level
            elif ns:
                for _ in range(ns):
                    level = well_set(next(src_it), first_touch)
                    if level > base:
                        base = level
            level = base + latency[klass]
            append(level)
            if nd == 1:
                well[next(dest_it)] = level
            elif nd:
                for _ in range(nd):
                    well[next(dest_it)] = level
            ring[ring_pos] = level
        else:
            if ns == 1:
                next(src_it)
            elif ns:
                for _ in range(ns):
                    next(src_it)
            if klass == _SYSCALL and conservative:
                if len(levels) > mark:
                    since = max(levels[mark:])
                    if since > deepest:
                        deepest = since
                level = deepest + 1
                low = floor - 1 + syscall_top
                if low > level:
                    level = low
                append(level)
                deepest = level
                floor = level + 1
                mark = len(levels)
                for _ in range(nd):
                    well[next(dest_it)] = level
                ring[ring_pos] = level
            else:
                if nd:
                    for _ in range(nd):
                        next(dest_it)
                ring[ring_pos] = None
        ring_pos += 1
        if ring_pos == window:
            ring_pos = 0

    syscalls, branches = trace.census(start, end)
    fr.floor = floor
    fr.ring_pos = ring_pos
    fr.records += end - start
    fr.syscalls += syscalls
    fr.firewalls += syscalls if conservative else 0
    fr.branches += branches
    _fold_levels(fr, levels, mark, deepest)


def _advance_generic(fr: Frontier, trace, start: int, end: int) -> None:
    """Full-semantics loop: list-valued well entries ``[level,
    deepest_use, uses, preexisting]``, WAR terms for non-renamed
    destinations, predictor firewalls, resource placement, conservative
    memory, inline lifetime accumulation (flushed by :func:`finalize`).

    Operands arrive through the same running iterators as the
    specialized loops, with one- and two-source records unrolled; the
    well entries the base computation fetched are kept for the
    deepest-use update, so each source costs one dict lookup."""
    config = fr.config
    latency = fr.latency
    rename_regs = config.rename_registers
    rename_stack = config.rename_stack
    rename_data = config.rename_data
    all_renamed = rename_regs and rename_stack and rename_data
    stack_bound = MEM_BASE + fr.segments.stack_floor
    conservative = fr.conservative
    syscall_top = latency[_SYSCALL]
    branch_top = latency[_BRANCH]
    collect_lifetimes = config.collect_lifetimes
    life_hist = fr.life_hist
    share_hist = fr.share_hist
    life_get = life_hist.get
    share_get = share_hist.get
    resources = fr.resources
    predictor = fr.predictor
    conservative_mem = fr.conservative_mem
    mem_store_level = fr.mem_store_level
    mem_deepest_access = fr.mem_deepest_access
    conditional = FLAG_CONDITIONAL
    taken = FLAG_TAKEN
    src_counts, dest_counts, src_it, dest_it = _operands(trace, start, end)

    window = config.window_size
    ring = fr.ring
    ring_pos = fr.ring_pos

    well = fr.well
    well_get = well.get
    levels: List[int] = []
    append = levels.append
    never = NEVER_USED
    floor = fr.floor
    deepest = fr.deepest
    mark = 0
    syscalls = 0
    firewalls = 0
    branches = 0
    mispredictions = 0

    for klass, flags, aux, ns, nd in zip(
        _window(trace.opclass, start, end),
        _window(trace.flags, start, end),
        _window(trace.aux, start, end),
        src_counts,
        dest_counts,
    ):
        if ring is not None:
            old = ring[ring_pos]
            if old is not None and old >= floor:
                floor = old + 1

        if klass < _SYSCALL:
            # Ordinary value-creating operation.
            top = latency[klass]
            base = floor - 1
            first_touch = base
            if ns == 1:
                src = next(src_it)
                first = well_get(src)
                if first is None:
                    # First touch: a pre-existing value, created the level
                    # before the topologically highest available level.
                    first = well[src] = [first_touch, never, 0, True]
                elif first[0] > base:
                    base = first[0]
            elif ns == 2:
                src = next(src_it)
                first = well_get(src)
                if first is None:
                    first = well[src] = [first_touch, never, 0, True]
                elif first[0] > base:
                    base = first[0]
                src = next(src_it)
                second = well_get(src)
                if second is None:
                    second = well[src] = [first_touch, never, 0, True]
                elif second[0] > base:
                    base = second[0]
            elif ns:
                entries = []
                for src in islice(src_it, ns):
                    entry = well_get(src)
                    if entry is None:
                        entry = well[src] = [first_touch, never, 0, True]
                    elif entry[0] > base:
                        base = entry[0]
                    entries.append(entry)
            level = base + top

            if nd == 1:
                dests = (next(dest_it),)
            elif nd:
                dests = tuple(islice(dest_it, nd))
            else:
                dests = ()
            if not all_renamed:
                for dest in dests:
                    if dest < MEM_BASE:
                        renamed = rename_regs
                    elif dest >= stack_bound:
                        renamed = rename_stack
                    else:
                        renamed = rename_data
                    if not renamed:
                        entry = well_get(dest)
                        if entry is not None:
                            war = entry[1] + 1
                            if war > level:
                                level = war

            if conservative_mem:
                # No alias analysis: a load depends on the last store as if
                # it read the value it wrote; a store waits behind every
                # earlier memory access it might conflict with.
                if klass == _LOAD:
                    if mem_store_level + top > level:
                        level = mem_store_level + top
                elif klass == _STORE:
                    if mem_deepest_access + 1 > level:
                        level = mem_deepest_access + 1

            if resources is not None:
                level = resources.place(klass, level)

            append(level)
            if conservative_mem and (klass == _LOAD or klass == _STORE):
                if level > mem_deepest_access:
                    mem_deepest_access = level
                if klass == _STORE and level > mem_store_level:
                    mem_store_level = level

            if ns == 1:
                if level > first[1]:
                    first[1] = level
                first[2] += 1
            elif ns == 2:
                if level > first[1]:
                    first[1] = level
                first[2] += 1
                if level > second[1]:
                    second[1] = level
                second[2] += 1
            elif ns:
                for entry in entries:
                    if level > entry[1]:
                        entry[1] = level
                    entry[2] += 1

            for dest in dests:
                if collect_lifetimes:
                    old_entry = well_get(dest)
                    if old_entry is not None and not old_entry[3]:
                        uses = old_entry[2]
                        life = old_entry[1] - old_entry[0] if uses else 0
                        life_hist[life] = life_get(life, 0) + 1
                        share_hist[uses] = share_get(uses, 0) + 1
                well[dest] = [level, never, 0, False]
            slot = level

        elif klass == _SYSCALL:
            syscalls += 1
            for _ in range(ns):
                next(src_it)
            if conservative:
                # Firewall immediately after the deepest computation; the
                # call itself is placed there.
                if len(levels) > mark:
                    since = max(levels[mark:])
                    if since > deepest:
                        deepest = since
                level = deepest + 1
                low = floor - 1 + syscall_top
                if low > level:
                    level = low
                firewalls += 1
                append(level)
                deepest = level
                floor = level + 1
                mark = len(levels)
                for dest in islice(dest_it, nd):
                    if collect_lifetimes:
                        old_entry = well_get(dest)
                        if old_entry is not None and not old_entry[3]:
                            uses = old_entry[2]
                            life = old_entry[1] - old_entry[0] if uses else 0
                            life_hist[life] = life_get(life, 0) + 1
                            share_hist[uses] = share_get(uses, 0) + 1
                    well[dest] = [level, never, 0, False]
                slot = level
            else:
                for _ in range(nd):
                    next(dest_it)
                slot = None

        else:  # BRANCH / JUMP / NOP: not placed in the DDG
            if klass == _BRANCH and flags & conditional:
                branches += 1
                if predictor is not None:
                    actual = bool(flags & taken)
                    predicted = predictor.predict(aux)
                    predictor.update(aux, actual)
                    if predicted != actual:
                        # A misprediction firewalls at the branch's
                        # resolution level.
                        mispredictions += 1
                        base = floor - 1
                        for src in islice(src_it, ns):
                            entry = well_get(src)
                            if entry is not None and entry[0] > base:
                                base = entry[0]
                        ns = 0  # the sources are consumed
                        resolve = base + branch_top
                        if resolve > floor:
                            floor = resolve
                            firewalls += 1
            if ns == 1:
                next(src_it)
            elif ns:
                for _ in range(ns):
                    next(src_it)
            if nd:
                for _ in range(nd):
                    next(dest_it)
            slot = None

        if ring is not None:
            ring[ring_pos] = slot
            ring_pos += 1
            if ring_pos == window:
                ring_pos = 0

    fr.floor = floor
    fr.ring_pos = ring_pos
    fr.mem_store_level = mem_store_level
    fr.mem_deepest_access = mem_deepest_access
    fr.records += end - start
    fr.syscalls += syscalls
    fr.firewalls += firewalls
    fr.branches += branches
    fr.mispredictions += mispredictions
    _fold_levels(fr, levels, mark, deepest)


# -- whole-trace entry points -------------------------------------------------


def as_columnar(trace, segments: Optional[SegmentMap] = None):
    """``trace`` as a :class:`~repro.trace.columnar.ColumnarTrace`: as is
    when it already is one, flattened once from a
    :class:`~repro.trace.buffer.TraceBuffer`, and buffered first from any
    other record iterable (under ``segments``, default
    :data:`DEFAULT_SEGMENTS`)."""
    from repro.trace.buffer import TraceBuffer
    from repro.trace.columnar import ColumnarTrace

    if isinstance(trace, ColumnarTrace):
        return trace
    if not isinstance(trace, TraceBuffer):
        trace = TraceBuffer(trace, segments or DEFAULT_SEGMENTS)
    return ColumnarTrace.from_buffer(trace)


def stream_analyze_trace(
    trace,
    config: Optional[AnalysisConfig] = None,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    segments: Optional[SegmentMap] = None,
) -> AnalysisResult:
    """Analyze ``trace`` by advancing one frontier over fixed-size record
    chunks. Exact for every configuration; exists so the chunk-cut
    machinery is exercisable (and verifiable) without a file."""
    if chunk_records < 1:
        raise ValueError(f"chunk_records must be >= 1, got {chunk_records}")
    columnar = as_columnar(trace)
    if config is None:
        config = AnalysisConfig()
    if segments is None:
        segments = columnar.segments
    fr = new_frontier(config, segments)
    count = len(columnar.opclass)
    for start in range(0, count, chunk_records):
        advance(fr, columnar, start, min(start + chunk_records, count))
    return finalize(fr)


def stream_analyze_file(
    path,
    config: Optional[AnalysisConfig] = None,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    cap: Optional[int] = None,
) -> AnalysisResult:
    """Analyze a PGT2 trace file with bounded memory: chunks decode off an
    ``mmap`` one at a time (see :func:`repro.trace.chunked.iter_chunks`)
    and fold into a single frontier. ``cap`` stops the analysis after that
    many records; the header digest is verified over the whole file
    either way."""
    from repro.obs.spans import span as _span
    from repro.trace.io import read_header

    if config is None:
        config = AnalysisConfig()
    with open(path, "rb") as stream:
        segments, _, _ = read_header(stream)
    fr = new_frontier(config, segments)
    with _span("stream.analyze_file"):
        for chunk in iter_chunks(path, chunk_records, limit=cap):
            advance(fr, chunk)
    return finalize(fr)
