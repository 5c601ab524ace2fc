"""The streaming Paragraph analyzer (paper section 3.2, method 2).

One forward pass over the serial trace builds the parallelism profile and
critical path without materializing the DDG. Per value-creating record the
placement rule is::

    avail  = max(level(src) for src in sources, default floor-1)
    Ldest  = max(avail, floor - 1) + top(class)
    Ldest  = max(Ldest, Ddest + 1)        # only for non-renamed destinations
    Ldest  = first free level >= Ldest    # only under resource constraints

where ``floor`` is the first level available after the most recent firewall
(``highestLevel`` in the paper) and ``Ddest`` is the deepest consumer of the
value previously bound to the destination location.

Note on the placement formula: the paper's text writes
``MAX(Lsrc1, Lsrc2, highestLevel, Ddest+1) + top``, but its own worked
examples (Figures 1, 2 and 5) require the WAR term *not* to be scaled by
``top`` and pre-existing/firewall terms to land a unit-latency dependent at
``highestLevel`` itself; the rule above matches every figure exactly. See
DESIGN.md section 4.

The pass itself lives in :mod:`repro.core.stream`: a whole-trace analysis
is ``finalize(advance(new_frontier(...), trace))`` over the columnar
trace, running the one resumable loop of the configuration's kernel
family (:func:`repro.core.kernels.select_kernel`). Chunked streaming
advances the very same loops, so it cannot drift from this entry point. :mod:`repro.core.reference` holds the readable
reference implementation that tests cross-validate against.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.config import AnalysisConfig
from repro.core.results import AnalysisResult
from repro.core.stream import advance, as_columnar, finalize, new_frontier
from repro.obs import metrics as _obs
from repro.obs.spans import span as _span
from repro.trace.segments import SegmentMap


def analyze(
    trace: Iterable,
    config: Optional[AnalysisConfig] = None,
    segments: Optional[SegmentMap] = None,
) -> AnalysisResult:
    """Run one Paragraph analysis over ``trace``.

    Args:
        trace: a :class:`~repro.trace.columnar.ColumnarTrace` (analyzed
            as is), a :class:`~repro.trace.buffer.TraceBuffer` (flattened
            to columns once), or any iterable of trace records. Traces
            carry their own segment map.
        config: the analysis configuration (defaults to the dataflow limit:
            conservative syscalls, full renaming, unlimited window).
        segments: segment map override.

    Returns:
        An :class:`~repro.core.results.AnalysisResult`.
    """
    if config is None:
        config = AnalysisConfig()
    trace = as_columnar(trace, segments)
    if segments is None:
        segments = trace.segments
    frontier = new_frontier(config, segments)
    # The span is per analysis, not per record: with metrics off this is a
    # single predicate on the null registry; with metrics on it prices each
    # kernel family separately (``span.kernel.scan.<kernel>.wall``).
    if not _obs.enabled():
        return finalize(advance(frontier, trace))
    with _span(f"kernel.scan.{frontier.kernel}"):
        return finalize(advance(frontier, trace))
