"""Per-layer metrics of a traced run, named after the repro packages.

Times (``*_s``) are wall-share self times from :func:`tracer.attribute`
unless noted; counts are summed over the spans that started inside the
traced window. Every metric is reported on every workload; a layer the
workload does not reach reads 0.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from tracer import Span, attribute, totals

#: (metric, unit) in report order; BENCHMARK.json lists the same.
PER_LAYER: List[Tuple[str, str]] = [
    ("lang.compile_s", "s"),
    ("lang.compile_calls", "count"),
    ("cpu.simulate_s", "s"),
    ("cpu.instructions", "count"),
    ("trace.digest_s", "s"),
    ("trace.encode_s", "s"),
    ("trace.encode_bytes", "bytes"),
    ("trace.columnar_build_s", "s"),
    ("trace.decode_s", "s"),
    ("trace.decode_bytes", "bytes"),
    ("trace.to_buffer_s", "s"),
    ("trace.to_buffer_calls", "count"),
    ("trace.shm_pack_s", "s"),
    ("trace.shm_attach_s", "s"),
    ("core.dataflow_s", "s"),
    ("core.windowed_s", "s"),
    ("core.generic_s", "s"),
    ("core.dataflow_records", "count"),
    ("core.windowed_records", "count"),
    ("core.generic_records", "count"),
    ("engine.grid_s", "s"),
    ("engine.jobs", "count"),
    ("engine.job_busy_s", "s"),
    ("engine.queue_wait_s", "s"),
    ("engine.retries", "count"),
    ("engine.failed", "count"),
    ("engine.pool_idle_s", "s"),
    ("engine.cache_load_s", "s"),
    ("engine.cache_store_s", "s"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.serialize_s", "s"),
    ("harness.trace_store_s", "s"),
    ("harness.render_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.stream_s", "s"),
    ("serve.fetch_s", "s"),
    ("serve.exec_s", "s"),
    ("serve.overhead_s", "s"),
    ("serve.result_bytes", "bytes"),
    ("serve.dedupe_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("serve.miss_p50_s", "s"),
    ("serve.miss_p60_s", "s"),
    ("serve.hit_p50_s", "s"),
    ("serve.dup_p50_s", "s"),
    ("serve.miss_samples", "count"),
    ("serve.hit_samples", "count"),
    ("serve.dup_samples", "count"),
    ("error_rate", "ratio"),
    ("traced_wall_s", "s"),
    ("unattributed_s", "s"),
    ("tracing_overhead_s", "s"),
]

#: Span name -> self-time metric.
SELF_TIME = {
    "lang.compile": "lang.compile_s",
    "cpu.simulate": "cpu.simulate_s",
    "trace.digest": "trace.digest_s",
    "trace.encode": "trace.encode_s",
    "trace.columnar_build": "trace.columnar_build_s",
    "trace.decode": "trace.decode_s",
    "trace.to_buffer": "trace.to_buffer_s",
    "trace.shm_pack": "trace.shm_pack_s",
    "trace.shm_attach": "trace.shm_attach_s",
    "core.dataflow": "core.dataflow_s",
    "core.windowed": "core.windowed_s",
    "core.generic": "core.generic_s",
    "engine.grid": "engine.grid_s",
    "engine.cache_load": "engine.cache_load_s",
    "engine.cache_store": "engine.cache_store_s",
    "engine.serialize": "engine.serialize_s",
    "harness.trace_store": "harness.trace_store_s",
    "harness.render": "harness.render_s",
    "serve.submit": "serve.submit_s",
    "serve.stream": "serve.stream_s",
    "serve.fetch": "serve.fetch_s",
}

#: (span name, attr) -> count metric.
COUNTS = {
    ("lang.compile", "calls"): "lang.compile_calls",
    ("cpu.simulate", "instructions"): "cpu.instructions",
    ("trace.encode", "bytes"): "trace.encode_bytes",
    ("trace.decode", "bytes"): "trace.decode_bytes",
    ("trace.to_buffer", "calls"): "trace.to_buffer_calls",
    ("core.dataflow", "records"): "core.dataflow_records",
    ("core.windowed", "records"): "core.windowed_records",
    ("core.generic", "records"): "core.generic_records",
    ("engine.grid", "jobs"): "engine.jobs",
    ("engine.grid", "busy"): "engine.job_busy_s",
    ("engine.grid", "queue_wait"): "engine.queue_wait_s",
    ("engine.grid", "retries"): "engine.retries",
    ("engine.grid", "failed"): "engine.failed",
}


def layer_metrics(
    spans: List[Span],
    window: Tuple[float, float],
    untraced_wall_s: Optional[float],
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced window. ``extra``
    supplies the values measured by the workload itself (serve client
    figures, error rate). Without an untraced reference wall the tracing
    overhead reads 0."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    shares = attribute(spans, window)
    for span_name, metric in SELF_TIME.items():
        values[metric] = shares.get(span_name, 0.0)
    sums = totals(spans, window)
    for (span_name, attr), metric in COUNTS.items():
        values[metric] = sums.get(span_name, {}).get(attr, 0.0)
    lo, hi = window
    grids = [s for s in spans if s[0] == "engine.grid" and lo <= s[3] <= hi]
    values["engine.pool_idle_s"] = sum(
        s[6]["workers"] * (s[4] - s[3]) - s[6]["busy"] for s in grids
    )
    cache = sums.get("engine.cache_load", {})
    if cache.get("loads"):
        values["engine.cache_hit_ratio"] = cache["hit"] / cache["loads"]
    values.update(extra or {})
    wall = hi - lo
    values["traced_wall_s"] = wall
    values["unattributed_s"] = wall - sum(shares.values())
    if untraced_wall_s is not None:
        values["tracing_overhead_s"] = wall - untraced_wall_s
    return values
