"""Exact JSON serialization of analysis results.

The engine moves :class:`~repro.core.results.AnalysisResult` values across
process and disk boundaries — worker process -> parent, result cache ->
later runs, run journal -> ``--resume``, server -> client — and the
determinism contract is *byte identity*: a grid run with ``--jobs 4`` or a
warm cache must reproduce the serial path exactly. Every field is
therefore an int, bool, string, or structure of those (Python ints survive
JSON exactly at any magnitude). The parallelism profile is encoded as its
dense per-level count list; the two lifetime histograms, which are sparse,
as sorted ``[key, count]`` pairs, so the encoded form is canonical, not
dict-order dependent. :func:`result_to_bytes` is the one canonical byte
form, and :func:`result_from_bytes` its inverse.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.core.config import AnalysisConfig
from repro.core.lifetimes import LifetimeStats
from repro.core.profile import ParallelismProfile
from repro.core.results import AnalysisResult


def _histogram_to_pairs(histogram: Dict[int, int]) -> List[List[int]]:
    return [[int(key), int(count)] for key, count in sorted(histogram.items())]


def _histogram_from_pairs(pairs: List[List[int]]) -> Dict[int, int]:
    return {int(key): int(count) for key, count in pairs}


def lifetimes_to_dict(stats: Optional[LifetimeStats]) -> Optional[dict]:
    if stats is None:
        return None
    return {
        "lifetime_histogram": _histogram_to_pairs(stats.lifetime_histogram),
        "sharing_histogram": _histogram_to_pairs(stats.sharing_histogram),
        "values_created": stats.values_created,
        "total_uses": stats.total_uses,
    }


def lifetimes_from_dict(data: Optional[dict]) -> Optional[LifetimeStats]:
    if data is None:
        return None
    return LifetimeStats(
        lifetime_histogram=_histogram_from_pairs(data["lifetime_histogram"]),
        sharing_histogram=_histogram_from_pairs(data["sharing_histogram"]),
        values_created=data["values_created"],
        total_uses=data["total_uses"],
    )


def result_to_dict(result: AnalysisResult) -> dict:
    """Encode a result (and the config that produced it) as JSON-safe data."""
    return {
        "records_processed": result.records_processed,
        "placed_operations": result.placed_operations,
        "critical_path_length": result.critical_path_length,
        "profile": None if result.profile is None else result.profile.counts,
        "syscalls": result.syscalls,
        "firewalls": result.firewalls,
        "branches": result.branches,
        "mispredictions": result.mispredictions,
        "peak_live_well": result.peak_live_well,
        "lifetimes": lifetimes_to_dict(result.lifetimes),
        "config": result.config.canonical(),
    }


def result_from_dict(data: dict) -> AnalysisResult:
    """Inverse of :func:`result_to_dict`."""
    profile = data["profile"]
    return AnalysisResult(
        records_processed=data["records_processed"],
        placed_operations=data["placed_operations"],
        critical_path_length=data["critical_path_length"],
        profile=None if profile is None else ParallelismProfile(list(profile)),
        syscalls=data["syscalls"],
        firewalls=data["firewalls"],
        branches=data["branches"],
        mispredictions=data["mispredictions"],
        peak_live_well=data["peak_live_well"],
        lifetimes=lifetimes_from_dict(data["lifetimes"]),
        config=AnalysisConfig.from_canonical(data["config"]),
    )


def result_to_bytes(result: AnalysisResult) -> bytes:
    """Canonical byte encoding (the form the determinism tests compare)."""
    return json.dumps(
        result_to_dict(result), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def result_from_bytes(blob: bytes) -> AnalysisResult:
    """Inverse of :func:`result_to_bytes`."""
    return result_from_dict(json.loads(blob))
