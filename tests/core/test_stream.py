"""Frontier streaming reproduces whole-trace analysis.

The load-bearing property of :mod:`repro.core.stream` is *exactness*:
chunked streaming, from memory or from a file, must equal the monolithic
analyzer field-for-field on every configuration. Equality is checked on
:func:`~repro.engine.serialize.result_to_dict` encodings — the engine's
canonical byte-identity form — never on object ``==``.
"""

import random

import pytest

from repro.core.analyzer import analyze
from repro.core.config import OPTIMISTIC, AnalysisConfig
from repro.core.resources import ResourceModel
from repro.core.stream import (
    advance,
    finalize,
    new_frontier,
    stream_analyze_file,
    stream_analyze_trace,
)
from repro.engine.serialize import result_to_dict
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import write_trace_file
from repro.trace.synthetic import TraceBuilder, random_trace
from repro.verify.generate import generate_trace, sample_config

#: One configuration per kernel/feature axis the frontier must carry.
CONFIGS = [
    AnalysisConfig(),                                   # dataflow kernel
    AnalysisConfig(window_size=4),                      # windowed kernel
    AnalysisConfig(window_size=1),
    AnalysisConfig.no_renaming(),                       # generic: WAR terms
    AnalysisConfig(rename_stack=False, window_size=8),  # generic + ring
    AnalysisConfig(syscall_policy=OPTIMISTIC),
    AnalysisConfig(memory_disambiguation="conservative"),
    AnalysisConfig(branch_predictor="bimodal"),            # sequential-only state
    AnalysisConfig(collect_lifetimes=True),
    AnalysisConfig(resources=ResourceModel(universal=2)),
]


def expected(trace, config):
    return result_to_dict(analyze(trace, config))


class TestStreamEquivalence:
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_chunked_equals_whole(self, config, chunk):
        trace = random_trace(11, 150, syscall_fraction=0.04)
        got = result_to_dict(stream_analyze_trace(trace, config, chunk_records=chunk))
        assert got == expected(trace, config)

    def test_adversarial_cases_at_every_cut(self):
        rng = random.Random(99)
        for _ in range(50):
            config = sample_config(rng)
            trace = generate_trace(rng)
            want = expected(trace, config)
            for chunk in (1, 2, len(trace)):
                got = stream_analyze_trace(trace, config, chunk_records=chunk)
                assert result_to_dict(got) == want, config.describe()

    def test_empty_trace(self):
        empty = TraceBuilder().build()
        config = AnalysisConfig()
        assert result_to_dict(stream_analyze_trace(empty, config)) == expected(
            empty, config
        )

    def test_finalize_is_repeatable(self):
        trace = ColumnarTrace.from_buffer(
            random_trace(13, 80, syscall_fraction=0.05)
        )
        config = AnalysisConfig(collect_lifetimes=True, window_size=4)
        fr = new_frontier(config, trace.segments)
        advance(fr, trace, 0, 40)
        first = result_to_dict(finalize(fr))
        assert result_to_dict(finalize(fr)) == first  # finalize did not mutate
        advance(fr, trace, 40)
        assert result_to_dict(finalize(fr)) == expected(trace.to_buffer(), config)

    def test_advance_rejects_bad_range(self):
        trace = ColumnarTrace.from_buffer(random_trace(14, 10))
        fr = new_frontier(AnalysisConfig(), trace.segments)
        with pytest.raises(ValueError, match="bad record range"):
            advance(fr, trace, 5, 20)

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_records"):
            stream_analyze_trace(random_trace(15, 10), chunk_records=0)


class TestStreamFile:
    @pytest.fixture
    def trace_file(self, tmp_path):
        trace = random_trace(17, 150, syscall_fraction=0.04)
        path = str(tmp_path / "t.pgt2")
        write_trace_file(path, trace)
        return trace, path

    @pytest.mark.parametrize("config", CONFIGS)
    def test_file_equals_whole(self, trace_file, config):
        trace, path = trace_file
        got = stream_analyze_file(path, config, chunk_records=16)
        assert result_to_dict(got) == expected(trace, config)

    @pytest.mark.parametrize("cap", [1, 40, 149, 150, 1000])
    def test_cap_equals_head(self, trace_file, cap):
        trace, path = trace_file
        config = AnalysisConfig(window_size=4)
        got = stream_analyze_file(path, config, chunk_records=16, cap=cap)
        assert result_to_dict(got) == expected(trace.head(cap), config)
