"""Trace store caching, staleness recovery, and disk sharing."""

import os

import pytest

from repro.harness.runner import TraceStore
from repro.obs import metrics as obs
from repro.obs.metrics import MetricsRegistry
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import read_trace_digest, write_trace_file
from repro.trace.synthetic import random_trace
from repro.workloads.suite import load_workload


@pytest.fixture
def registry():
    previous = obs.registry()
    registry = MetricsRegistry()
    obs.set_registry(registry)
    yield registry
    obs.set_registry(previous)


def counters(registry, prefix):
    return {
        name[len(prefix) :]: value
        for name, value in registry.snapshot()["counters"].items()
        if name.startswith(prefix) and value
    }


class TestMemoryCache:
    def test_trace_cached_by_key(self):
        store = TraceStore()
        first = store.trace("xlispx", 2000)
        second = store.trace("xlispx", 2000)
        assert first is second

    def test_distinct_caps_distinct_traces(self):
        store = TraceStore()
        assert len(store.trace("xlispx", 1000)) == 1000
        assert len(store.trace("xlispx", 3000)) == 3000

    def test_accepts_workload_object(self):
        store = TraceStore()
        workload = load_workload("cc1x")
        assert len(store.trace(workload, 500)) == 500

    def test_optimize_cached_separately(self):
        store = TraceStore()
        plain = store.trace("xlispx", 1000)
        optimized = store.trace("xlispx", 1000, optimize=True)
        assert plain is not optimized
        assert store.trace("xlispx", 1000, optimize=True) is optimized


class TestColdColumnar:
    """A cold trace is simulated once and decoded from its PGT2 bytes: the
    columns are never iterated back into records, and their digest is the
    one those bytes carry."""

    @pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "disk"])
    def test_cold_columnar_decodes_without_iterating(
        self, tmp_path, monkeypatch, registry, on_disk
    ):
        directory = str(tmp_path / "traces") if on_disk else None
        simulated = load_workload("xlispx").trace(max_instructions=1200)

        def refuse(self):
            raise AssertionError("cold columnar() iterated its columns")

        monkeypatch.setattr(ColumnarTrace, "__iter__", refuse)
        columnar = TraceStore(directory).columnar("xlispx", 1200)
        assert len(columnar) == 1200
        assert columnar.digest() == simulated.digest()
        if on_disk:
            path = os.path.join(directory, "xlispx.1200.pgt")
            assert read_trace_digest(path) == columnar.digest()
        assert counters(registry, "trace.digest_from_records") == {}


class TestRegister:
    def test_registered_trace_served_and_spilled(self, tmp_path):
        store = TraceStore(str(tmp_path))
        trace = random_trace(seed=3, length=150)
        cap = store.register("case-1", trace)
        assert cap == 150
        assert store.columnar("case-1", cap).digest() == trace.digest()
        assert store.trace("case-1", cap).records == trace.records
        path, digest = store.ensure_on_disk("case-1", cap)
        assert digest == trace.digest() == read_trace_digest(path)

    def test_invalidate_keeps_registered_trace(self, tmp_path):
        store = TraceStore(str(tmp_path))
        trace = random_trace(seed=3, length=150)
        cap = store.register("case-1", trace)
        path, _ = store.ensure_on_disk("case-1", cap)
        assert store.invalidate("case-1", cap) is True  # the disk spill went
        assert not os.path.exists(path)
        assert store.columnar("case-1", cap).digest() == trace.digest()

    def test_unregister_forgets(self):
        store = TraceStore()
        cap = store.register("case-1", random_trace(seed=3, length=10))
        assert store.unregister("case-1", cap) is True
        assert store.unregister("case-1", cap) is False
        with pytest.raises(KeyError):
            store.columnar("case-1", cap)  # no workload of that name


class TestDiskCache:
    def test_round_trip_through_disk(self, tmp_path):
        directory = str(tmp_path / "traces")
        first_store = TraceStore(directory)
        trace = first_store.trace("xlispx", 1500)
        assert os.path.exists(os.path.join(directory, "xlispx.1500.pgt"))
        second_store = TraceStore(directory)
        loaded = second_store.trace("xlispx", 1500)
        assert loaded.records == trace.records


class TestStaleness:
    """A stale, truncated, or corrupted cache file must fail loudly and be
    regenerated — never silently analyzed."""

    def _cache_file(self, tmp_path, cap=1500):
        directory = str(tmp_path / "traces")
        fresh = TraceStore(directory).trace("xlispx", cap)
        return directory, os.path.join(directory, f"xlispx.{cap}.pgt"), fresh

    def test_corrupted_record_regenerated(self, tmp_path, caplog):
        directory, path, fresh = self._cache_file(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[-2] ^= 0xFF  # flip a bit in the record stream
        open(path, "wb").write(bytes(data))
        with caplog.at_level("WARNING", logger="repro.harness.runner"):
            reloaded = TraceStore(directory).trace("xlispx", 1500)
        assert reloaded.records == fresh.records
        assert any("regenerating" in message for message in caplog.messages)
        read_trace_digest(path)  # the rewritten file is valid again

    def test_truncated_file_regenerated(self, tmp_path, caplog):
        directory, path, fresh = self._cache_file(tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        with caplog.at_level("WARNING", logger="repro.harness.runner"):
            reloaded = TraceStore(directory).trace("xlispx", 1500)
        assert reloaded.records == fresh.records
        assert any("regenerating" in message for message in caplog.messages)

    def test_truncated_mid_header_regenerated(self, tmp_path, caplog):
        """Cut inside the 60-byte PGT2 header — the read fails before a
        single record (or the digest) is seen."""
        directory, path, fresh = self._cache_file(tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:30])
        with caplog.at_level("WARNING", logger="repro.harness.runner"):
            reloaded = TraceStore(directory).trace("xlispx", 1500)
        assert reloaded.records == fresh.records
        assert any("regenerating" in message for message in caplog.messages)
        read_trace_digest(path)  # rewritten file is whole again

    def test_truncated_mid_records_regenerated(self, tmp_path, caplog):
        """Cut a few bytes into the record stream — header parses, digest
        check never gets a full stream to verify."""
        directory, path, fresh = self._cache_file(tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:70])  # header (60 B) + partial record
        with caplog.at_level("WARNING", logger="repro.harness.runner"):
            reloaded = TraceStore(directory).trace("xlispx", 1500)
        assert reloaded.records == fresh.records
        assert any("regenerating" in message for message in caplog.messages)
        read_trace_digest(path)

    def test_truncated_file_regenerated_by_columnar(self, tmp_path, caplog):
        """The columnar path (what parallel grids use) recovers from both
        truncation shapes too."""
        directory, path, fresh = self._cache_file(tmp_path)
        for cut in (30, 70):  # mid-header, then mid-records
            data = open(path, "rb").read()
            open(path, "wb").write(data[:cut])
            with caplog.at_level("WARNING", logger="repro.harness.runner"):
                reloaded = TraceStore(directory).columnar("xlispx", 1500)
            assert reloaded.digest() == fresh.digest()
            assert any("regenerating" in message for message in caplog.messages)
            caplog.clear()

    @pytest.mark.parametrize("stale", ["format_error", "over_cap"])
    def test_stale_file_decoded_once_and_counted_once(
        self, tmp_path, caplog, registry, monkeypatch, stale
    ):
        directory, path, fresh = self._cache_file(tmp_path)
        if stale == "format_error":
            data = bytearray(open(path, "rb").read())
            data[-2] ^= 0xFF
            open(path, "wb").write(bytes(data))
        else:
            write_trace_file(path, random_trace(seed=1, length=1600))
        decodes = []
        original = ColumnarTrace.from_file.__func__

        def counted(cls, target):
            decodes.append(target)
            return original(cls, target)

        monkeypatch.setattr(ColumnarTrace, "from_file", classmethod(counted))
        with caplog.at_level("WARNING", logger="repro.harness.runner"):
            reloaded = TraceStore(directory).columnar("xlispx", 1500)
        assert reloaded.digest() == fresh.digest()
        warnings = [m for m in caplog.messages if "regenerating" in m]
        assert len(warnings) == 1
        assert counters(registry, "trace_store.regenerate.") == {stale: 1}
        # the stale file once, then the rewritten file once
        assert decodes == [path, path]

    def test_invalidate_drops_all_cached_forms(self, tmp_path):
        directory, path, fresh = self._cache_file(tmp_path)
        store = TraceStore(directory)
        store.trace("xlispx", 1500)
        store.columnar("xlispx", 1500)
        assert store.invalidate("xlispx", 1500) is True
        assert not os.path.exists(path)
        assert store.invalidate("xlispx", 1500) is False  # nothing left
        regenerated = store.trace("xlispx", 1500)
        assert regenerated.records == fresh.records
        assert os.path.exists(path)

    def test_oversized_file_regenerated(self, tmp_path, caplog):
        """A valid file holding more records than the cap is stale (written
        under the same name by a run with different parameters)."""
        directory = str(tmp_path / "traces")
        store = TraceStore(directory)
        path = os.path.join(directory, "xlispx.1500.pgt")
        write_trace_file(path, random_trace(seed=1, length=1600))
        with caplog.at_level("WARNING", logger="repro.harness.runner"):
            reloaded = store.trace("xlispx", 1500)
        assert len(reloaded) <= 1500
        assert any("regenerating" in message for message in caplog.messages)


class TestEnsureOnDisk:
    def test_requires_disk_backed_store(self):
        with pytest.raises(ValueError, match="disk-backed"):
            TraceStore().ensure_on_disk("xlispx", 1000)

    def test_digest_matches_memory_and_header(self, tmp_path):
        store = TraceStore(str(tmp_path))
        path, digest = store.ensure_on_disk("xlispx", 1000)
        assert digest == store.trace("xlispx", 1000).digest()
        assert read_trace_digest(path) == digest

    def test_cold_file_needs_header_only(self, tmp_path, monkeypatch):
        _, digest = TraceStore(str(tmp_path)).ensure_on_disk("xlispx", 1000)
        cold = TraceStore(str(tmp_path))

        def refuse(*args, **kwargs):
            raise AssertionError("ensure_on_disk loaded the records")

        monkeypatch.setattr(cold, "columnar", refuse)
        path, cold_digest = cold.ensure_on_disk("xlispx", 1000)
        # records were never loaded: the digest came from the file header
        assert cold_digest == digest

    def test_divergent_disk_file_rewritten(self, tmp_path):
        store = TraceStore(str(tmp_path))
        trace = store.trace("xlispx", 1000)  # in memory and on disk
        path = os.path.join(str(tmp_path), "xlispx.1000.pgt")
        write_trace_file(path, random_trace(seed=2, length=100))  # clobber
        returned_path, digest = store.ensure_on_disk("xlispx", 1000)
        assert returned_path == path
        assert digest == trace.digest()
        assert read_trace_digest(path) == digest

    def test_corrupt_file_regenerated(self, tmp_path, caplog):
        store = TraceStore(str(tmp_path))
        path, digest = store.ensure_on_disk("xlispx", 1000)
        open(path, "wb").write(b"garbage")
        cold = TraceStore(str(tmp_path))
        with caplog.at_level("WARNING", logger="repro.harness.runner"):
            repaired_path, repaired_digest = cold.ensure_on_disk("xlispx", 1000)
        assert repaired_path == path
        assert repaired_digest == digest
        assert read_trace_digest(path) == digest


class TestFullRunLength:
    def test_length_cached(self):
        store = TraceStore()
        first = store.full_run_length("doducx")
        second = store.full_run_length("doducx")
        assert first == second > 100_000
