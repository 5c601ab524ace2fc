"""Live well data structure, including the paper's Figure 5 walkthrough."""

from repro.core.livewell import NEVER_USED, LiveWell
from repro.core.reference import ReferenceAnalyzer
from repro.core.config import AnalysisConfig
from repro.core.latency import LatencyTable
from repro.isa.locations import memory_location
from repro.trace.segments import DEFAULT_SEGMENTS

DATA = 0x1000


class TestLiveWell:
    def test_lookup_materializes_preexisting(self):
        well = LiveWell()
        value = well.lookup(5, preexisting_level=-1)
        assert value.preexisting
        assert value.level == -1
        assert len(well) == 1

    def test_lookup_returns_same_entry(self):
        well = LiveWell()
        first = well.lookup(5, -1)
        second = well.lookup(5, -1)
        assert first is second

    def test_peek_does_not_materialize(self):
        well = LiveWell()
        assert well.peek(9) is None
        assert len(well) == 0

    def test_create_evicts_previous(self):
        well = LiveWell()
        well.create(3, level=1)
        evicted = well.create(3, level=5)
        assert evicted.level == 1
        assert well.peek(3).level == 5

    def test_use_tracks_deepest_and_count(self):
        well = LiveWell()
        well.create(3, level=0)
        well.use(3, consumer_level=4)
        well.use(3, consumer_level=2)
        value = well.peek(3)
        assert value.deepest_use == 4
        assert value.uses == 2

    def test_new_value_never_used(self):
        well = LiveWell()
        well.create(3, level=0)
        assert well.peek(3).deepest_use == NEVER_USED

    def test_remove(self):
        well = LiveWell()
        well.create(3, level=0)
        removed = well.remove(3)
        assert removed.level == 0
        assert well.peek(3) is None
        assert well.remove(3) is None

    def test_peak_size_tracks_high_water(self):
        well = LiveWell()
        for loc in range(10):
            well.create(loc, 0)
        for loc in range(10):
            well.remove(loc)
        assert len(well) == 0
        assert well.peak_size == 10


class TestEdgeCases:
    """Corner cases the verification fuzzer leans on (see repro.verify)."""

    def build(self, trace, **config_kwargs):
        kwargs = {"latency": LatencyTable.unit(), **config_kwargs}
        analyzer = ReferenceAnalyzer(AnalysisConfig(**kwargs), DEFAULT_SEGMENTS)
        for record in trace:
            analyzer.step(record)
        return analyzer

    def test_same_register_read_then_write(self):
        """``r1 <- f(r1)``: the read sees the OLD value; the write creates a
        new one strictly below it. One instruction, both roles."""
        from repro.trace.synthetic import TraceBuilder

        builder = TraceBuilder()
        builder.ialu(1)      # v_old at level 0
        builder.ialu(1, 1)   # r1 <- r1: reads v_old, rebinds r1
        analyzer = self.build(builder.build())
        value = analyzer.well.peek(1)
        assert value.level == 1          # the new value, one below its source
        assert not value.preexisting
        assert value.uses == 0           # nothing has read the new value yet
        result = analyzer.finish()
        assert result.critical_path_length == 2
        assert result.profile.counts == [1, 1]

    def test_store_to_address_just_freed(self):
        """Overwrite of a dead memory value: the new store's WAR constraint
        still sees the dead value's deepest use when data is not renamed."""
        from repro.trace.synthetic import TraceBuilder

        builder = TraceBuilder()
        builder.ialu(1)            # level 0
        builder.store(1, DATA)     # level 1, value S1
        builder.load(2, DATA)      # level 2 reads S1 — its last use
        builder.ialu(3)            # level 0, independent
        builder.store(3, DATA)     # rebinds DATA; WAR: must be > S1's last use
        trace = builder.build()

        renamed = self.build(trace, rename_data=True).finish()
        in_place = self.build(trace, rename_data=False).finish()
        loc = memory_location(DATA)
        # renamed: the second store only waits for its source (level 1);
        # in place: it must also clear the load of the dead value (level 3)
        assert self.build(trace, rename_data=True).well.peek(loc).level == 1
        assert self.build(trace, rename_data=False).well.peek(loc).level == 3
        assert renamed.critical_path_length == 3
        assert in_place.critical_path_length == 4

    def test_unit_latency_op_at_firewall_boundary(self):
        """An op placed immediately after a conservative syscall lands
        exactly one level below the firewall, never on or above it."""
        from repro.trace.synthetic import TraceBuilder

        builder = TraceBuilder()
        builder.ialu(1)       # level 0
        builder.syscall()     # firewall: level 1, floor 2
        builder.ialu(2)       # no deps: placed at the floor exactly
        builder.ialu(3, 1)    # old value: also dragged to the floor
        analyzer = self.build(builder.build())
        assert analyzer.well.peek(2).level == 2
        assert analyzer.well.peek(3).level == 2
        result = analyzer.finish()
        assert result.firewalls == 1
        assert result.profile.counts == [1, 1, 2]

    def test_latency_table_rejects_zero_latency(self):
        """There is no such thing as a zero-latency placed op: levels are
        strictly increasing through a dependence chain."""
        import pytest

        with pytest.raises(ValueError):
            LatencyTable.unit().with_overrides(IALU=0)


class TestFigure5:
    """After processing the Figure 1 trace, the live well holds the paper's
    Figure 5 state: A-D pre-existing at level -1, r0-r3 at 0, r4/r5 at 1,
    r6 at 2, S at 3; highest level 0, deepest level yet used 3."""

    def build(self, figure1_trace):
        analyzer = ReferenceAnalyzer(
            AnalysisConfig(latency=LatencyTable.unit()), DEFAULT_SEGMENTS
        )
        for record in figure1_trace:
            analyzer.step(record)
        return analyzer

    def test_preexisting_data_values(self, figure1_trace):
        analyzer = self.build(figure1_trace)
        for offset in range(4):  # A, B, C, D
            value = analyzer.well.peek(memory_location(DATA + offset))
            assert value.preexisting
            assert value.level == -1

    def test_register_levels(self, figure1_trace):
        analyzer = self.build(figure1_trace)
        levels = {loc: analyzer.well.peek(loc).level for loc in range(1, 8)}
        assert levels == {1: 0, 2: 0, 3: 0, 4: 0, 5: 1, 6: 1, 7: 2}

    def test_stored_result(self, figure1_trace):
        analyzer = self.build(figure1_trace)
        assert analyzer.well.peek(memory_location(DATA + 8)).level == 3

    def test_highest_and_deepest_levels(self, figure1_trace):
        analyzer = self.build(figure1_trace)
        assert analyzer.firewalls.floor == 0  # highestLevel
        assert analyzer.deepest == 3  # deepestLevelYetUsed

    def test_degree_of_sharing(self, figure1_trace):
        analyzer = self.build(figure1_trace)
        assert analyzer.well.peek(1).uses == 1  # r0 consumed once
        assert analyzer.well.peek(7).uses == 1  # r6 consumed by the store
        assert analyzer.well.peek(memory_location(DATA + 8)).uses == 0
