"""Parallelism profile summaries and binning."""

import pytest

from repro.core.profile import ParallelismProfile


def make(counts):
    profile = ParallelismProfile()
    for level, count in counts.items():
        profile.add(level, count)
    return profile


class TestScalars:
    def test_empty(self):
        profile = ParallelismProfile()
        assert profile.depth == 0
        assert profile.total_operations == 0
        assert profile.average_parallelism == 0.0
        assert profile.max_width == 0

    def test_totals(self):
        profile = make({0: 4, 1: 2, 2: 1, 3: 1})
        assert profile.total_operations == 8
        assert profile.depth == 4
        assert profile.average_parallelism == 2.0
        assert profile.max_width == 4

    def test_depth_spans_empty_levels(self):
        profile = make({0: 1, 9: 1})
        assert profile.depth == 10
        assert profile.average_parallelism == 0.2

    def test_add_accumulates(self):
        profile = ParallelismProfile()
        profile.add(3)
        profile.add(3, 2)
        assert profile.counts == [0, 0, 0, 3]

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            ParallelismProfile().add(-1)


class TestBurstiness:
    def test_flat_profile_not_bursty(self):
        profile = make({i: 5 for i in range(10)})
        assert profile.burstiness() == pytest.approx(0.0)

    def test_spike_is_bursty(self):
        profile = make({0: 100})
        profile.add(50, 0)  # force depth without mass
        profile.counts[50] = 0
        flat = make({i: 2 for i in range(51)})
        assert make({0: 100, 50: 2}).burstiness() > flat.burstiness()

    def test_empty_profile_zero(self):
        assert ParallelismProfile().burstiness() == 0.0


class TestBinning:
    def test_no_binning_when_small(self):
        profile = make({0: 1, 1: 2, 2: 3})
        bins = profile.binned(max_points=10)
        assert len(bins) == 3
        assert [b.operations for b in bins] == [1, 2, 3]
        assert bins[0].average == 1.0

    def test_binning_averages_ranges(self):
        profile = make({i: 1 for i in range(100)})
        bins = profile.binned(max_points=10)
        assert len(bins) == 10
        assert all(b.average == pytest.approx(1.0) for b in bins)

    def test_bin_mass_preserved(self):
        profile = make({i: (i % 7) + 1 for i in range(1000)})
        bins = profile.binned(max_points=37)
        assert sum(b.operations for b in bins) == profile.total_operations

    def test_bins_cover_depth_without_overlap(self):
        profile = make({i: 1 for i in range(95)})
        bins = profile.binned(max_points=10)
        assert bins[0].start == 0
        assert bins[-1].end == 95
        for left, right in zip(bins, bins[1:]):
            assert left.end == right.start

    def test_series_shapes_match(self):
        profile = make({i: i + 1 for i in range(50)})
        xs, ys = profile.series(max_points=25)
        assert len(xs) == len(ys) == 25

    def test_empty_binned(self):
        assert ParallelismProfile().binned() == []


class TestRendering:
    def test_ascii_plot_nonempty(self):
        profile = make({i: (i * 13) % 11 + 1 for i in range(200)})
        art = profile.ascii_plot(width=40, height=8)
        assert "#" in art
        assert "level in DDG" in art

    def test_ascii_plot_empty(self):
        assert "empty" in ParallelismProfile().ascii_plot()

