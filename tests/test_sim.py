"""Unit tests for the simulation kernel (counters, latency, RNG)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim.latency import LatencyReport, overlap, pipeline_time, serial
from repro.sim.rng import make_rng
from repro.sim.stats import CounterSet
from repro.sim.unique import sorted_unique


class TestCounterSet:
    def test_starts_empty(self):
        counters = CounterSet()
        assert counters["anything"] == 0
        assert "anything" not in counters

    def test_add_and_read(self):
        counters = CounterSet()
        counters.add("reads")
        counters.add("reads", 2)
        assert counters["reads"] == 3
        assert "reads" in counters

    def test_iteration_and_dict(self):
        counters = CounterSet()
        counters.add("a", 1)
        counters.add("b", 2.5)
        assert dict(counters) == {"a": 1, "b": 2.5}
        assert counters.as_dict() == {"a": 1, "b": 2.5}

    def test_reset(self):
        counters = CounterSet()
        counters.add("x", 5)
        counters.reset()
        assert counters["x"] == 0

    def test_merge_accumulates(self):
        a, b = CounterSet(), CounterSet()
        a.add("shared", 1)
        b.add("shared", 2)
        b.add("only_b", 3)
        a.merge(b)
        assert a["shared"] == 3
        assert a["only_b"] == 3
        assert b["shared"] == 2  # the source is untouched


class TestLatencyHelpers:
    def test_serial_sums(self):
        assert serial([1.0, 2.0, 3.0]) == pytest.approx(6.0)

    def test_overlap_takes_max(self):
        assert overlap([1.0, 5.0, 3.0]) == pytest.approx(5.0)

    def test_overlap_empty(self):
        assert overlap([]) == 0.0

    def test_pipeline_single_iteration_is_serial(self):
        stages = [1.0, 2.0, 3.0]
        assert pipeline_time(stages, 1) == pytest.approx(serial(stages))

    def test_pipeline_steady_state_bottleneck(self):
        stages = [1.0, 4.0, 2.0]
        t10 = pipeline_time(stages, 10)
        assert t10 == pytest.approx(serial(stages) + 9 * 4.0)

    def test_pipeline_zero_iterations(self):
        assert pipeline_time([1.0], 0) == 0.0

    @given(
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=5),
        st.integers(1, 50),
    )
    def test_pipeline_bounded_by_serial_times_iterations(self, stages, n):
        assert pipeline_time(stages, n) <= serial(stages) * n + 1e-9

    @given(
        st.lists(st.floats(0.01, 10.0), min_size=1, max_size=5),
        st.integers(1, 50),
    )
    def test_pipeline_at_least_bottleneck_per_iteration(self, stages, n):
        assert pipeline_time(stages, n) >= max(stages) * n - 1e-9


class TestLatencyReport:
    def test_components_accumulate(self):
        report = LatencyReport()
        report.add_component("read", 1.0)
        report.add_component("read", 0.5)
        assert report.components["read"] == pytest.approx(1.5)

    def test_merge(self):
        a = LatencyReport(total_s=1.0, components={"x": 1.0})
        b = LatencyReport(total_s=2.0, components={"x": 0.5, "y": 1.5})
        a.merge(b)
        assert a.total_s == pytest.approx(3.0)
        assert a.components == {"x": 1.5, "y": 1.5}

    def test_scaled(self):
        report = LatencyReport(total_s=2.0, components={"x": 2.0})
        doubled = report.scaled(2.0)
        assert doubled.total_s == pytest.approx(4.0)
        assert doubled.components["x"] == pytest.approx(4.0)
        assert report.total_s == pytest.approx(2.0)  # original untouched

    def test_fraction(self):
        report = LatencyReport(total_s=4.0, components={"x": 1.0})
        assert report.fraction("x") == pytest.approx(0.25)
        assert report.fraction("missing") == 0.0

    def test_fraction_of_empty_report(self):
        assert LatencyReport().fraction("x") == 0.0


class TestMakeRng:
    def test_deterministic_for_same_seed_parts(self):
        a = make_rng("test", 1, "x")
        b = make_rng("test", 1, "x")
        assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)

    def test_different_seeds_differ(self):
        a = make_rng("test", 1)
        b = make_rng("test", 2)
        draws_a = a.integers(0, 1 << 30, size=8)
        draws_b = b.integers(0, 1 << 30, size=8)
        assert not np.array_equal(draws_a, draws_b)

    def test_accepts_heterogeneous_parts(self):
        rng = make_rng("a", 1, 2.5, ("tuple", 3))
        assert 0 <= rng.random() < 1


_INT64 = np.iinfo(np.int64)
_KEYS = st.one_of(
    st.lists(st.integers(-3, 3), max_size=40),  # ties, negatives
    st.lists(st.sampled_from([_INT64.min, -1, 0, 1, _INT64.max]), max_size=12),
    st.lists(st.integers(_INT64.min, _INT64.max), max_size=40),
)


class TestSortedUnique:
    """The sort-based unique is ``np.unique`` with index and inverse."""

    @given(_KEYS)
    def test_equals_numpy_unique(self, keys):
        keys = np.array(keys, dtype=np.int64)
        expected = np.unique(keys, return_index=True, return_inverse=True)
        for got, want in zip(sorted_unique(keys), expected):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("keys", [[], [7], [5, 5, 5, 5]])
    def test_edge_cases(self, keys):
        uniq, first, inverse = sorted_unique(np.array(keys, dtype=np.int64))
        assert uniq.tolist() == sorted(set(keys))
        assert first.tolist() == ([0] if keys else [])
        assert inverse.tolist() == [0] * len(keys)


class TestCounterSetAddAll:
    def test_adds_in_order_and_skips_zeros(self):
        counters = CounterSet()
        counters.add("a", 1)
        counters.add_all({"b": 0, "a": 2.5, "c": 0, "d": 2})
        assert counters.as_dict() == {"a": 3.5, "d": 2}
        assert "b" not in counters and "c" not in counters
