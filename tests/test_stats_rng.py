"""Statistics and RNG plumbing tests (repro.utils.stats / .rng)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import obs
from repro.errors import ConfigurationError
from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.stats import (
    RunningStats,
    empirical_cdf,
    percentile,
    summarize_errors,
)

float_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=64
)


class TestRunningStats:
    def test_empty_mean_is_zero(self):
        assert RunningStats().mean == 0.0

    def test_single_value(self):
        s = RunningStats()
        s.push(4.0)
        assert s.mean == 4.0
        assert s.variance == 0.0

    def test_extend(self):
        s = RunningStats()
        s.extend([1.0, 2.0, 3.0])
        assert s.count == 3
        assert s.mean == pytest.approx(2.0)

    def test_min_max(self):
        s = RunningStats()
        s.extend([3.0, -1.0, 7.0])
        assert s.minimum == -1.0
        assert s.maximum == 7.0

    def test_min_on_empty_raises(self):
        with pytest.raises(ValueError):
            RunningStats().minimum

    @given(float_lists)
    def test_matches_numpy(self, values):
        s = RunningStats()
        s.extend(values)
        assert s.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
        assert s.variance == pytest.approx(np.var(values, ddof=1), rel=1e-6, abs=1e-4)


class TestCdfPercentile:
    def test_cdf_sorted(self):
        values, probs = empirical_cdf([3.0, 1.0, 2.0])
        assert list(values) == [1.0, 2.0, 3.0]
        assert probs[-1] == pytest.approx(1.0)

    def test_cdf_empty_raises(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    def test_percentile_median(self):
        assert percentile([1, 2, 3, 4, 5], 50.0) == pytest.approx(3.0)

    def test_percentile_range_check(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestSummarizeErrors:
    def test_uses_absolute_values(self):
        summary = summarize_errors([-2.0, 2.0])
        assert summary.mean == pytest.approx(2.0)

    def test_fields(self):
        summary = summarize_errors([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.median == pytest.approx(2.5)
        assert summary.maximum == 4.0
        assert summary.p90 == pytest.approx(3.7, rel=1e-6)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize_errors([])

    def test_as_row_keys(self):
        row = summarize_errors([1.0]).as_row()
        assert set(row) == {"count", "mean", "std", "median", "p90", "max"}


class TestRng:
    def test_make_rng_from_int_is_deterministic(self):
        assert make_rng(5).integers(0, 100) == make_rng(5).integers(0, 100)

    def test_make_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_spawn_count(self):
        assert len(spawn_rngs(0, 7)) == 7

    def test_spawn_streams_independent(self):
        a, b = spawn_rngs(3, 2)
        assert a.integers(0, 2**31) != b.integers(0, 2**31)

    def test_spawn_deterministic(self):
        first = [g.integers(0, 1000) for g in spawn_rngs(9, 3)]
        second = [g.integers(0, 1000) for g in spawn_rngs(9, 3)]
        assert first == second

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_from_generator(self):
        children = spawn_rngs(np.random.default_rng(4), 2)
        assert len(children) == 2

    @pytest.mark.parametrize("seed", [-1, np.int64(-3), 1.5, "7"], ids=repr)
    @pytest.mark.parametrize("derive", [make_rng, lambda seed: spawn_rngs(seed, 2)],
                             ids=["make_rng", "spawn_rngs"])
    def test_bad_seed_raises_before_counting(self, derive, seed):
        registry = obs.get_registry()
        names = ("rng.generators.created", "rng.spawn_rngs.calls")
        before = [registry.counter(name).value for name in names]
        with pytest.raises(ConfigurationError, match="non-negative integer"):
            derive(seed)
        assert [registry.counter(name).value for name in names] == before

    def test_valid_seed_forms(self):
        def draws(generators):
            return [int(g.integers(0, 2**31)) for g in generators]

        assert isinstance(make_rng(None), np.random.Generator)
        assert draws([make_rng(np.int64(5))]) == draws([make_rng(5)])
        assert draws([make_rng(np.random.SeedSequence(5))]) == draws([make_rng(5)])
        assert len(spawn_rngs(None, 2)) == 2
        assert draws(spawn_rngs(np.uint32(3), 2)) == draws(spawn_rngs(3, 2))
        assert draws(spawn_rngs(np.random.SeedSequence(3), 2)) == draws(spawn_rngs(3, 2))
