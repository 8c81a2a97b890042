import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from stochrec.seeds import (
    PRNG_NAME,
    draw_normal,
    draw_u64,
    draw_unit,
    draw_unit_open,
    fnv1a64,
    mix64,
    substream,
)


class TestStreams:
    def test_prng_named(self):
        assert PRNG_NAME == "splitmix64"

    def test_known_answer_regression(self):
        # frozen first outputs of the sequence seeded at 0; any change here
        # silently invalidates every recorded seed in reports
        assert int(draw_u64(0, 0)) == 0xB2B24A15D311BDFF
        assert int(draw_u64(0, 1)) == 0xED8C5342AB0CFEB2
        assert int(draw_u64(0, 2)) == 0x39597E830BC21AD8

    def test_substreams_are_tag_sensitive(self):
        assert substream(1, "noise") != substream(1, "init")
        assert substream(1, "noise") != substream(2, "noise")
        assert substream(1, "noise") == substream(1, "noise")

    def test_counter_addressing_is_stateless(self):
        whole = draw_u64(9, np.arange(10))
        assert int(whole[7]) == int(draw_u64(9, 7))

    def test_negative_counters_allowed(self):
        values = draw_unit(3, np.arange(-5, 5))
        assert values.shape == (10,)
        assert np.all((0.0 <= values) & (values < 1.0))

    def test_broadcasting_seed_array(self):
        seeds = draw_u64(4, np.arange(6))
        row = draw_unit(seeds, 0)
        assert row.shape == (6,)
        for j in range(6):
            assert row[j] == float(draw_unit(int(seeds[j]), 0))

    def test_unit_open_never_zero(self):
        values = draw_unit_open(11, np.arange(5000))
        assert np.all(values > 0.0) and np.all(values <= 1.0)

    def test_large_seed_wraps(self):
        big = 2**70 + 123
        assert int(draw_u64(big, 0)) == int(draw_u64(big % 2**64, 0))

    def test_fnv_is_stable(self):
        assert fnv1a64("noise") == fnv1a64("noise")
        assert fnv1a64("a") != fnv1a64("b")

    def test_mix64_is_bijective_on_sample(self):
        inputs = np.arange(100_000, dtype=np.uint64)
        assert np.unique(mix64(inputs)).size == inputs.size


class TestDistributionQuality:
    def test_uniform_moments(self):
        values = draw_unit(substream(5, "quality"), np.arange(200_000))
        assert abs(values.mean() - 0.5) < 0.005
        assert abs(values.var() - 1.0 / 12.0) < 0.005

    def test_normal_moments(self):
        values = draw_normal(substream(5, "quality"), np.arange(200_000))
        assert abs(values.mean()) < 0.01
        assert abs(values.std() - 1.0) < 0.01
        assert abs(((values**2).mean()) - 1.0) < 0.02

    def test_streams_uncorrelated(self):
        a = draw_unit(substream(5, "left"), np.arange(50_000))
        b = draw_unit(substream(5, "right"), np.arange(50_000))
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.02


class TestArrayDraws:
    @given(
        seed=st.integers(0, 2**64 - 1),
        first=st.integers(-(2**63), 2**63 - 64),
        n=st.integers(1, 40),
    )
    @example(seed=0, first=-20, n=40)
    def test_normal_array_equals_scalar_draws(self, seed, first, n):
        # one array call over counters first..first+n-1 gives the per-counter
        # scalar values bit for bit, negative counters included
        array = draw_normal(seed, np.arange(first, first + n))
        scalars = np.array([draw_normal(seed, k) for k in range(first, first + n)])
        assert array.view(np.int64).tolist() == scalars.view(np.int64).tolist()
