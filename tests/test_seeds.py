import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from stochrec.seeds import (
    GOLDEN,
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


MASK = 2**64 - 1


def bits(x):
    """Bit patterns of a uint64 or float64 scalar or array, as int64."""
    return np.asarray(x).reshape(-1).view(np.int64).tolist()


def reference_u64(seed, counter):
    # splitmix64 on 1-element uint64 arrays, written out independently
    z = np.array([int(seed) & MASK], dtype=np.uint64)
    z = z + (np.array([int(counter) & MASK], dtype=np.uint64) + np.uint64(1)) * np.uint64(GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E9B5)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


# values across the whole 64-bit range, with the edges hypothesis might miss
edges = st.sampled_from(
    [0, 1, -1, 2**63 - 1, -(2**63), 2**63, 2**64 - 1, 2**63 - 2, -(2**63) + 1]
)
values64 = st.one_of(edges, st.integers(-(2**63), 2**64 - 1))


@st.composite
def integer_scalars(draw):
    """A 64-bit value as a Python int, np.int64 or np.uint64 (wrapped to fit)."""
    value = draw(values64)
    kind = draw(st.sampled_from(["int", "int64", "uint64"]))
    if kind == "int":
        return value
    if kind == "uint64":
        return np.uint64(value & MASK)
    return np.int64(value - 2**64 if value >= 2**63 else value)


def as_array(value):
    return np.array([int(value) & MASK], dtype=np.uint64)


def as_0d(value):
    v = int(value)
    return np.array(v, dtype=np.int64 if -(2**63) <= v < 2**63 else np.uint64)


DRAWS = [draw_u64, draw_unit, draw_unit_open, draw_normal]
SCALAR_TYPE = {draw_u64: np.uint64, draw_unit: np.float64,
               draw_unit_open: np.float64, draw_normal: np.float64}


class TestScalarPath:
    @given(seed=integer_scalars(), counter=integer_scalars())
    def test_array_path_matches_reference(self, seed, counter):
        assert bits(draw_u64(as_array(seed), as_array(counter))) == bits(
            reference_u64(seed, counter)
        )

    @pytest.mark.parametrize("fn", DRAWS, ids=lambda f: f.__name__)
    @given(seed=integer_scalars(), counter=integer_scalars())
    def test_every_input_mix_gives_the_array_bits(self, fn, seed, counter):
        want = fn(as_array(seed), as_array(counter))
        assert isinstance(want, np.ndarray) and want.shape == (1,)
        scalar = fn(seed, counter)
        assert type(scalar) is SCALAR_TYPE[fn]
        assert bits(scalar) == bits(want)
        for args in ((seed, as_array(counter)), (as_array(seed), counter),
                     (as_0d(seed), as_array(counter)), (as_array(seed), as_0d(counter))):
            got = fn(*args)
            assert isinstance(got, np.ndarray) and got.shape == (1,)
            assert bits(got) == bits(want)
        for args in ((as_0d(seed), counter), (seed, as_0d(counter)),
                     (as_0d(seed), as_0d(counter))):
            got = fn(*args)
            assert type(got) is SCALAR_TYPE[fn]
            assert bits(got) == bits(want)

    @given(value=integer_scalars())
    def test_mix64(self, value):
        want = mix64(as_array(value))
        assert isinstance(want, np.ndarray)
        for arg in (value, as_0d(value)):
            got = mix64(arg)
            assert type(got) is np.uint64
            assert bits(got) == bits(want)

    @given(master=integer_scalars(), tag=st.text(max_size=12))
    def test_substream(self, master, tag):
        want = mix64(as_array(master) ^ np.uint64(fnv1a64(tag)))
        for arg in (master, as_0d(master)):
            got = substream(arg, tag)
            assert type(got) is int
            assert bits(np.uint64(got)) == bits(want)

    def test_scalar_counter_with_seed_array_does_not_warn(self):
        # the step (counter + 1) * GOLDEN overflows; as a numpy scalar product
        # it would warn, so it is taken in Python ints
        seeds = draw_u64(3, np.arange(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for counter in (2**63 - 1, -(2**63), 2**64 - 1, 10**6):
                row = draw_unit(seeds, counter)
                assert bits(row) == bits(
                    [draw_unit(int(s), counter) for s in seeds]
                )
                draw_normal(seeds, counter)
                draw_unit(np.array(7), np.array(counter % 2**64, dtype=np.uint64))
