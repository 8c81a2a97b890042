import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats as sps

from stochrec import recurrence
from stochrec.path_space import Window
from stochrec.random_measure import ks_one_sample_threshold
from stochrec.recurrence import (
    NoiseModel,
    advance,
    contraction_map,
    fractional_map,
    update_map_from_name,
)
from stochrec.seeds import counter_range, draw_normal, draw_u64, draw_unit, substream

unit = st.floats(0.0, 1.0, exclude_max=True, allow_nan=False)


class TestFractionalMap:
    def test_direct_values(self):
        fm = fractional_map()
        assert fm.apply(0.25, 0.5) == pytest.approx(0.75, abs=1e-12)
        assert fm.apply(0.75, 0.9) == pytest.approx(0.65, abs=1e-12)

    def test_negative_wraps_into_unit_interval(self):
        fm = fractional_map()
        assert fm.apply(0.1, -0.5) == pytest.approx(0.6, abs=1e-12)

    @given(st.floats(-100, 100, allow_nan=False), unit)
    def test_range(self, x, y):
        out = fractional_map().apply(x, y)
        assert 0.0 <= out < 1.0

    def test_vectorized(self):
        fm = fractional_map()
        out = fm.apply(np.array([0.25, 0.75]), 0.5)
        assert np.allclose(out, [0.75, 0.25])

    def test_rotation_by_fixed_offset_stays_uniform(self):
        # frac(eta + c) for uniform eta is uniform for any fixed c
        etas = draw_unit(123, np.arange(4000))
        for c in (0.1, 0.5, 0.9):
            shifted = (etas + c) % 1.0
            d = sps.kstest(shifted, "uniform").statistic
            assert d < ks_one_sample_threshold(0.01, len(etas))


def float_bits(value) -> int:
    return int(np.asarray(value, dtype=np.float64).view(np.int64))


EDGE_STATES = [
    -0.0, 5e-324, -5e-324, 1 - 2**-53, 2.0**60, -(2.0**60), 1e308, -1e308,
    math.inf, -math.inf, math.nan,
]


class TestFractionalScalarBranch:
    """A scalar state gives the same bits as the same call on a 1-element array."""

    @staticmethod
    def check(step, x, y):
        # non-finite and overflowing inputs warn in numpy, as they should
        with np.errstate(invalid="ignore", over="ignore"):
            got = step(x, y)
            want = step(np.array([x]), y)[0]
        assert not isinstance(got, np.ndarray)
        if np.isnan(want):
            assert np.isnan(got)
        else:
            assert float_bits(got) == float_bits(want)

    # negative noise runs the subtraction x - |y|; 5e-324 is the least
    # subnormal, so x + y rounds back to x for every normal x
    @pytest.mark.parametrize("y", [0.0, -0.0, 0.25, 1.0, -0.25, -1.0, 0.5, 5e-324])
    @pytest.mark.parametrize("x", EDGE_STATES)
    def test_edge_states(self, x, y):
        step = fractional_map().apply
        self.check(step, x, y)
        self.check(step, np.float64(x), y)

    @given(x=st.floats(), y=st.floats(), numpy_scalar=st.booleans())
    @example(x=-0.0, y=-0.0, numpy_scalar=False)
    @example(x=-1e-17, y=0.0, numpy_scalar=False)
    def test_scalar_equals_array(self, x, y, numpy_scalar):
        fm = fractional_map()
        x = np.float64(x) if numpy_scalar else x
        self.check(fm.apply, x, y)

    def test_signed_zero_maps_to_positive_zero(self):
        fm = fractional_map()
        assert float_bits(fm.apply(-0.0, -0.0)) == 0
        assert float_bits(fm.apply(-1e-17, 0.0)) == 0
        assert type(fm.apply(0.25, 0.5)) is float


def two_temporary_frac(x):
    """The array branch as it stood before it subtracted into its floor array."""
    out = np.asarray(x - np.floor(x))
    out[out >= 1.0] = 0.0
    return out[()]


def typed_bits(value):
    """dtype, shape and the integer view of the bits, so -0.0 and +0.0 differ."""
    value = np.asarray(value)
    return value.dtype, value.shape, value.view(f"i{value.itemsize}").tolist()


@st.composite
def frac_inputs(draw):
    """Float64 states with negatives, magnitudes up to 1e300, signed zeros and
    the float just below an integer, with a bulk long enough for numpy's
    vector loops; or float32, int64, 0-d and scalar inputs that reach the
    array branch."""
    near_integer = st.integers(-(2**60), 2**60).map(
        lambda k: float(np.nextafter(float(k), -math.inf))
    )
    edge = st.one_of(st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0]), near_integer)
    listed = draw(st.lists(edge, min_size=1, max_size=40))
    bulk = draw(st.integers(0, 2000))
    scale = draw(st.sampled_from([1.0, 12.0, 1e6, 1e300]))
    drawn = scale * (2.0 * draw_unit(draw(st.integers(0, 2**64 - 1)), np.arange(bulk)) - 1.0)
    values = np.concatenate([np.asarray(listed), drawn, np.nextafter(np.rint(drawn), -math.inf)])
    kind = draw(st.sampled_from(["float64", "float32", "int64", "0-d", "scalar"]))
    if kind == "float64":
        return values
    if kind == "0-d":
        return np.asarray(values[0])
    singles = st.floats(width=32, allow_infinity=False, allow_nan=False)
    if kind == "float32":
        return np.array(draw(st.lists(singles, min_size=1, max_size=40)), np.float32)
    if kind == "int64":
        return np.array(draw(st.lists(st.integers(-(2**62), 2**62), min_size=1)), np.int64)
    # np.float64 is a float, so it takes the scalar branch; these do not
    return draw(st.one_of(singles.map(np.float32), st.integers(-(2**62), 2**62)))


class TestFractionalArrayBranch:
    """The array branch subtracts into its own floor array, with the bits of
    ``x - np.floor(x)`` and values ``>= 1.0`` set to ``+0.0``."""

    @settings(max_examples=300, deadline=None)
    @given(x=frac_inputs())
    @example(x=np.array([-0.0, 0.0, -1e-17, np.nextafter(1.0, 0.0), -(2.0**60), 1e300]))
    def test_equals_two_temporary_form_bit_for_bit(self, x):
        got = recurrence._frac(x)
        want = two_temporary_frac(x)
        assert type(got) is type(want)
        assert typed_bits(got) == typed_bits(want)

    def test_input_is_left_as_it_was(self):
        x = np.array([-0.25, 1.5, np.nextafter(-3.0, -math.inf)])
        before = x.copy()
        recurrence._frac(x)
        assert typed_bits(x) == typed_bits(before)


class TestContractionMap:
    def test_direct_values(self):
        cm = contraction_map(0.5)
        first = cm.apply(1.0, 1.0)
        assert first == pytest.approx(1.5)
        assert cm.apply(first, 1.0) == pytest.approx(1.75)

    def test_memoryless_at_zero(self):
        cm = contraction_map(0.0)
        assert cm.apply(123.0, 0.25) == 0.25

    @pytest.mark.parametrize("a", [1.0, -1.0, 2.5])
    def test_domain(self, a):
        with pytest.raises(ValueError):
            contraction_map(a)


class TestMapParsing:
    def test_known_names(self):
        assert update_map_from_name("fractional").name == "fractional"
        assert update_map_from_name("contraction:a=0.25").name == "contraction:a=0.25"

    @pytest.mark.parametrize("text", ["bogus", "contraction:a=nope", "contraction:a=1.5"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            update_map_from_name(text)


class TestIteration:
    """One path on Python floats: ``advance`` with the noise as a list."""

    def test_forward_fractional(self):
        path = np.empty(2)
        x = advance(fractional_map().apply, 0.25, [0.5, 0.9], out=path)
        assert path == pytest.approx((0.75, 0.65), abs=1e-12)
        assert x == path[-1]

    def test_forward_contraction(self):
        path = np.empty(2)
        advance(contraction_map(0.5).apply, 1.0, [1.0, 1.0], out=path)
        assert path == pytest.approx((1.5, 1.75))

    def test_forward_consumes_each_noise_value_once(self):
        noise = NoiseModel(seed=5).window(1, 9)
        seen = []

        def step(x, xi):
            seen.append(xi)
            return fractional_map().apply(x, xi)

        path = np.full(len(noise), np.nan)
        advance(step, 0.0, noise.values.tolist(), out=path)
        assert seen == noise.values.tolist()
        assert np.isfinite(path).all()

    def test_single_step_is_apply(self):
        fm = fractional_map()
        x = advance(fm.apply, 0.9, [0.3])
        assert type(x) is float and x == fm.apply(0.9, 0.3)


MAPS = {
    "fractional": fractional_map(),
    "contraction": contraction_map(0.5),
    "contraction-negative": contraction_map(-0.7),
}


def per_step_reference(update_map, x0, noise):
    """Plain per-run loop on Python floats, one run and one step at a time."""
    starts = np.atleast_1d(x0)
    trajectory = np.empty((starts.size, len(noise)))
    for j, x in enumerate(starts.tolist()):
        for k, row in enumerate(noise):
            xi = float(row if np.ndim(row) == 0 else row[j])
            x = float(update_map.apply(x, xi))
            trajectory[j, k] = x
    return trajectory


class TestScalarRoute:
    @given(
        seed=st.integers(0, 2**64 - 1),
        offset=st.integers(-(2**63), 2**63),
        length=st.integers(1, 40),
        map_name=st.sampled_from(sorted(MAPS)),
    )
    def test_matches_array_branch_loop_bit_for_bit(self, seed, offset, length, map_name):
        # advance steps Python floats through the scalar branch; a 1-element
        # array per step takes the array branch, bit for bit alike
        update_map = MAPS[map_name]
        noise = NoiseModel(seed=seed).window(offset, length)
        start = x = float(draw_unit(substream(seed, "start"), 0))
        expected = []
        for xi in noise.values:
            x = update_map.apply(np.array([x]), xi)[0]
            expected.append(x)
        path = np.empty(length)
        advance(update_map.apply, start, noise.values.tolist(), out=path)
        assert path.view(np.int64).tolist() == np.array(expected).view(np.int64).tolist()


class TestAdvance:
    @given(
        particles=st.integers(1, 12),
        length=st.integers(0, 12),
        seed=st.integers(0, 2**64 - 1),
        map_name=st.sampled_from(sorted(MAPS)),
        scalar_state=st.booleans(),
        shared_noise=st.booleans(),
    )
    def test_matches_per_step_loop_bit_for_bit(
        self, particles, length, seed, map_name, scalar_state, shared_noise
    ):
        update_map = MAPS[map_name]
        runs = 1 if scalar_state else particles
        x0 = draw_unit(substream(seed, "init"), np.arange(runs))
        if scalar_state:
            x0 = float(x0[0])
        shape = (length,) if shared_noise else (length, runs)
        noise = draw_unit(substream(seed, "noise"), np.arange(np.prod(shape))).reshape(shape)
        expected = per_step_reference(update_map, x0, noise)
        expected_last = expected[:, -1] if length else np.atleast_1d(x0)

        out = np.empty(np.shape(x0) + (length,))
        last = advance(update_map.apply, x0, noise, out=out)
        endpoint = advance(update_map.apply, x0, (row for row in noise))

        assert out.tobytes() == expected.reshape(out.shape).tobytes()
        for got in (last, endpoint):
            assert np.atleast_1d(got).tobytes() == expected_last.tobytes()
        if scalar_state and shared_noise:
            # a scalar state stays a scalar, never a 0-d array
            assert np.ndim(last) == 0 and not isinstance(last, np.ndarray)

    def test_empty_noise_returns_start(self):
        x0 = np.array([0.25, 0.5])
        out = np.empty((2, 0))
        assert advance(fractional_map().apply, x0, np.empty(0), out=out) is x0


class TestNoiseModel:
    def test_uniform_range(self):
        values = NoiseModel(seed=3).window(-10, 1000).values
        assert all(0.0 <= v < 1.0 for v in values)

    def test_absolute_index_addressing(self):
        model = NoiseModel(seed=3)
        wide = model.window(-5, 20)
        narrow = model.window(0, 5)
        assert np.array_equal(wide.values[5:10], narrow.values)

    def test_substreams_differ(self):
        # a per-replica child is the draw_u64 child of the master seed
        a = NoiseModel(int(draw_u64(3, 0))).window(1, 8).values
        b = NoiseModel(int(draw_u64(3, 1))).window(1, 8).values
        assert not np.array_equal(a, b)

    def test_determinism(self):
        assert NoiseModel(seed=9).window(2, 6) == NoiseModel(seed=9).window(2, 6)

    @pytest.mark.parametrize("law, draw", [("uniform", draw_unit), ("normal", draw_normal)])
    @pytest.mark.parametrize(
        "first", [2**63 - 3, 2**63, 2**63 + 5, -(2**63) - 3, -(2**63), -2, 2**64 - 3]
    )
    def test_window_counters_wrap_modulo_2_64(self, law, draw, first):
        # the counters of a window starting at or crossing +-2**63 (or 2**64)
        # wrap: an array draw of either law over them (uniform noise, normal
        # AR(1) innovations) reads the per-index scalar draws, and the noise
        # window is the uniform one
        counters = counter_range(first, 6)
        want = np.array([draw(7, k) for k in range(first, first + 6)])
        got = draw(7, counters)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), law
        window = NoiseModel(seed=7).window(first, 6)
        assert window.offset == first and window.last_index == first + 5
        assert window == Window(first, draw_unit(7, counters))

    @given(
        seed=st.integers(0, 2**64 - 1),
        lo=st.integers(-(2**64) - 8, 2**64 + 8),
        length=st.integers(1, 12),
    )
    @example(seed=7, lo=2**63 - 3, length=6)
    @example(seed=7, lo=2**64 - 3, length=6)
    @example(seed=7, lo=-(2**63) - 3, length=6)
    def test_driving_is_the_window_right_of_the_left_edge(self, seed, lo, length):
        # a path on (lo, hi) is driven by the noise at lo + 1 .. hi
        model = NoiseModel(seed)
        assert model.driving((lo, lo + length)) == model.window(lo + 1, length)

    def test_driving_refuses_an_empty_window(self):
        with pytest.raises(ValueError, match="length must be positive"):
            NoiseModel(seed=3).driving((5, 5))

    @pytest.mark.parametrize("first, length", [(0, 2.5), (0, 3.0), (0.5, 3), (np.float64(1), 3)])
    def test_window_refuses_non_integer_index_or_length(self, first, length):
        # np.arange(2.5) has 3 elements, so a float length once drew 3 values
        with pytest.raises(TypeError):
            NoiseModel(seed=1).window(first, length)

    def test_window_takes_numpy_integers(self):
        window = NoiseModel(seed=1).window(np.int64(2), np.uint8(3))
        assert window == NoiseModel(seed=1).window(2, 3)
        assert type(window.offset) is int
