import cmath
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochrec.errors import CoverageError
from stochrec.measure_solution import perturb_last_coordinate
from stochrec.path_space import Window, shift_path
from stochrec.random_measure import (
    CylinderSet,
    ParticleMeasure,
    StatReport,
    cylinder_prob,
    distributions_equal,
    integrate,
    ks_critical,
    ks_two_sample_threshold,
)


def two_particle_measure(u0_values=(0.2, 0.8), offset=0, length=1):
    rows = [[v] * length for v in u0_values]
    return ParticleMeasure(offset, np.asarray(rows))


class TestParticleMeasure:
    def test_requires_particles(self):
        with pytest.raises(ValueError):
            ParticleMeasure(0, np.empty((0, 1)))

    def test_mismatched_windows_rejected(self):
        # rows of different lengths cannot share one window
        with pytest.raises(ValueError):
            ParticleMeasure(0, [[1.0, 2.0], [1.0]])
        with pytest.raises(ValueError):
            ParticleMeasure(0, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ParticleMeasure(0, np.ones((2, 0)))

    def test_particles_round_trip(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        mu = ParticleMeasure(2, rows)
        assert np.array_equal(mu.values, rows)
        assert mu.particle_count == 2
        assert mu.offset == 2 and len(mu) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        rows = np.array([[0.1, 0.2], [0.3, bad]])
        with pytest.raises(ValueError, match="finite"):
            ParticleMeasure(0, rows)

    def test_immutable(self):
        mu = two_particle_measure()
        with pytest.raises(AttributeError):
            mu.offset = 5
        with pytest.raises(ValueError):
            mu.values[0, 0] = 9.0

    def test_is_a_window_and_shifts_as_one(self):
        mu = ParticleMeasure(3, np.arange(6.0).reshape(2, 3))
        assert isinstance(mu, Window) and len(mu) == 3 and mu.last_index == 5
        shifted = shift_path(mu, 2)
        assert type(shifted) is ParticleMeasure
        assert shifted.offset == 1 and shifted.values is mu.values
        assert np.array_equal(shifted.column(1), mu.column(3))
        with pytest.raises(CoverageError):
            mu.column(6)

    def test_caller_arrays_not_captured(self):
        v = np.array([[0.1], [0.9]])
        mu = ParticleMeasure(0, v)
        v[0, 0] = 5.0
        assert mu.values[0, 0] == 0.1


class TestIntegrate:
    def test_normalization(self):
        mu = two_particle_measure((0.1, 0.4, 0.9))
        assert integrate(mu, np.ones(mu.particle_count)) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass(self):
        mu = ParticleMeasure(0, [[0.3, 0.6]])
        assert integrate(mu, mu.column(1) ** 2) == pytest.approx(0.36)

    def test_indicator_average(self):
        mu = two_particle_measure((0.2, 0.8))
        value = integrate(mu, np.where(mu.column(0) < 0.5, 1.0, 0.0))
        assert value == pytest.approx(0.5)

    def test_one_value_per_particle(self):
        mu = two_particle_measure((0.2, 0.8), length=3)
        with pytest.raises(ValueError):
            integrate(mu, mu.values)

    def test_bounded_by_sup(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(1, 20)
            vals = rng.normal(size=(n, 3))
            mu = ParticleMeasure(0, vals)
            phase = rng.normal(size=3)
            f = [cmath.exp(1j * sum(c * v for c, v in zip(phase, row))) for row in mu.values]
            assert abs(integrate(mu, f)) <= 1.0 + 1e-12


class TestCylinderProb:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            CylinderSet(start=0, intervals=())
        with pytest.raises(ValueError):
            CylinderSet(start=0, intervals=((1.0, 1.0),))

    def test_start_must_be_an_integer(self):
        # start = 0.0 used to build and fail in cylinder_prob
        with pytest.raises(TypeError):
            CylinderSet(start=0.0, intervals=((0.0, 1.0),))
        assert type(CylinderSet(start=np.int64(3), intervals=((0.0, 1.0),)).start) is int

    def test_full_range(self):
        mu = two_particle_measure((0.2, 0.8))
        assert cylinder_prob(mu, CylinderSet(0, ((0.0, 1.0),))) == 1.0

    def test_empty_overlap(self):
        mu = two_particle_measure((0.2, 0.8))
        assert cylinder_prob(mu, CylinderSet(0, ((2.0, 3.0),))) == 0.0

    def test_half_split(self):
        mu = two_particle_measure((0.2, 0.8))
        assert cylinder_prob(mu, CylinderSet(0, ((0.0, 0.5),))) == pytest.approx(0.5)

    def test_out_of_window(self):
        mu = two_particle_measure((0.2, 0.8))
        with pytest.raises(CoverageError):
            cylinder_prob(mu, CylinderSet(1, ((0.0, 1.0),)))

    def test_additive_over_tilings(self):
        rng = np.random.default_rng(11)
        vals = rng.random((64, 3))
        mu = ParticleMeasure(0, vals)
        for _ in range(100):
            a, b = sorted(rng.random(2))
            c = rng.uniform(a, b)
            base = ((0.0, 1.0), (0.25, 0.9))
            whole = cylinder_prob(mu, CylinderSet(0, base + ((a, b),)))
            left = cylinder_prob(mu, CylinderSet(0, base + ((a, c),)))
            right = cylinder_prob(mu, CylinderSet(0, base + ((c, b),)))
            assert whole == pytest.approx(left + right, abs=1e-12)

    def test_half_open_boundary(self):
        mu = two_particle_measure((0.5, 0.8))
        assert cylinder_prob(mu, CylinderSet(0, ((0.0, 0.5),))) == 0.0
        assert cylinder_prob(mu, CylinderSet(0, ((0.5, 1.0),))) == 1.0

    def test_monotone_in_each_interval(self):
        rng = np.random.default_rng(13)
        mu = ParticleMeasure(0, rng.random((64, 2)))
        for _ in range(50):
            a, b = sorted(rng.random(2))
            small = cylinder_prob(mu, CylinderSet(0, ((a, b), (0.2, 0.8))))
            grown = cylinder_prob(mu, CylinderSet(0, ((a - 0.1, b + 0.1), (0.2, 0.8))))
            assert grown >= small


def reference_integrate(mu, values):
    # the sum against an explicit array of uniform weights 1/P
    weights = np.full(mu.particle_count, 1.0 / mu.particle_count)
    return np.sum(weights * np.asarray(values))


def reference_cylinder_prob(mu, delta):
    # the rectangle as it was evaluated from an all-true mask
    block = mu.span(delta.start, delta.last_index)
    inside = np.ones(mu.particle_count, dtype=bool)
    for j, (a, b) in enumerate(delta.intervals):
        col = block[:, j]
        inside &= (col >= a) & (col < b)
    return float(reference_integrate(mu, inside))


def bits(*values):
    parts = []
    for v in values:
        parts.extend([v.real, v.imag] if isinstance(v, complex) else [v])
    return np.asarray(parts, dtype=np.float64).view(np.int64).tolist()


@st.composite
def random_measures(draw):
    """A NaN-free particle measure, C- or F-ordered, plain or perturbed."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    particles, length = draw(st.integers(1, 300)), draw(st.integers(3, 8))
    # rounded values land exactly on interval edges now and then
    values = np.round(2.0 * rng.random((particles, length)) - 0.5, draw(st.integers(1, 6)))
    values = np.array(values, order=draw(st.sampled_from(["C", "F"])))
    values.setflags(write=False)  # shared as is, so the drawn layout is kept
    mu = ParticleMeasure(draw(st.integers(-5, 5)), values)
    if draw(st.booleans()):
        mu = perturb_last_coordinate(mu, seed)
    return mu, rng


edge = st.sampled_from([-0.5, 0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5])
intervals = st.tuples(edge, edge).filter(lambda ab: ab[0] < ab[1])


class TestSameBitsAsReference:
    @settings(max_examples=150, deadline=None)
    @given(measure=random_measures(), ivals=st.lists(intervals, min_size=1, max_size=3),
           start=st.integers(0, 5))
    def test_cylinder_prob(self, measure, ivals, start):
        mu, _ = measure
        delta = CylinderSet(mu.offset + min(start, len(mu) - len(ivals)), tuple(ivals))
        got = cylinder_prob(mu, delta)
        assert isinstance(got, float)
        assert bits(got) == bits(reference_cylinder_prob(mu, delta))

    @settings(max_examples=100, deadline=None)
    @given(measure=random_measures(), k=st.integers(0, 1))
    def test_integrate_float_and_complex(self, measure, k):
        mu, rng = measure
        real = mu.column(mu.offset + k) ** 2 - rng.random(mu.particle_count)
        cplx = np.exp(1j * (3.0 * mu.column(mu.offset + k + 1) - real))
        for values in (real, cplx):
            got, want = integrate(mu, values), reference_integrate(mu, values)
            assert type(got) is type(want)
            assert bits(complex(got)) == bits(complex(want))


class TestShiftMeasure:
    def test_identity(self):
        mu = two_particle_measure((0.2, 0.8), length=3)
        assert shift_path(mu, 0) == mu

    def test_composition(self):
        mu = two_particle_measure((0.2, 0.8), length=3)
        once = shift_path(shift_path(mu, 2), -5)
        assert once == shift_path(mu, -3)

    def test_pushforward_bookkeeping(self):
        # particles hold u_1 in {0.2, 0.8}; after shifting by 1 the same
        # values are read at index 0
        rows = np.asarray([[0.9, 0.2], [0.1, 0.8]])
        mu = ParticleMeasure(0, rows)
        shifted = shift_path(mu, 1)
        delta0 = CylinderSet(0, ((0.0, 0.5),))
        delta1 = CylinderSet(1, ((0.0, 0.5),))
        assert cylinder_prob(shifted, delta0) == pytest.approx(0.5)
        assert cylinder_prob(shifted, delta0) == cylinder_prob(mu, delta1)

    def test_values_and_integrals_preserved(self):
        rng = np.random.default_rng(3)
        mu = ParticleMeasure(0, rng.random((10, 4)))
        shifted = shift_path(mu, 2)
        assert shifted.values is mu.values
        # f(u) = 2 u_{-2} + 1 on the shifted measure reads u_0 of the original
        assert integrate(shifted, shifted.column(-2) * 2.0 + 1.0) == integrate(
            mu, mu.column(0) * 2.0 + 1.0
        )


class TestStatReport:
    def test_invariant(self):
        # passed is derived from statistic and threshold, so it cannot disagree with them
        assert StatReport("x", 1.0, 1.0, 1, 0).passed is True
        assert StatReport("x", 2.0, 1.0, 1, 0).passed is False
        assert StatReport("x", float("nan"), 1.0, 1, 0).passed is False
        with pytest.raises(TypeError):
            StatReport(
                test_name="x", statistic=2.0, threshold=1.0, passed=True, sample_size=1, seed=0
            )

    def test_fields_coerced(self):
        report = StatReport("x", np.float64(0.5), 1, np.int64(100), np.uint64(2**64 - 1))
        assert [type(v) for v in (report.statistic, report.threshold)] == [float, float]
        assert [type(v) for v in (report.sample_size, report.seed)] == [int, int]
        assert (report.threshold, report.seed) == (1.0, 2**64 - 1)

    @pytest.mark.parametrize("args", [(3.7, 1), (3, 1.9), (np.float64(3.0), 1), (3, "1")])
    def test_non_integer_sizes_and_seeds_refused(self, args):
        # int() would store 3.7 as 3 and 1.9 as 1
        with pytest.raises(TypeError):
            StatReport("t", 0.1, 0.2, *args)

    def test_serialization_fields(self):
        report = StatReport("demo", 0.5, 1.0, 100, 7)
        # reports are written with json.dumps(..., sort_keys=True)
        text = json.dumps(report.as_dict(), sort_keys=True)
        assert text == (
            '{"passed": true, "sample_size": 100, "seed": 7, '
            '"statistic": 0.5, "test_name": "demo", "threshold": 1.0}'
        )


class TestDistributionsEqual:
    @staticmethod
    def constant_sampler(level: float):
        mu = ParticleMeasure(0, np.full((4, 2), level))
        return lambda r: mu

    def test_identical_seeds_trivially_pass(self):
        rng_rows = np.random.default_rng(5).random((8, 2))

        def sampler(r):
            return ParticleMeasure(0, rng_rows + (r % 7) * 0.01)

        deltas = [CylinderSet(0, ((0.0, 0.5),)), CylinderSet(1, ((0.2, 0.7),))]
        report = distributions_equal(sampler, sampler, deltas, 120, 0.01)
        assert report.statistic == 0.0
        assert report.passed

    def test_separated_point_masses_fail(self):
        deltas = [CylinderSet(0, ((0.0, 0.5),))]
        report = distributions_equal(
            self.constant_sampler(0.0), self.constant_sampler(1.0), deltas, 150, 0.01
        )
        assert report.statistic == 1.0
        assert not report.passed

    def test_replica_r_of_both_sides_before_r_plus_one(self):
        # a slice-drawing sampler shared by both sides draws each slice once
        # only in this order
        calls = []

        def logged(side):
            mu = ParticleMeasure(0, np.full((4, 2), 0.25))
            return lambda r: calls.append((side, r)) or mu

        deltas = [CylinderSet(0, ((0.0, 0.5),))]
        distributions_equal(logged("a"), logged("b"), deltas, 120, 0.01)
        assert calls == [(side, r) for r in range(120) for side in "ab"]

    def test_parameter_validation(self):
        deltas = [CylinderSet(0, ((0.0, 0.5),))]
        s = self.constant_sampler(0.0)
        with pytest.raises(ValueError):
            distributions_equal(s, s, deltas, 99, 0.01)
        with pytest.raises(ValueError):
            distributions_equal(s, s, [], 150, 0.01)

        def never_drawn(r):
            raise AssertionError("a replica was drawn before alpha was checked")

        with pytest.raises(ValueError, match="alpha"):
            distributions_equal(never_drawn, never_drawn, deltas, 150, 1.5)


class TestKsThresholds:
    def test_critical_constant(self):
        # the asymptotic two-sided quantile at the one percent level
        assert ks_critical(0.01) == pytest.approx(1.628, abs=1e-3)

    def test_two_sample_equal_sizes(self):
        n = 400
        assert ks_two_sample_threshold(0.01, n, n) == pytest.approx(
            ks_critical(0.01) * np.sqrt(2.0 / n)
        )
