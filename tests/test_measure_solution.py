import cmath
import json
import math
import os
import re
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from stochrec import measure_solution
from stochrec.errors import CoverageError
from stochrec.measure_solution import (
    CharSpec,
    MeasureBuilder,
    char_spec_grid,
    conditional_measure,
    conditional_measure_sampler,
    consistency_check,
    hopf_lhs,
    hopf_residual,
    hopf_rhs,
    perturb_last_coordinate,
    random_char_specs,
    residual_reports,
    shift_equivariance_check,
)
from stochrec.path_space import Window, shift_path
from stochrec.random_measure import (
    CylinderSet,
    ParticleMeasure,
    cylinder_prob,
    integrate,
    ks_one_sample_threshold,
)
from stochrec.recurrence import (
    NoiseModel,
    UpdateMap,
    advance,
    contraction_map,
    fractional_map,
)
from stochrec.seeds import draw_u64, draw_unit, substream


def make_builder(particles=400, window=(0, 10), seed_tag="init", update_map=None, **kw):
    return MeasureBuilder(
        update_map=update_map if update_map is not None else fractional_map(),
        particle_count=particles,
        window=window,
        init_seed_stream=substream(1, seed_tag),
        **kw,
    )


def make_noise(window=(0, 10), seed_tag="noise"):
    lo, hi = window
    return NoiseModel(seed=substream(1, seed_tag)).window(lo + 1, hi - lo)


class TestTypes:
    def test_char_spec_validation(self):
        with pytest.raises(ValueError):
            CharSpec(n=0, m=0, lambdas=(), rho=1.0)
        with pytest.raises(ValueError):
            CharSpec(n=0, m=2, lambdas=(1.0,), rho=1.0)

    def test_builder_validation(self):
        with pytest.raises(ValueError):
            make_builder(window=(3, 3))
        with pytest.raises(ValueError):
            make_builder(particles=0)

    @pytest.mark.parametrize(
        "kw", [{"window": (0.0, 10)}, {"window": (0, 10.5)}, {"particles": 400.0}]
    )
    def test_builder_refuses_non_integer_sizes(self, kw):
        # a float window used to build and fail in conditional_measure with
        # "slice indices must be integers"
        with pytest.raises(TypeError):
            make_builder(**kw)

    def test_builder_stores_int_sizes(self):
        b = make_builder(particles=np.int64(5), window=[np.int64(0), np.int64(4)])
        assert type(b.particle_count) is int
        assert b.window == (0, 4) and all(type(i) is int for i in b.window)

    @pytest.mark.parametrize("field", ["n", "m"])
    def test_char_spec_refuses_non_integer_positions(self, field):
        # n = 1.0 used to build and fail in hopf_residual
        kw = dict(n=1, m=1, lambdas=(1.0,), rho=1.0)
        kw[field] = float(kw[field])
        with pytest.raises(TypeError):
            CharSpec(**kw)

    @pytest.mark.parametrize(
        "lambdas, rho",
        [((math.nan,), 1.0), ((1.0, math.inf), 0.0), ((1.0,), -math.inf), ((1.0,), math.nan)],
    )
    def test_char_spec_refuses_non_finite_frequencies(self, lambdas, rho):
        with pytest.raises(ValueError, match="frequencies must be finite"):
            CharSpec(n=0, m=len(lambdas), lambdas=lambdas, rho=rho)

    def test_char_spec_stores_float_frequencies(self):
        spec = CharSpec(n=0, m=1, lambdas=(1,), rho=np.int64(1))
        assert type(spec.rho) is float
        assert json.dumps(spec.as_dict()) == '{"n": 0, "m": 1, "lambdas": [1.0], "rho": 1.0}'

    @pytest.mark.parametrize(
        "bounds",
        [
            (0.0, math.inf),
            (-math.inf, 0.0),
            (-1e308, 1e308),
            (math.nan, 1.0),
            (1.0, 1.0),
            (1.0, 0.0),
        ],
    )
    @pytest.mark.parametrize(
        "entry",
        [
            lambda b: make_builder(init_bounds=b),
            lambda b: replace(make_builder(), init_bounds=b),
        ],
        ids=["MeasureBuilder", "replace"],
    )
    def test_bad_init_bounds_refused(self, entry, bounds):
        # (0.0, inf) used to build, with every initializer inf
        with pytest.raises(ValueError, match=re.escape(f"finite width, got {bounds}")):
            entry(bounds)

    @pytest.mark.parametrize("bounds", [(), (0.0,), (0.0, 1.0, 7.0)])
    def test_init_bounds_must_be_a_pair(self, bounds):
        # a third entry used to build, then fail when the initializers were drawn
        with pytest.raises(ValueError):
            make_builder(init_bounds=bounds)

    @pytest.mark.parametrize(
        "bounds", [(0, 1), [0.0, 1.0], (np.float32(0.5), np.int64(2))], ids=repr
    )
    def test_builder_stores_float_init_bounds(self, bounds):
        # a list used to be kept as given, so the frozen builder did not hash
        b = make_builder(init_bounds=bounds)
        assert b.init_bounds == tuple(float(v) for v in bounds)
        assert type(b.init_bounds) is tuple and all(type(v) is float for v in b.init_bounds)
        hash(b)

    def test_builder_translate(self):
        b = make_builder(window=(0, 8))
        assert b.translated(3).window == (3, 11)
        assert b.translated(3).init_seed_stream == b.init_seed_stream


def per_call_measure(builder, noise):
    # the construction as it drew its initializers on every call
    lo, hi = builder.window
    child_seeds = draw_u64(builder.init_seed_stream, np.arange(builder.particle_count))
    b_lo, b_hi = builder.init_bounds
    etas = b_lo + (b_hi - b_lo) * draw_unit(child_seeds, 0)
    columns = np.empty((builder.particle_count, hi - lo + 1), order="F")
    columns[:, 0] = etas
    x = etas
    for k in range(lo + 1, hi + 1):
        x = builder.update_map.apply(x, noise.coordinate(k))
        columns[:, k - lo] = x
    return columns


class TestInitializers:
    def test_read_only_and_drawn_once_per_builder(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return draw_u64(*args)

        monkeypatch.setattr(measure_solution, "draw_u64", counting)
        builder = make_builder(particles=50)
        etas = builder.initializers
        assert not etas.flags.writeable
        with pytest.raises(ValueError):
            etas[0] = 0.5
        noise = make_noise()
        first = conditional_measure(builder, noise)
        second = conditional_measure(builder, make_noise(seed_tag="other"))
        assert builder.initializers is etas
        assert len(calls) == 1
        assert np.array_equal(first.column(0), etas)
        assert np.array_equal(second.column(0), etas)

    @pytest.mark.parametrize("t", [1, -4, 7])
    def test_translated_builder_has_the_same_initializers(self, t):
        builder = make_builder(particles=64, init_bounds=(-2.0, 3.0))
        moved = builder.translated(t)
        assert moved.initializers is not builder.initializers
        assert bits(*moved.initializers) == bits(*builder.initializers)

    @settings(max_examples=60, deadline=None)
    @given(
        particles=st.integers(1, 300),
        lo=st.integers(-20, 20),
        length=st.integers(1, 14),
        bounds=st.tuples(
            st.floats(-5.0, 5.0, allow_subnormal=False), st.floats(0.01, 5.0)
        ).map(lambda ab: (ab[0], ab[0] + ab[1])),
        seed=st.integers(0, 2**64 - 1),
        update_map=st.sampled_from([fractional_map(), contraction_map(0.5)]),
        builds=st.integers(1, 3),
    )
    def test_equals_per_call_draw(self, particles, lo, length, bounds, seed, update_map, builds):
        builder = MeasureBuilder(
            update_map=update_map,
            particle_count=particles,
            window=(lo, lo + length),
            init_seed_stream=substream(seed, "init"),
            init_bounds=bounds,
        )
        for r in range(builds):
            noise = NoiseModel(seed=substream(seed, f"noise:{r}")).window(lo + 1, length)
            got = conditional_measure(builder, noise).values
            want = per_call_measure(builder, noise)
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


class TestConditionalMeasure:
    def test_single_particle_point_mass(self):
        mu = conditional_measure(make_builder(particles=1), make_noise())
        assert mu.particle_count == 1
        assert integrate(mu, mu.column(3)) == mu.values[0, 3]

    def test_recursion_holds_exactly(self):
        builder = make_builder()
        noise = make_noise()
        mu = conditional_measure(builder, noise)
        fm = builder.update_map
        for k in range(1, 11):
            stepped = fm.apply(mu.column(k - 1), noise.coordinate(k))
            assert np.array_equal(np.asarray(stepped), mu.column(k))

    def test_matches_per_particle_sampler_route(self):
        # independent route: one scalar forward run per derived seed
        builder = make_builder(particles=16, window=(2, 7))
        noise = make_noise(window=(2, 7))
        mu = conditional_measure(builder, noise)
        for j in range(16):
            seed_j = int(draw_u64(builder.init_seed_stream, j))
            path = np.empty(len(noise))
            x0 = float(draw_unit(seed_j, 0))
            advance(builder.update_map.apply, x0, noise.values.tolist(), out=path)
            assert np.array_equal([x0, *path], mu.values[j])

    def test_marginal_uniform_for_fixed_noise_path(self):
        # one frozen noise path, many initializer draws: coordinate 5 is
        # uniform on [0, 1)
        builder = make_builder(particles=2000, window=(0, 5))
        noise = NoiseModel(seed=31).window(1, 5)
        draws = conditional_measure(builder, noise).column(5)
        d = sps.kstest(draws, "uniform").statistic
        assert d < ks_one_sample_threshold(0.01, len(draws))

    def test_contraction_collapse(self):
        builder = make_builder(
            particles=300, window=(0, 40), update_map=contraction_map(0.5)
        )
        noise = make_noise(window=(0, 40))
        mu = conditional_measure(builder, noise)
        initial_spread = np.std(mu.column(0))
        assert np.std(mu.column(40)) <= 0.5**40 * initial_spread + 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_noise_refused(self, bad):
        values = make_noise().values.copy()
        values[4] = bad
        with pytest.raises(ValueError, match="finite"):
            conditional_measure(make_builder(), Window(offset=1, values=values))

    def test_insufficient_noise(self):
        with pytest.raises(CoverageError):
            conditional_measure(make_builder(window=(0, 10)), make_noise(window=(0, 5)))

    @pytest.mark.parametrize("bounds", [(0.0, 0.5), (-2.0, 3.0)])
    def test_init_bounds_respected(self, bounds):
        builder = make_builder(
            particles=200, update_map=contraction_map(0.5), init_bounds=bounds
        )
        mu = conditional_measure(builder, make_noise())
        assert bounds[0] <= mu.column(0).min() and mu.column(0).max() < bounds[1]


class TestHopfFunctionals:
    def test_lhs_all_zero_frequencies(self):
        mu = conditional_measure(make_builder(), make_noise())
        spec = CharSpec(n=0, m=3, lambdas=(0.0, 0.0, 0.0), rho=0.0)
        assert hopf_lhs(mu, spec) == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_lhs_point_mass_formula(self):
        values = np.asarray([[0.1, 0.4, 0.7, 0.2]])
        mu = ParticleMeasure(0, values)
        spec = CharSpec(n=0, m=2, lambdas=(1.5, -0.5), rho=2.0)
        expected = cmath.exp(1j * (1.5 * 0.4 - 0.5 * 0.7 + 2.0 * 0.2))
        assert hopf_lhs(mu, spec) == pytest.approx(expected, abs=1e-12)

    def test_lhs_two_particle_mean(self):
        values = np.asarray([[0.1, 0.4], [0.9, 0.3]])
        mu = ParticleMeasure(0, values)
        spec = CharSpec(n=-1, m=1, lambdas=(2.0,), rho=-1.0)
        expected = 0.5 * (
            cmath.exp(1j * (2.0 * 0.1 - 0.4)) + cmath.exp(1j * (2.0 * 0.9 - 0.3))
        )
        assert hopf_lhs(mu, spec) == pytest.approx(expected, abs=1e-12)

    def test_lhs_modulus_bounded(self):
        mu = conditional_measure(make_builder(), make_noise())
        for spec in random_char_specs((0, 10), 20, seed=5):
            assert abs(hopf_lhs(mu, spec)) <= 1.0 + 1e-12

    def test_rhs_rho_zero_matches_lhs(self):
        mu = conditional_measure(make_builder(), make_noise())
        noise = make_noise()
        spec = CharSpec(n=2, m=3, lambdas=(0.8, -1.1, 0.3), rho=0.0)
        assert hopf_rhs(mu, noise, spec, fractional_map()) == hopf_lhs(mu, spec)

    def test_rhs_point_mass(self):
        values = np.asarray([[0.1, 0.4, 0.7]])
        mu = ParticleMeasure(0, values)
        noise = Window(offset=1, values=(0.25, 0.5))
        fm = fractional_map()
        spec = CharSpec(n=0, m=1, lambdas=(1.0,), rho=3.0)
        expected = cmath.exp(1j * (0.4 + 3.0 * float(fm.apply(0.4, 0.5))))
        assert hopf_rhs(mu, noise, spec, fm) == pytest.approx(expected, abs=1e-12)

    def test_window_violations(self):
        mu = conditional_measure(make_builder(window=(0, 5)), make_noise(window=(0, 5)))
        noise = make_noise(window=(0, 5))
        bad = CharSpec(n=3, m=3, lambdas=(1.0, 1.0, 1.0), rho=1.0)
        with pytest.raises(CoverageError):
            hopf_lhs(mu, bad)
        with pytest.raises(CoverageError):
            hopf_rhs(mu, noise, bad, fractional_map())


class TestHopfResidual:
    def test_constructed_measure_satisfies_identity(self):
        builder = make_builder(particles=2000, window=(0, 12))
        noise = make_noise(window=(0, 12))
        mu = conditional_measure(builder, noise)
        specs = char_spec_grid((0, 12)) + random_char_specs((0, 12), 24, seed=9)
        worst = max(hopf_residual(mu, noise, s, builder.update_map) for s in specs)
        assert worst <= 1e-9

    def test_rho_zero_residual_is_zero(self):
        mu = conditional_measure(make_builder(), make_noise())
        noise = make_noise()
        spec = CharSpec(n=1, m=2, lambdas=(1.3, -0.2), rho=0.0)
        assert hopf_residual(mu, noise, spec, fractional_map()) == 0.0

    def test_perturbed_measure_fails(self):
        builder = make_builder(particles=2000, window=(0, 12))
        noise = make_noise(window=(0, 12))
        mu = perturb_last_coordinate(conditional_measure(builder, noise), seed=123)
        spec = CharSpec(n=8, m=3, lambdas=(1.0, 1.0, 1.0), rho=1.0)
        assert hopf_residual(mu, noise, spec, builder.update_map) > 0.01

    def test_perturbation_keeps_marginals(self):
        mu = conditional_measure(make_builder(), make_noise())
        pert = perturb_last_coordinate(mu, seed=5)
        assert sorted(pert.column(10)) == sorted(mu.column(10))
        assert np.array_equal(pert.span(0, 9), mu.span(0, 9))


def reference_integrate(mu, values):
    # the sum against an explicit array of uniform weights 1/P
    weights = np.full(mu.particle_count, 1.0 / mu.particle_count)
    return np.sum(weights * values)


def row_sum_lhs(mu, spec):
    # the row reduction over a C-ordered block that the probes used before the fold
    block = np.ascontiguousarray(mu.span(spec.n + 1, spec.n + spec.m + 1))
    phases = (block * np.asarray(spec.lambdas + (spec.rho,))).sum(axis=1)
    return complex(reference_integrate(mu, np.exp(1j * phases)))


def row_sum_rhs(mu, noise, spec, update_map):
    block = np.ascontiguousarray(mu.span(spec.n + 1, spec.n + spec.m))
    phases = (block * np.asarray(spec.lambdas)).sum(axis=1)
    stepped = update_map.apply(block[:, -1], noise.coordinate(spec.n + spec.m + 1))
    return complex(reference_integrate(mu, np.exp(1j * (phases + spec.rho * stepped))))


def bits(*values):
    """Bit patterns of floats or of complex numbers' real and imaginary parts."""
    parts = []
    for v in values:
        parts.extend([v.real, v.imag] if isinstance(v, complex) else [v])
    return np.asarray(parts, dtype=np.float64).view(np.int64).tolist()


def read_only(matrix):
    matrix.setflags(write=False)
    return matrix


def report_bits(mu, noise, spec, update_map):
    report = residual_reports(mu, noise, [spec], update_map)[0]
    return bits(*[report[k] for k in ("lhs_re", "lhs_im", "rhs_re", "rhs_im", "residual")])


def two_sided_bits(mu, noise, spec, update_map):
    # both integrals computed, whatever the measure
    lhs, rhs = hopf_lhs(mu, spec), hopf_rhs(mu, noise, spec, update_map)
    return bits(lhs, rhs, abs(lhs - rhs))


def edited(mu, particle, index, value):
    values = mu.values.copy(order="F")
    values[particle, index - mu.offset] = value
    return ParticleMeasure(mu.offset, values)


@st.composite
def edge_phases(draw):
    """Finite phases without -0.0 (x + 0.0 turns -0.0 into +0.0), as the fold
    yields them; the bulk runs numpy's vector loops, not only their scalar tails."""
    listed = draw(st.lists(
        st.one_of(
            st.floats(-1e6, 1e6, allow_subnormal=True),
            st.sampled_from([0.0, 5e-324, -5e-324, 2.0**-1030, -(2.0**-1030), 1e6, -1e6]),
        ),
        min_size=1,
        max_size=64,
    ))
    bulk = draw(st.integers(0, 3000))
    scale = draw(st.sampled_from([1e-300, 1e-3, 1.0, 12.0, 1e3, 1e6]))
    seed = draw(st.integers(0, 2**64 - 1))
    drawn = scale * (2.0 * draw_unit(seed, np.arange(bulk)) - 1.0)
    return np.concatenate([np.asarray(listed), drawn]) + 0.0


class TestPhaseFold:
    @settings(max_examples=60, deadline=None)
    @given(
        particles=st.integers(1, 500),
        length=st.integers(3, 12),
        update_map=st.sampled_from([fractional_map(), contraction_map(0.5)]),
        seed=st.integers(0, 2**64 - 1),
        extra_specs=st.integers(0, 12),
        layout=st.sampled_from(["C", "F"]),
        perturbed=st.booleans(),
    )
    def test_equals_row_sum_bit_for_bit(
        self, particles, length, update_map, seed, extra_specs, layout, perturbed
    ):
        # every probe the CLI generates (orders <= 4) keeps its old bits
        window = (-1, length - 2)
        builder = MeasureBuilder(
            update_map=update_map,
            particle_count=particles,
            window=window,
            init_seed_stream=substream(seed, "init"),
        )
        noise = NoiseModel(seed=substream(seed, "noise")).window(0, length - 1)
        mu = conditional_measure(builder, noise)
        if perturbed:
            mu = perturb_last_coordinate(mu, seed)
        values = read_only(np.array(mu.values, order=layout))
        mu = ParticleMeasure(mu.offset, values)
        assert mu.values is values
        specs = char_spec_grid(window) + random_char_specs(window, extra_specs, seed)
        for spec in specs:
            lhs, rhs = row_sum_lhs(mu, spec), row_sum_rhs(mu, noise, spec, update_map)
            assert bits(hopf_lhs(mu, spec)) == bits(lhs)
            assert bits(hopf_rhs(mu, noise, spec, update_map)) == bits(rhs)
            assert report_bits(mu, noise, spec, update_map) == bits(lhs, rhs, abs(lhs - rhs))
            assert bits(hopf_residual(mu, noise, spec, update_map)) == bits(abs(lhs - rhs))

    def test_signed_zero(self):
        # a zero column with a -0.0 frequency and rho = 0.0: the fold starts from
        # +0.0 like numpy's reduction, so no phase comes out as -0.0
        values = np.zeros((3, 4))
        values[:, 2] = [0.25, 0.5, 0.75]
        mu = ParticleMeasure(0, values)
        noise = Window(offset=1, values=(0.1, 0.2, 0.3))
        spec = CharSpec(n=0, m=1, lambdas=(-0.0,), rho=0.0)
        block = mu.span(1, 2)
        freqs = spec.lambdas + (spec.rho,)
        old = (np.ascontiguousarray(block) * np.asarray(freqs)).sum(axis=1)
        assert old.view(np.int64).tolist() == [0, 0, 0]
        # every phase +0.0: cos 1 and sin +0.0 on all three rows
        assert bits(measure_solution._probe_integral(block.T, freqs)) == bits(1.0, 0.0)
        assert bits(measure_solution._probe_integral(block.T[:1], spec.lambdas)) == bits(1.0, 0.0)
        fm = fractional_map()
        assert bits(hopf_lhs(mu, spec)) == bits(row_sum_lhs(mu, spec))
        assert bits(hopf_rhs(mu, noise, spec, fm)) == bits(row_sum_rhs(mu, noise, spec, fm))

    def test_negative_zero_phase_is_where_the_forms_differ(self):
        # sin(-0.0) is -0.0, while 1j * -0.0 has imaginary part +0.0 and so
        # does its exp; the kernel's fold from +0.0 turns a -0.0 phase into
        # +0.0, so the integrals agree
        phases = np.array([-0.0, 0.0])
        trig = np.empty(2, complex)
        np.cos(phases, out=trig.real)
        np.sin(phases, out=trig.imag)
        assert bits(*trig) == bits(1.0, -0.0, 1.0, 0.0)
        assert bits(*np.exp(1j * phases)) == bits(1.0, 0.0, 1.0, 0.0)
        mu = ParticleMeasure(0, np.zeros((2, 1)))
        integral = measure_solution._probe_integral((phases,), (1.0,))
        assert bits(integral) == bits(reference_integrate(mu, np.exp(1j * phases))) == bits(1.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(phases=edge_phases())
    def test_char_integral_equals_exp_bit_for_bit(self, phases):
        mu = ParticleMeasure(0, np.zeros((len(phases), 1)))
        expected = complex(reference_integrate(mu, np.exp(1j * phases)))
        assert bits(measure_solution._probe_integral((phases,), (1.0,))) == bits(expected)

    @pytest.mark.parametrize("update_map", [fractional_map(), contraction_map(0.5)])
    def test_residual_exactly_zero_at_any_order(self, update_map):
        # both sides fold the same terms in the same order, so high orders
        # (where numpy's row reduction turns pairwise) stay exact as well
        window = (0, 14)
        builder = make_builder(particles=300, window=window, update_map=update_map)
        noise = make_noise(window=window)
        mu = conditional_measure(builder, noise)
        freqs = 6.0 * NoiseModel(seed=substream(3, "freqs")).window(0, 14).values - 3.0
        for m in range(1, 13):
            spec = CharSpec(n=0, m=m, lambdas=tuple(freqs[:m]), rho=float(freqs[m]))
            assert hopf_residual(mu, noise, spec, update_map) == 0.0


class TestHopfShortcut:
    """The right side's integral is skipped only when it must equal the left's."""

    WINDOW = (0, 10)

    def construct(self, update_map):
        builder = make_builder(particles=200, window=self.WINDOW, update_map=update_map)
        noise = make_noise(window=self.WINDOW)
        specs = char_spec_grid(self.WINDOW) + random_char_specs(self.WINDOW, 8, seed=11)
        return conditional_measure(builder, noise), noise, specs

    @pytest.fixture
    def integrals(self, monkeypatch):
        calls = []
        plain = measure_solution._probe_integral

        def counted(columns, freqs):
            calls.append(len(columns[0]))
            return plain(columns, freqs)

        monkeypatch.setattr(measure_solution, "_probe_integral", counted)
        return calls

    @pytest.mark.parametrize("update_map", [fractional_map(), contraction_map(0.5)])
    def test_one_ulp_off_matches_two_sided(self, update_map, integrals):
        mu, noise, specs = self.construct(update_map)
        for spec in specs:
            last = spec.n + spec.m + 1
            nudged = edited(mu, 7, last, np.nextafter(mu.column(last)[7], np.inf))
            expected = two_sided_bits(nudged, noise, spec, update_map)
            del integrals[:]
            assert report_bits(nudged, noise, spec, update_map) == expected
            assert bits(hopf_residual(nudged, noise, spec, update_map)) == expected[-1:]
            assert len(integrals) == 4

    def test_negative_zero_where_the_map_gives_positive_zero(self, integrals):
        # contraction 0.5 at u = -2 xi gives -xi + xi = +0.0; the stored -0.0
        # equals it as a value but not as bits, so both sides are integrated
        update_map = contraction_map(0.5)
        mu, noise, specs = self.construct(update_map)
        for spec in specs:
            last = spec.n + spec.m + 1
            xi = noise.coordinate(last)
            zeroed = edited(edited(mu, 3, last - 1, -2.0 * xi), 3, last, -0.0)
            stepped = update_map.apply(zeroed.column(last - 1), xi)
            assert bits(float(stepped[3]), zeroed.column(last)[3]) == bits(0.0, -0.0)
            expected = two_sided_bits(zeroed, noise, spec, update_map)
            del integrals[:]
            assert report_bits(zeroed, noise, spec, update_map) == expected
            assert bits(hopf_residual(zeroed, noise, spec, update_map)) == expected[-1:]
            assert len(integrals) == 4

    @pytest.mark.parametrize("update_map", [fractional_map(), contraction_map(0.5)])
    def test_one_integral_per_probe_on_a_construction(self, update_map, integrals):
        mu, noise, specs = self.construct(update_map)
        for spec in specs:
            del integrals[:]
            residual_reports(mu, noise, [spec], update_map)[0]
            hopf_residual(mu, noise, spec, update_map)
            assert integrals == [mu.particle_count] * 2

    def test_perturbed_last_column_needs_both_integrals(self, integrals):
        update_map = fractional_map()
        mu, noise, specs = self.construct(update_map)
        mu = perturb_last_coordinate(mu, seed=5)
        reads_last = [spec.n + spec.m + 1 == self.WINDOW[1] for spec in specs]
        assert any(reads_last) and not all(reads_last)
        for spec, last in zip(specs, reads_last):
            del integrals[:]
            residual_reports(mu, noise, [spec], update_map)
            assert len(integrals) == (2 if last else 1)
            del integrals[:]
            hopf_residual(mu, noise, spec, update_map)
            assert len(integrals) == (2 if last else 1)

    @pytest.mark.parametrize("perturbed", [False, True])
    @pytest.mark.parametrize("update_map", [fractional_map(), contraction_map(0.5)])
    def test_residual_is_the_reports(self, update_map, perturbed):
        mu, noise, specs = self.construct(update_map)
        if perturbed:
            mu = perturb_last_coordinate(mu, seed=5)
        keys = ("lhs_re", "lhs_im", "rhs_re", "rhs_im", "residual")
        reports = residual_reports(mu, noise, specs, update_map)
        assert len(reports) == len(specs)
        for spec, batched in zip(specs, reports):
            report = residual_reports(mu, noise, [spec], update_map)[0]
            assert bits(hopf_residual(mu, noise, spec, update_map)) == bits(report["residual"])
            assert batched["spec"] == report["spec"] == spec.as_dict()
            assert bits(*[batched[k] for k in keys]) == bits(*[report[k] for k in keys])

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_one_apply_per_last_column(self, perturbed):
        # the CLI's default probes on window 16: 45 grid and 32 random ones
        window = (0, 15)
        builder = make_builder(particles=100, window=window)
        noise = make_noise(window=window)
        mu = conditional_measure(builder, noise)
        if perturbed:
            mu = perturb_last_coordinate(mu, seed=5)
        specs = char_spec_grid(window) + random_char_specs(window, 32, seed=5)
        assert len(specs) == 77
        lasts = {spec.n + spec.m + 1 for spec in specs}
        assert len(lasts) <= 14
        applied = []
        plain = fractional_map()

        def apply(x, xi):
            applied.append(np.shape(x))
            return plain.apply(x, xi)

        counting = UpdateMap("counting", apply)
        for spec in specs:
            residual_reports(mu, noise, [spec], counting)[0]
        per_probe = len(applied)
        del applied[:]
        residual_reports(mu, noise, specs, counting)
        # perturbed, hopf_rhs applies once more on each probe reading the shuffled column
        rhs_applies = sum(spec.n + spec.m + 1 == window[1] for spec in specs) if perturbed else 0
        assert per_probe == 77 + rhs_applies
        assert len(applied) == len(lasts) + rhs_applies


def cut_probes(mp, cpus, rows):
    """Pretend the process may run on ``cpus`` CPUs and parts have ``rows`` rows;
    return the list that each started thread is appended to."""
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    mp.setattr(measure_solution, "_PART_ROWS", rows)
    started = []
    plain = threading.Thread.start

    def start(thread):
        started.append(thread)
        plain(thread)

    mp.setattr(threading.Thread, "start", start)
    return started


class TestProbeSplit:
    """A probe cut into parts over threads gives the one-part value, bit for bit."""

    KEYS = ("lhs_re", "lhs_im", "rhs_re", "rhs_im", "residual")

    @settings(max_examples=40, deadline=None)
    @given(
        particles=st.integers(1, 3000),
        parts=st.integers(1, 4),
        update_map=st.sampled_from([fractional_map(), contraction_map(0.5)]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_split_reports_equal_one_part(self, particles, parts, update_map, seed):
        # the shuffled last column makes hopf_rhs integrate on the probes reading it
        window = (0, 8)
        builder = MeasureBuilder(update_map, particles, window, substream(seed, "init"))
        noise = NoiseModel(substream(seed, "noise")).driving(window)
        mu = perturb_last_coordinate(conditional_measure(builder, noise), seed)
        specs = char_spec_grid(window) + random_char_specs(window, 6, seed)
        kernel, sides = measure_solution._probe_integral, []

        def counted(columns, freqs):
            sides.append(len(columns[0]))
            return kernel(columns, freqs)

        def report_bits():
            reports = residual_reports(mu, noise, specs, update_map)
            return [bits(*[report[k] for k in self.KEYS]) for report in reports]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measure_solution, "_probe_integral", counted)
            serial = cut_probes(mp, 1, 1)
            whole = report_bits()
            assert not serial
            started = cut_probes(mp, parts, max(1, particles // parts))
            del sides[:]
            split = report_bits()
        assert split == whole
        assert len(started) == len(sides) * (min(parts, particles) - 1)

    @settings(max_examples=100, deadline=None)
    @given(phases=edge_phases(), parts=st.integers(2, 4))
    def test_split_kernel_equals_one_part_on_edge_phases(self, phases, parts):
        with pytest.MonkeyPatch.context() as mp:
            serial = cut_probes(mp, 1, 1)
            whole = measure_solution._probe_integral((phases,), (1.0,))
            assert not serial
            started = cut_probes(mp, parts, max(1, len(phases) // parts))
            split = measure_solution._probe_integral((phases,), (1.0,))
        assert bits(split) == bits(whole)
        assert len(started) == min(parts, len(phases)) - 1

    @pytest.mark.parametrize("error", [MemoryError, ValueError])
    def test_a_worker_part_error_propagates(self, monkeypatch, error):
        mu, noise, specs = TestHopfShortcut().construct(fractional_map())
        mu = perturb_last_coordinate(mu, seed=5)
        plain = np.sin

        def sin(x, out):
            if threading.current_thread() is not threading.main_thread():
                raise error("part")
            return plain(x, out=out)

        monkeypatch.setattr(np, "sin", sin)
        started = cut_probes(monkeypatch, 3, 50)
        with pytest.raises(error, match="part"):
            residual_reports(mu, noise, specs, fractional_map())
        assert len(started) == 2
        assert all(not thread.is_alive() for thread in started)


def three_buffer_integral(columns, freqs):
    """The probe kernel as it stood with a separate term array, in one part."""
    count = len(columns[0])
    values, phases, terms = np.empty(count, complex), np.zeros(count), np.empty(count)
    for column, freq in zip(columns, freqs):
        phases += np.multiply(column, freq, out=terms)
    np.cos(phases, out=values.real)
    np.sin(phases, out=values.imag)
    np.multiply(1.0 / count, values, out=values)
    return complex(values.sum())


class TestOneBufferProbe:
    """Staging each fold term in the complex buffer, which cos and sin then
    overwrite, gives the bits of the kernel with a separate term array."""

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(1, 3000),
        freqs=st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-3.0, 3.0)),
            min_size=1,
            max_size=5,
        ),
        scale=st.sampled_from([1.0, 1e-3, 12.0, 1e3]),
        layout=st.sampled_from(["C", "F"]),
        seed=st.integers(0, 2**64 - 1),
        parts=st.integers(1, 4),
    )
    def test_equals_three_buffer_kernel(self, rows, freqs, scale, layout, seed, parts):
        # layout F gives contiguous columns, as a measure's block does; C strided ones
        flat = draw_unit(seed, np.arange(rows * len(freqs)))
        block = np.asarray(scale * (2.0 * flat - 1.0).reshape(rows, len(freqs)), order=layout)
        columns = tuple(block.T)
        with pytest.MonkeyPatch.context() as mp:
            started = cut_probes(mp, parts, max(1, rows // parts))
            got = measure_solution._probe_integral(columns, tuple(freqs))
        assert bits(got) == bits(three_buffer_integral(columns, freqs))
        assert len(started) == min(parts, rows) - 1


class TestHopfCheckMemory:
    """Bytes a Hopf check holds above its ensemble, traced by tracemalloc so
    that the figure does not depend on the allocator.  A map application holds
    its input and one result, and a probe side one complex buffer and one
    phase array: about 25 and 24 bytes per particle, where one more
    particle-sized float64 array in either reads 32."""

    PARTICLES = 100_000
    BYTES_PER_PARTICLE = 28

    def test_build_and_probes_transient(self):
        window = (0, 15)
        builder = make_builder(particles=self.PARTICLES, window=window)
        builder.initializers  # drawn beforehand: the build's own transient is measured
        noise = make_noise(window=window)
        specs = char_spec_grid(window) + random_char_specs(window, 32, seed=1)
        assert len(specs) == 77  # hopf-check's default probes
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            mu = conditional_measure(builder, noise)
            build = tracemalloc.get_traced_memory()[1] - start - mu.values.nbytes
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            residual_reports(mu, noise, specs, builder.update_map)
            probes = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert build <= self.BYTES_PER_PARTICLE * self.PARTICLES
        assert probes <= self.BYTES_PER_PARTICLE * self.PARTICLES


class TestLayout:
    def test_conditional_measure_is_column_major(self):
        mu = conditional_measure(make_builder(), make_noise())
        assert mu.values.flags.f_contiguous
        assert not mu.values.flags.writeable
        pert = perturb_last_coordinate(mu, seed=5)
        assert pert.values.flags.f_contiguous
        assert not pert.values.flags.writeable

    def test_read_only_matrix_is_shared(self):
        mu = conditional_measure(make_builder(), make_noise())
        assert shift_path(mu, 3).values is mu.values

    def test_c_and_f_input_give_the_same_measure(self):
        mu = conditional_measure(make_builder(window=(0, 10)), make_noise(window=(0, 10)))
        noise = make_noise(window=(0, 10))
        from_c = ParticleMeasure(0, np.ascontiguousarray(mu.values))
        from_f = ParticleMeasure(0, np.asfortranarray(mu.values.copy()))
        assert from_c.values.flags.f_contiguous and from_f.values.flags.f_contiguous
        assert from_c.values.flags.writeable is False
        shared_c = ParticleMeasure(0, read_only(np.ascontiguousarray(mu.values)))
        assert shared_c.values.flags.c_contiguous
        measures = (mu, from_c, from_f, shared_c)
        for other in measures[1:]:
            assert mu == other
        delta = CylinderSet(start=4, intervals=((0.1, 0.6), (0.3, 0.9)))
        assert len({cylinder_prob(m, delta) for m in measures}) == 1
        specs = char_spec_grid((0, 10)) + random_char_specs((0, 10), 8, seed=2)
        fm = fractional_map()
        for spec in specs:
            values = [bits(hopf_lhs(m, spec), hopf_rhs(m, noise, spec, fm)) for m in measures]
            assert all(v == values[0] for v in values)


class TestSpecFamilies:
    def test_grid_within_window(self):
        for window in [(0, 4), (0, 15), (-3, 6)]:
            for spec in char_spec_grid(window):
                assert window[0] <= spec.n
                assert spec.n + spec.m + 1 <= window[1]

    def test_grid_reaches_last_coordinate(self):
        window = (0, 15)
        assert any(s.n + s.m + 1 == 15 for s in char_spec_grid(window))

    def test_grid_too_short(self):
        with pytest.raises(ValueError):
            char_spec_grid((0, 1))

    def test_random_specs_deterministic_and_valid(self):
        a = random_char_specs((0, 10), 16, seed=4)
        b = random_char_specs((0, 10), 16, seed=4)
        assert a == b
        for spec in a:
            assert 0 <= spec.n and spec.n + spec.m + 1 <= 10
            assert all(-3.0 <= v <= 3.0 for v in spec.lambdas + (spec.rho,))

    def test_random_specs_count(self):
        assert random_char_specs((0, 10), 0, seed=4) == []
        with pytest.raises(ValueError, match="nonnegative"):
            random_char_specs((0, 10), -5, seed=4)


class TestConsistency:
    def split_noise_pair(self, window, split, future_seed_a, future_seed_b):
        lo, hi = window
        past = NoiseModel(seed=substream(7, "past")).window(lo + 1, split - lo)
        fut_a = NoiseModel(seed=future_seed_a).window(split + 1, hi - split)
        fut_b = NoiseModel(seed=future_seed_b).window(split + 1, hi - split)
        return (
            Window(offset=lo + 1, values=np.concatenate([past.values, fut_a.values])),
            Window(offset=lo + 1, values=np.concatenate([past.values, fut_b.values])),
        )

    def test_equal_noise_paths(self):
        noise = make_noise()
        assert consistency_check(make_builder(), noise, noise, n=5)

    def test_differing_futures_only(self):
        noise_a, noise_b = self.split_noise_pair((0, 10), 5, 111, 222)
        assert consistency_check(make_builder(), noise_a, noise_b, n=5)

    def test_differing_pasts_detected(self):
        window = (0, 10)
        noise_a = NoiseModel(seed=substream(7, "a")).window(1, 10)
        values = noise_a.values.copy()
        values[3] = (values[3] + 0.37) % 1.0  # index 4 <= n: history differs
        noise_b = Window(offset=1, values=values)
        assert not consistency_check(make_builder(window=window), noise_a, noise_b, n=5)

    def test_pasts_differing_only_by_signed_zeros_detected(self):
        # (x - x) * (0.5 - xi) is +0.0 or -0.0 by the side of 1/2 that xi is on,
        # so the two pasts are equal as values and differ as bit patterns
        update_map = UpdateMap("signed-zero", lambda x, xi: (x - x) * (0.5 - xi))
        builder = make_builder(update_map=update_map)
        values = np.full(10, 0.25)
        values[3] = 0.75  # xi_4 > 1/2: u_4 = -0.0 on every particle
        noise_a, noise_b = Window(1, np.full(10, 0.25)), Window(1, values)
        mu_a, mu_b = conditional_measure(builder, noise_a), conditional_measure(builder, noise_b)
        assert np.array_equal(mu_a.values, mu_b.values) and mu_a != mu_b
        assert not consistency_check(builder, noise_a, noise_b, n=5)
        assert consistency_check(builder, noise_a, noise_b, n=3)

    def test_structural_mismatch_rejected(self):
        noise = make_noise()
        shorter = Window(offset=1, values=noise.values[:-1])
        with pytest.raises(CoverageError):
            consistency_check(make_builder(), noise, shorter, n=5)


class TestShiftEquivariance:
    def test_zero_shift(self):
        assert shift_equivariance_check(make_builder(), make_noise(), 0)

    @pytest.mark.parametrize("t", [1, 3, -2])
    def test_fractional_shifts(self, t):
        assert shift_equivariance_check(make_builder(), make_noise(), t)

    def test_contraction_shift(self):
        builder = make_builder(update_map=contraction_map(0.5))
        assert shift_equivariance_check(builder, make_noise(), 2)

    def test_one_ulp_off_fails_at_the_default(self, monkeypatch):
        # the default compares exactly; criterion 03's atol=1e-12 forgives an ulp
        exact_shift = measure_solution.shift_path

        def nudged_shift(p, t):
            shifted = exact_shift(p, t)
            if not isinstance(shifted, ParticleMeasure):
                return shifted
            values = shifted.values.copy()
            values[5, -1] = np.nextafter(values[5, -1], np.inf)
            return ParticleMeasure(shifted.offset, values)

        builder, noise = make_builder(), make_noise()
        assert shift_equivariance_check(builder, noise, 2)
        monkeypatch.setattr(measure_solution, "shift_path", nudged_shift)
        assert not shift_equivariance_check(builder, noise, 2)
        assert shift_equivariance_check(builder, noise, 2, atol=1e-12)

    def test_signed_zero_fails_at_the_default(self, monkeypatch):
        # a translate whose zeros turn negative is equal as values, not as bits
        exact_shift = measure_solution.shift_path

        def negated_zeros_shift(p, t):
            shifted = exact_shift(p, t)
            if not isinstance(shifted, ParticleMeasure):
                return shifted
            values = shifted.values.copy()
            values[values == 0.0] = -0.0
            return ParticleMeasure(shifted.offset, values)

        builder = make_builder(update_map=UpdateMap("zero", lambda x, xi: 0.0 * x))
        noise = make_noise()
        assert conditional_measure(builder, noise).column(5).view(np.int64).tolist() == [0] * 400
        assert shift_equivariance_check(builder, noise, 2)
        monkeypatch.setattr(measure_solution, "shift_path", negated_zeros_shift)
        assert not shift_equivariance_check(builder, noise, 2)
        assert shift_equivariance_check(builder, noise, 2, atol=1e-12)

    @pytest.mark.parametrize("atol", [-1e-12, float("nan"), float("inf")])
    def test_bad_atol_refused(self, atol):
        with pytest.raises(ValueError, match="atol"):
            shift_equivariance_check(make_builder(), make_noise(), 2, atol=atol)

    def test_mismatched_initializer_seeds_break_identity(self):
        builder = make_builder()
        noise = make_noise()
        lhs = shift_path(conditional_measure(builder, noise), -3)
        other = MeasureBuilder(
            update_map=builder.update_map,
            particle_count=builder.particle_count,
            window=builder.translated(3).window,
            init_seed_stream=substream(1, "different-stream"),
        )
        rhs = conditional_measure(other, shift_path(noise, -3))
        assert lhs.offset == rhs.offset
        assert np.max(np.abs(lhs.values - rhs.values)) > 1e-12


class TestMeasureSampler:
    def test_pure_function_of_replica(self):
        sampler = conditional_measure_sampler(make_builder(), noise_seed=substream(2, "s"))
        assert sampler(4) == sampler(4)
        assert sampler(4) != sampler(5)

    def test_replica_noise_is_the_draw_u64_child(self):
        builder, seed = make_builder(), substream(2, "s")
        sampler = conditional_measure_sampler(builder, noise_seed=seed)
        for r in (0, 7):
            noise = NoiseModel(int(draw_u64(seed, r))).window(1, 10)
            assert sampler(r) == conditional_measure(builder, noise)

    def test_integrate_normalization_over_replicas(self):
        sampler = conditional_measure_sampler(make_builder(), noise_seed=substream(2, "s"))
        for r in range(3):
            mu = sampler(r)
            assert integrate(mu, np.ones(mu.particle_count)) == pytest.approx(1.0, abs=1e-12)
