import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    residual_report,
    shift_equivariance_check,
)
from stochrec.path_space import Window, shift_path
from stochrec.random_measure import (
    CylinderSet,
    ParticleMeasure,
    cylinder_prob,
    integrate,
    measures_allclose,
    shift_measure,
)
from stochrec.recurrence import (
    NoiseModel,
    contraction_map,
    fractional_map,
    stationary_sampler,
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
        assert mu.weights[0] == 1.0

    def test_recursion_holds_exactly(self):
        builder = make_builder()
        noise = make_noise()
        mu = conditional_measure(builder, noise)
        fm = builder.update_map
        for k in range(1, 11):
            stepped = fm.apply(mu.column(k - 1), noise.coordinate(k))
            assert np.array_equal(np.asarray(stepped), mu.column(k))

    def test_matches_per_particle_sampler_route(self):
        # independent route: one stationary-sampler run per derived seed
        builder = make_builder(particles=16, window=(2, 7))
        noise = make_noise(window=(2, 7))
        mu = conditional_measure(builder, noise)
        for j in range(16):
            seed_j = int(draw_u64(builder.init_seed_stream, j))
            path = stationary_sampler(builder.update_map, noise, seed_j)
            assert np.array_equal(path.values, mu.values[j])

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

    def test_init_bounds_respected(self):
        builder = make_builder(
            particles=200, update_map=contraction_map(0.5), init_bounds=(0.0, 0.5)
        )
        mu = conditional_measure(builder, make_noise())
        assert mu.column(0).max() < 0.5


class TestHopfFunctionals:
    def test_lhs_all_zero_frequencies(self):
        mu = conditional_measure(make_builder(), make_noise())
        spec = CharSpec(n=0, m=3, lambdas=(0.0, 0.0, 0.0), rho=0.0)
        assert hopf_lhs(mu, spec) == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_lhs_point_mass_formula(self):
        values = np.asarray([[0.1, 0.4, 0.7, 0.2]])
        mu = ParticleMeasure.from_matrix(0, values, None)
        spec = CharSpec(n=0, m=2, lambdas=(1.5, -0.5), rho=2.0)
        expected = cmath.exp(1j * (1.5 * 0.4 - 0.5 * 0.7 + 2.0 * 0.2))
        assert hopf_lhs(mu, spec) == pytest.approx(expected, abs=1e-12)

    def test_lhs_two_particle_mean(self):
        values = np.asarray([[0.1, 0.4], [0.9, 0.3]])
        mu = ParticleMeasure.from_matrix(0, values, None)
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
        mu = ParticleMeasure.from_matrix(0, values, None)
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
        assert np.array_equal(pert.column_block(0, 9), mu.column_block(0, 9))


def row_sum_lhs(mu, spec):
    # the row reduction over a C-ordered block that the probes used before the fold
    block = np.ascontiguousarray(mu.column_block(spec.n + 1, spec.n + spec.m + 1))
    phases = (block * np.asarray(spec.lambdas + (spec.rho,))).sum(axis=1)
    return complex(integrate(mu, np.exp(1j * phases)))


def row_sum_rhs(mu, noise, spec, update_map):
    block = np.ascontiguousarray(mu.column_block(spec.n + 1, spec.n + spec.m))
    phases = (block * np.asarray(spec.lambdas)).sum(axis=1)
    stepped = update_map.apply(block[:, -1], noise.coordinate(spec.n + spec.m + 1))
    return complex(integrate(mu, np.exp(1j * (phases + spec.rho * stepped))))


def bits(*values):
    """Bit patterns of floats or of complex numbers' real and imaginary parts."""
    parts = []
    for v in values:
        parts.extend([v.real, v.imag] if isinstance(v, complex) else [v])
    return np.asarray(parts, dtype=np.float64).view(np.int64).tolist()


def read_only(matrix):
    matrix.setflags(write=False)
    return matrix


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
        weighted=st.booleans(),
    )
    def test_equals_row_sum_bit_for_bit(
        self, particles, length, update_map, seed, extra_specs, layout, perturbed, weighted
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
        weights = None
        if weighted:
            weights = 0.01 + NoiseModel(seed=substream(seed, "w")).window(0, particles).values
            weights = weights / weights.sum()
        mu = ParticleMeasure.from_matrix(mu.offset, values, weights)
        assert mu.values is values
        specs = char_spec_grid(window) + random_char_specs(window, extra_specs, seed)
        for spec in specs:
            lhs, rhs = row_sum_lhs(mu, spec), row_sum_rhs(mu, noise, spec, update_map)
            assert bits(hopf_lhs(mu, spec)) == bits(lhs)
            assert bits(hopf_rhs(mu, noise, spec, update_map)) == bits(rhs)
            report = residual_report(mu, noise, spec, update_map)
            got = [report[k] for k in ("lhs_re", "lhs_im", "rhs_re", "rhs_im", "residual")]
            assert bits(*got) == bits(lhs, rhs, abs(lhs - rhs))

    def test_signed_zero(self):
        # a zero column with a -0.0 frequency and rho = 0.0: the fold starts from
        # +0.0 like numpy's reduction, so no phase comes out as -0.0
        values = np.zeros((3, 4))
        values[:, 2] = [0.25, 0.5, 0.75]
        mu = ParticleMeasure.from_matrix(0, values)
        noise = Window(offset=1, values=(0.1, 0.2, 0.3))
        spec = CharSpec(n=0, m=1, lambdas=(-0.0,), rho=0.0)
        block = mu.column_block(1, 2)
        freqs = spec.lambdas + (spec.rho,)
        old = (np.ascontiguousarray(block) * np.asarray(freqs)).sum(axis=1)
        phases = measure_solution._phases(block, freqs)
        assert phases.view(np.int64).tolist() == old.view(np.int64).tolist() == [0, 0, 0]
        lambda_only = measure_solution._phases(block[:, :1], spec.lambdas)
        assert lambda_only.view(np.int64).tolist() == [0, 0, 0]
        fm = fractional_map()
        assert bits(hopf_lhs(mu, spec)) == bits(row_sum_lhs(mu, spec))
        assert bits(hopf_rhs(mu, noise, spec, fm)) == bits(row_sum_rhs(mu, noise, spec, fm))

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
        assert shift_measure(mu, 3).values is mu.values

    def test_c_and_f_input_give_the_same_measure(self):
        mu = conditional_measure(make_builder(window=(0, 10)), make_noise(window=(0, 10)))
        noise = make_noise(window=(0, 10))
        from_c = ParticleMeasure.from_matrix(0, np.ascontiguousarray(mu.values))
        from_f = ParticleMeasure.from_matrix(0, np.asfortranarray(mu.values.copy()))
        assert from_c.values.flags.f_contiguous and from_f.values.flags.f_contiguous
        assert from_c.values.flags.writeable is False
        shared_c = ParticleMeasure.from_matrix(0, read_only(np.ascontiguousarray(mu.values)))
        assert shared_c.values.flags.c_contiguous
        measures = (mu, from_c, from_f, shared_c)
        for other in measures[1:]:
            assert measures_allclose(mu, other, atol=0.0)
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

    def test_mismatched_initializer_seeds_break_identity(self):
        builder = make_builder()
        noise = make_noise()
        lhs = shift_measure(conditional_measure(builder, noise), -3)
        other = MeasureBuilder(
            update_map=builder.update_map,
            particle_count=builder.particle_count,
            window=builder.translated(3).window,
            init_seed_stream=substream(1, "different-stream"),
        )
        rhs = conditional_measure(other, shift_path(noise, -3))
        assert not measures_allclose(lhs, rhs, atol=1e-12)


class TestMeasureSampler:
    def test_pure_function_of_replica(self):
        sampler = conditional_measure_sampler(make_builder(), noise_seed=substream(2, "s"))
        assert measures_allclose(sampler(4), sampler(4))
        assert not measures_allclose(sampler(4), sampler(5))

    def test_integrate_normalization_over_replicas(self):
        sampler = conditional_measure_sampler(make_builder(), noise_seed=substream(2, "s"))
        for r in range(3):
            mu = sampler(r)
            assert integrate(mu, np.ones(mu.particle_count)) == pytest.approx(1.0, abs=1e-12)
