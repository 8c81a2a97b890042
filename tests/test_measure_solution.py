import cmath

import numpy as np
import pytest

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
    shift_equivariance_check,
)
from stochrec.path_space import Window, shift_path
from stochrec.random_measure import ParticleMeasure, integrate, measures_allclose, shift_measure
from stochrec.recurrence import (
    NoiseModel,
    contraction_map,
    fractional_map,
    stationary_sampler,
)
from stochrec.seeds import draw_u64, substream


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
