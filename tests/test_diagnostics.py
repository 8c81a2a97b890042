import math
import tracemalloc
import weakref
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochrec import diagnostics, measure_solution
from stochrec.diagnostics import (
    DiagnosticsConfig,
    RotationState,
    conditional_char_statistic,
    conditional_law_demo,
    conditional_law_suite,
    default_cylinder_family,
    gaussian_pair_sampler,
    rotation_flow,
    rotation_invariance_demo,
    stationarity_suite,
    tsirelson_samples,
    tsirelson_statistic,
)
from stochrec.errors import CoverageError
from stochrec.measure_solution import (
    MeasureBuilder,
    conditional_measure,
    consistency_check,
    perturb_last_coordinate,
)
from stochrec.path_space import shift_path
from stochrec.random_measure import CylinderSet, distributions_equal, integrate
from stochrec.recurrence import NoiseModel, advance, contraction_map, fractional_map
from stochrec.seeds import draw_normal, draw_u64, draw_unit, substream


def config(**kw):
    base = dict(sample_size=2000, particle_count=1500, alpha=0.01, seed=42, window=(0, 8))
    base.update(kw)
    return DiagnosticsConfig(**base)


seeds = st.integers(0, 2**64 - 1)
maps = st.sampled_from([fractional_map(), contraction_map(0.5)])
open_unit = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)


def reference_gaussian_path(a, seed, lo, hi):
    """The AR(1) driver path drawn one innovation counter at a time."""
    y = np.empty(hi - lo + 1)
    y[0] = float(draw_normal(substream(seed, "pair-y0"), 0))
    innov_stream = substream(seed, "pair-innov")
    scale = math.sqrt(1.0 - a * a)
    for j, k in enumerate(range(lo + 1, hi + 1)):
        y[j + 1] = a * y[j] + scale * float(draw_normal(innov_stream, k))
    return y


def reference_char_statistic(cfg, n, update_map, noise_paths):
    """The frozen-noise statistic stepped one scalar noise draw at a time."""
    lo, _ = cfg.window
    init_root = substream(cfg.seed, "cond-char-init")
    noise_root = substream(cfg.seed, "cond-char-noise")
    moduli = []
    for p in range(noise_paths):
        init_seeds = draw_u64(int(draw_u64(init_root, p)), np.arange(cfg.particle_count))
        noise_seed = int(draw_u64(noise_root, p))
        x = draw_unit(init_seeds, 0)
        for k in range(lo + 1, n + 1):
            x = update_map.apply(x, draw_unit(noise_seed, k))
        moduli.append(abs(complex(np.mean(np.exp((2j * np.pi) * x)))))
    return max(moduli)


def demo_kstests(rho, a, cfg):
    """The ``(draws, loc, scale)`` that :func:`conditional_law_demo` passes to each KS test."""
    calls = []
    kstest = diagnostics._sps.kstest
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diagnostics._sps, "kstest", lambda *args: calls.append(args) or kstest(*args))
        conditional_law_demo(rho, a, cfg)
    return calls


def int_bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64).tolist()


class TestConfigTypes:
    def test_validation(self):
        with pytest.raises(ValueError):
            config(sample_size=10)
        with pytest.raises(ValueError):
            config(alpha=0.0)
        with pytest.raises(ValueError):
            config(window=(5, 5))
        with pytest.raises(ValueError):
            config(particle_count=0)

    @pytest.mark.parametrize(
        "field, value", [("sample_size", 400.0), ("particle_count", 50.5), ("window", (0, 8.0))]
    )
    def test_integer_fields_refuse_floats(self, field, value):
        # a float window used to build and fail later with "slice indices must be integers"
        with pytest.raises(TypeError):
            config(**{field: value})

    def test_integer_fields_stored_as_int(self):
        cfg = config(sample_size=np.int64(400), window=[np.int64(0), np.int64(8)])
        assert type(cfg.sample_size) is int
        assert cfg.window == (0, 8) and all(type(i) is int for i in cfg.window)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda: config(seed=1.5),
            lambda: consistency_check(
                MeasureBuilder(fractional_map(), 10, (0, 8), 3),
                NoiseModel(1).driving((0, 8)),
                NoiseModel(2).driving((0, 8)),
                4.0,
            ),
            lambda: tsirelson_samples(config(), 5.0),
            lambda: conditional_char_statistic(config(), 5.0),
        ],
        ids=["config_seed", "consistency_check", "tsirelson_samples", "conditional_char_statistic"],
    )
    def test_float_position_refused_before_any_build(self, entry, monkeypatch):
        # each used to build (or draw) first, then fail with "slice indices must
        # be integers" or "seeds and counters must be integers"
        def refuse(*args):
            raise AssertionError("a measure was built")

        monkeypatch.setattr(diagnostics, "conditional_measure", refuse)
        monkeypatch.setattr(measure_solution, "conditional_measure", refuse)
        monkeypatch.setattr(diagnostics, "_stationary_gaussian_path", refuse)
        with pytest.raises(TypeError):
            entry()

    def test_rotation_state_finite(self):
        with pytest.raises(ValueError):
            RotationState(x1=float("nan"), x2=0.0)


class TestRotationFlow:
    def test_identity(self):
        s = RotationState(0.4, -1.2)
        out = rotation_flow(s, 0.0)
        assert (out.x1, out.x2) == (0.4, -1.2)

    def test_quarter_turn(self):
        out = rotation_flow(RotationState(1.0, 0.0), math.pi / 2)
        assert out.x1 == pytest.approx(0.0, abs=1e-12)
        assert out.x2 == pytest.approx(1.0, abs=1e-12)

    @given(
        st.floats(-10, 10),
        st.floats(-10, 10),
        st.floats(-10, 10),
        st.floats(-10, 10),
    )
    def test_group_property_and_norm(self, x1, x2, a, b):
        s = RotationState(x1, x2)
        two_step = rotation_flow(rotation_flow(s, a), b)
        one_step = rotation_flow(s, a + b)
        assert two_step.x1 == pytest.approx(one_step.x1, abs=1e-12)
        assert two_step.x2 == pytest.approx(one_step.x2, abs=1e-12)
        assert rotation_flow(s, a).norm == pytest.approx(s.norm, abs=1e-12)


class TestRotationDemo:
    def test_gaussian_mass_invariant(self):
        report = rotation_invariance_demo(config(sample_size=20000), math.pi / 3)
        assert report.passed

    def test_zero_angle_equals_raw_sampling_error(self):
        cfg = config(sample_size=5000)
        report = rotation_invariance_demo(cfg, 0.0)
        again = rotation_invariance_demo(cfg, 0.0)
        assert report.statistic == again.statistic

    def test_shifted_mean_detected(self):
        report = rotation_invariance_demo(config(sample_size=20000), math.pi / 3, mean=(1.0, 0.0))
        assert not report.passed
        assert report.statistic > 0.5


class TestTsirelsonStatistic:
    def test_fractional_vanishes(self):
        report = tsirelson_statistic(config(sample_size=20000), 5)
        assert report.passed
        assert report.threshold == pytest.approx(5.0 / math.sqrt(20000))

    def test_single_term_has_unit_modulus(self):
        # with one sample the statistic is |exp(i theta)| = 1, far above a
        # one-sample threshold of 5; the threshold only bites as N grows
        assert abs(np.exp(2j * np.pi * 0.637)) == pytest.approx(1.0)

    def test_contraction_informational(self):
        report = tsirelson_statistic(
            config(sample_size=2000), 5, update_map=contraction_map(0.5)
        )
        assert 0.0 <= report.statistic <= 1.0

    def test_index_outside_window(self):
        with pytest.raises(CoverageError):
            tsirelson_statistic(config(), 99)

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, update_map=maps, lo=st.integers(-4, 4), data=st.data())
    def test_samples_match_per_replica_sampler(self, seed, update_map, lo, data):
        # the batched endpoint equals one plain trajectory per replica, bit for bit
        hi = lo + 8
        n = data.draw(st.integers(lo + 1, hi))
        cfg = config(sample_size=100, seed=seed, window=(lo, hi))
        samples = tsirelson_samples(cfg, n, update_map=update_map)
        init_stream = substream(seed, "tsirelson-init")
        noise_stream = substream(seed, "tsirelson-noise")
        for r in range(cfg.sample_size):
            noise = NoiseModel(seed=int(draw_u64(noise_stream, r))).window(lo + 1, n - lo)
            x0 = float(draw_unit(int(draw_u64(init_stream, r)), 0))
            assert samples[r] == advance(update_map.apply, x0, noise.values.tolist())


class TestConditionalCharStatistic:
    def test_fractional_vanishes_conditionally(self):
        report = conditional_char_statistic(config(particle_count=4000), 5)
        assert report.passed
        assert report.threshold == pytest.approx(5.0 / math.sqrt(4000))

    def test_contraction_collapses_to_unit_modulus(self):
        report = conditional_char_statistic(
            config(particle_count=1000, window=(0, 45)),
            40,
            update_map=contraction_map(0.5),
        )
        assert report.statistic >= 0.9
        assert not report.passed

    def test_single_particle_statistic_is_one(self):
        report = conditional_char_statistic(config(particle_count=1), 5)
        assert report.statistic == pytest.approx(1.0)

    def test_matches_conditional_measure_integral(self):
        # same statistic through the measure route, for one frozen path
        cfg = config(particle_count=700)
        seed = cfg.seed
        init_root = substream(seed, "cond-char-init")
        noise_root = substream(seed, "cond-char-noise")
        lo, hi = cfg.window
        moduli = []
        for p in range(10):
            builder = MeasureBuilder(
                update_map=fractional_map(),
                particle_count=cfg.particle_count,
                window=cfg.window,
                init_seed_stream=int(draw_u64(init_root, p)),
            )
            noise = NoiseModel(seed=int(draw_u64(noise_root, p))).window(lo + 1, hi - lo)
            mu = conditional_measure(builder, noise)
            value = integrate(mu, np.exp(2j * np.pi * mu.column(5)))
            moduli.append(abs(value))
        report = conditional_char_statistic(cfg, 5)
        assert report.statistic == pytest.approx(max(moduli), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=seeds,
        update_map=maps,
        lo=st.integers(-4, 4),
        length=st.integers(1, 8),
        particles=st.integers(1, 64),
        data=st.data(),
    )
    def test_path_ensembles_match_conditional_measure(
        self, seed, update_map, lo, length, particles, data
    ):
        # the measure route gives the statistic of the frozen-noise chain
        # route, bit for bit, at every index of the window, its left edge
        # included
        hi = lo + length
        n = data.draw(st.integers(lo, hi))
        cfg = config(particle_count=particles, seed=seed, window=(lo, hi))
        report = conditional_char_statistic(cfg, n, update_map=update_map, noise_paths=3)
        want = reference_char_statistic(cfg, n, update_map, noise_paths=3)
        assert int_bits([report.statistic]) == int_bits([want])

    @pytest.mark.parametrize("n", [-2, -1, 3, 4])
    def test_window_edges_and_ensemble_stops_at_n(self, n, monkeypatch):
        # each ensemble runs from the left edge to n only (one step past it at n == lo),
        # and still gives the chain route's statistic bit for bit
        windows = []

        def recorded(builder, noise):
            windows.append((builder.window, noise.offset, len(noise)))
            return conditional_measure(builder, noise)

        monkeypatch.setattr(diagnostics, "conditional_measure", recorded)
        cfg = config(particle_count=40, seed=9, window=(-2, 4))
        report = conditional_char_statistic(cfg, n, noise_paths=3)
        want = reference_char_statistic(cfg, n, fractional_map(), noise_paths=3)
        assert int_bits([report.statistic]) == int_bits([want])
        hi = max(n, -1)
        assert windows == [((-2, hi), -1, hi + 2)] * 3


class TestStationaritySuite:
    def make_builder(self, **kw):
        base = dict(
            update_map=fractional_map(),
            particle_count=150,
            window=(0, 10),
            init_seed_stream=substream(3, "stat-init"),
        )
        base.update(kw)
        return MeasureBuilder(**base)

    def test_fractional_construction_is_stationary(self):
        cfg = config(sample_size=400, window=(0, 10))
        deltas = default_cylinder_family((0, 10), max_shift=2)
        reports = stationarity_suite(self.make_builder(), [1, 2], deltas, cfg)
        assert [r.passed for r in reports] == [True, True]
        assert [r.test_name for r in reports] == [
            "stationarity:shift=1",
            "stationarity:shift=2",
        ]

    @pytest.fixture
    def no_build(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a measure was built")

        monkeypatch.setattr(diagnostics, "conditional_measure_sampler", refuse)

    @pytest.mark.parametrize("shifts", [[1.5], [2.0]])
    def test_non_integer_shift_refused(self, shifts, no_build):
        # int() would run a shift of 1.5 as 1; the refusal comes before any build
        cfg = config(sample_size=400)
        deltas = default_cylinder_family((0, 10), max_shift=2)
        with pytest.raises(TypeError):
            stationarity_suite(self.make_builder(), shifts, deltas, cfg)

    @pytest.mark.parametrize("shifts", [[0], [1, 2, 0]])
    def test_zero_shift_rejected(self, shifts, no_build):
        # shifts 1 and 2 used to run their full comparisons before 0 was refused
        cfg = config(sample_size=400)
        deltas = default_cylinder_family((0, 10), max_shift=2)
        with pytest.raises(ValueError, match="shift 0 is vacuous"):
            stationarity_suite(self.make_builder(), shifts, deltas, cfg)

    # index 7 stays inside window (0, 10) under shifts 1 and 2, not under 5,
    # and was refused only after shifts 1 and 2 had run
    @pytest.mark.parametrize("start, shifts", [(10, [2]), (7, [1, 2, 5])])
    def test_delta_outside_shifted_window(self, start, shifts, no_build):
        cfg = config(sample_size=400)
        deltas = [CylinderSet(start=start, intervals=((0.0, 1.0),))]
        with pytest.raises(CoverageError, match=f"after shifting by {shifts[-1]}"):
            stationarity_suite(self.make_builder(), shifts, deltas, cfg)

    def test_transient_builder_detected(self):
        # contracting map started from a narrow initializer band has not
        # reached its steady regime inside the window
        builder = self.make_builder(
            update_map=contraction_map(0.5), window=(0, 8), init_bounds=(0.0, 0.5)
        )
        cfg = config(sample_size=400, window=(0, 8))
        deltas = default_cylinder_family((0, 8), max_shift=1)
        reports = stationarity_suite(builder, [1], deltas, cfg)
        assert any(not r.passed for r in reports)


class TestDefaultCylinderFamily:
    def test_fits_window_and_shifts(self):
        window = (0, 12)
        for max_shift in (0, 1, 5):
            for d in default_cylinder_family(window, max_shift):
                assert d.start >= 1
                assert d.last_index <= 12 - max_shift

    def test_too_small_window(self):
        with pytest.raises(CoverageError):
            default_cylinder_family((0, 2), max_shift=5)
        with pytest.raises(CoverageError):
            default_cylinder_family((0, 3), max_shift=0, min_shift=-3)

    # the order feeds the projection coefficients, so it is pinned as well as the rectangles
    @pytest.mark.parametrize(
        "window, max_shift, min_shift, expected",
        [
            ((0, 3), 2, 0, [(1, ((0.0, 0.5),)), (1, ((0.25, 0.75),))]),
            (
                (0, 4), 2, 0,
                [(1, ((0.0, 0.5),)), (1, ((0.25, 0.75),)), (2, ((0.5, 1.0),)),
                 (1, ((0.0, 0.5), (0.0, 0.5)))],
            ),
            (
                (0, 12), 5, 0,
                [(1, ((0.0, 0.5),)), (1, ((0.25, 0.75),)), (2, ((0.5, 1.0),)),
                 (1, ((0.0, 0.5), (0.0, 0.5))), (3, ((0.0, 1.0 / 3.0),)),
                 (1, ((0.0, 0.75), (0.25, 1.0), (0.0, 0.5)))],
            ),
            (
                (-1, 5), 1, -2,
                [(2, ((0.0, 0.5),)), (2, ((0.25, 0.75),)), (3, ((0.5, 1.0),)),
                 (2, ((0.0, 0.5), (0.0, 0.5))), (4, ((0.0, 1.0 / 3.0),)),
                 (2, ((0.0, 0.75), (0.25, 1.0), (0.0, 0.5)))],
            ),
            (
                (0, 5), 1, -2,
                [(3, ((0.0, 0.5),)), (3, ((0.25, 0.75),)), (4, ((0.5, 1.0),)),
                 (3, ((0.0, 0.5), (0.0, 0.5)))],
            ),
        ],
    )
    def test_family_pinned(self, window, max_shift, min_shift, expected):
        family = default_cylinder_family(window, max_shift, min_shift)
        assert [(d.start, d.intervals) for d in family] == expected

    def test_negative_shift_left_margin(self):
        # a shift by -2 moves the family right by 2, past the pinned
        # initializer coordinate of the shifted measure
        moved = default_cylinder_family((0, 12), max_shift=0, min_shift=-2)
        base = default_cylinder_family((0, 12), max_shift=2)
        assert [(d.start - 2, d.intervals) for d in moved] == [
            (d.start, d.intervals) for d in base
        ]
        with pytest.raises(ValueError):
            default_cylinder_family((0, 12), max_shift=0, min_shift=1)

    def test_negative_shift_suite_runs(self):
        builder = MeasureBuilder(
            update_map=fractional_map(),
            particle_count=100,
            window=(0, 10),
            init_seed_stream=substream(3, "stat-init"),
        )
        deltas = default_cylinder_family((0, 10), max_shift=1, min_shift=-2)
        reports = stationarity_suite(builder, [-2, 1], deltas, config(sample_size=300))
        assert [r.test_name for r in reports] == [
            "stationarity:shift=-2",
            "stationarity:shift=1",
        ]
        assert all(r.passed for r in reports)


class TestConditionalLawDemo:
    def test_matches_gaussian_oracle(self):
        report = conditional_law_demo(0.8, 0.5, config(particle_count=4000, window=(0, 9)))
        assert report.passed

    def test_rho_zero_independent_of_driver(self):
        cfg = config(particle_count=500, window=(0, 9))
        slow = demo_kstests(0.0, 0.2, cfg)
        fast = demo_kstests(0.0, 0.9, cfg)
        assert len(slow) == len(fast) == 4
        for (slow_draws, *_), (fast_draws, *_) in zip(slow, fast):
            assert np.array_equal(slow_draws, fast_draws)
        assert conditional_law_demo(0.0, 0.5, cfg).passed

    @pytest.mark.parametrize("rho,a", [(1.0, 0.5), (-1.2, 0.5), (0.5, 1.0)])
    def test_parameter_domain(self, rho, a):
        with pytest.raises(ValueError):
            conditional_law_demo(rho, a, config())

    @pytest.mark.parametrize(
        "rho, a",
        [(1.0, 0.5), (-1.2, 0.5), (1.5, 0.5), (math.nan, 0.5), (0.5, 1.0), (0.5, -1.0), (0.5, 1.5)],
    )
    @pytest.mark.parametrize(
        "entry",
        [
            lambda rho, a, cfg: conditional_law_demo(rho, a, cfg),
            lambda rho, a, cfg: conditional_law_suite(rho, a, cfg),
            lambda rho, a, cfg: gaussian_pair_sampler(rho, a, cfg),
        ],
        ids=["conditional_law_demo", "conditional_law_suite", "gaussian_pair_sampler"],
    )
    def test_one_refusal_for_every_entry_point(self, entry, rho, a, monkeypatch):
        # at (1.5, 0.5) and (0.5, 1.5) the sampling entry points used to die
        # with "math domain error", and a = 1.0 was accepted; each refuses at
        # the call, before anything is drawn (the pair sampler returns no stream)
        def no_draw(*args):
            raise AssertionError("a value was drawn")

        for name in ("draw_normal", "draw_u64"):
            monkeypatch.setattr(diagnostics, name, no_draw)
        name, value = ("rho", rho) if not abs(rho) < 1.0 else ("a", a)
        with pytest.raises(ValueError) as info:
            entry(rho, a, config())
        assert str(info.value) == f"{name} must satisfy |{name}| < 1, got {value}"

    def test_conditional_mean_tracks_driver(self):
        rho, a = 0.8, 0.5
        cfg = config(particle_count=4000, window=(0, 9))
        sigma = math.sqrt(1.0 - rho * rho)
        y = reference_gaussian_path(a, cfg.seed, 0, 9)
        calls = demo_kstests(rho, a, cfg)
        # the four indices spread over the window [0, 9]
        assert [loc for _, loc, _ in calls] == [rho * y[n] for n in (1, 4, 6, 9)]
        for draws, loc, scale in calls:
            assert scale == sigma and draws.shape == (cfg.particle_count,)
            bound = 5.0 * sigma / math.sqrt(cfg.particle_count)
            assert abs(draws.mean() - loc) <= bound


class TestGaussianPairSampler:
    def test_pair_measure_is_stationary(self):
        cfg = config(sample_size=300, particle_count=120, window=(0, 9))
        shifted = (shift_path(mu, 1) for mu in gaussian_pair_sampler(0.8, 0.5, cfg))
        deltas = [
            CylinderSet(start=1, intervals=((-0.5, 0.5),)),
            CylinderSet(start=2, intervals=((0.0, 1.5),)),
            CylinderSet(start=1, intervals=((-1.0, 0.0), (-1.0, 1.0))),
        ]
        report = distributions_equal(
            zip(gaussian_pair_sampler(0.8, 0.5, cfg), shifted), deltas,
            replicas=cfg.sample_size, alpha=cfg.alpha, seed=cfg.seed, name="pair",
        )
        assert report.passed

    @settings(max_examples=50, deadline=None)
    @given(
        rho=open_unit, a=open_unit, seed=seeds, lo=st.integers(-20, 20),
        steps=st.integers(1, 29), replica=st.integers(0, 2000),
    )
    def test_replica_matches_per_counter_draws(self, rho, a, seed, lo, steps, replica):
        cfg = config(sample_size=100, particle_count=3, seed=seed, window=(lo, lo + steps))
        got = next(islice(gaussian_pair_sampler(rho, a, cfg), replica, None)).values
        y = reference_gaussian_path(
            a, int(draw_u64(substream(seed, "pair-path"), replica)), lo, lo + steps
        )
        eps_seed = int(draw_u64(substream(seed, "pair-ensemble"), replica))
        eps = draw_normal(eps_seed, np.arange(3 * (steps + 1))).reshape(3, steps + 1)
        assert int_bits(got) == int_bits(rho * y[None, :] + math.sqrt(1.0 - rho * rho) * eps)

    @settings(max_examples=20, deadline=None)
    @given(
        rho=open_unit, a=open_unit, seed=seeds, lo=st.integers(-20, 20),
        steps=st.integers(1, 11), per_slice=st.integers(1, 4),
    )
    def test_replicas_across_slice_boundaries(self, rho, a, seed, lo, steps, per_slice):
        # particle counts that fit 1-4 replicas in a slice; every item of the
        # first three slices, and the same items from a second stream
        length = steps + 1
        particles = diagnostics._SLICE_VALUES // (per_slice * length)
        assert diagnostics._SLICE_VALUES // (particles * length) == per_slice
        cfg = config(sample_size=100, particle_count=particles, seed=seed, window=(lo, lo + steps))
        count = 3 * per_slice
        first = list(islice(gaussian_pair_sampler(rho, a, cfg), count))
        again = list(islice(gaussian_pair_sampler(rho, a, cfg), count))
        sigma = math.sqrt(1.0 - rho * rho)
        for replica, (got, repeat) in enumerate(zip(first, again)):
            assert got.offset == lo and not got.values.flags.writeable
            assert got == repeat
            y = reference_gaussian_path(
                a, int(draw_u64(substream(seed, "pair-path"), replica)), lo, lo + steps
            )
            eps_seed = int(draw_u64(substream(seed, "pair-ensemble"), replica))
            eps = draw_normal(eps_seed, np.arange(particles * length)).reshape(particles, length)
            want = rho * y[None, :] + sigma * eps
            assert np.array_equal(got.values.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("per_slice", [1, 2, 3, 4])
    def test_replicas_are_column_major_views_of_the_held_slice(self, per_slice):
        # the slice is drawn as (width, L, P), so replica r is a (P, L) view
        # with contiguous columns; neighbours in one slice share its block
        length = 10
        particles = diagnostics._SLICE_VALUES // (per_slice * length)
        stream = gaussian_pair_sampler(0.8, 0.5, config(particle_count=particles, window=(0, 9)))
        replicas = [mu.values for mu in islice(stream, 2 * per_slice)]
        for values in replicas:
            assert values.shape == (particles, length)
            assert values.flags.f_contiguous and not values.flags.writeable
            block = values.base
            assert block.shape == (per_slice, length, particles)
            assert block.base is None and not block.flags.writeable
        for r in range(2 * per_slice - 1):
            same_slice = (r + 1) % per_slice != 0
            assert (replicas[r].base is replicas[r + 1].base) == same_slice

    def test_a_read_slice_is_released_before_the_next_draw(self, monkeypatch):
        # the stream keeps no slice whose items have all been read and
        # dropped, so it holds one slice while it draws the next
        particles = diagnostics._SLICE_VALUES // (2 * 10)
        stream = gaussian_pair_sampler(0.8, 0.5, config(particle_count=particles, window=(0, 9)))
        first_slice = weakref.ref(next(stream).values.base)
        next(stream)
        live_at_draw = []
        draw_normal = diagnostics.draw_normal

        def watched(*args):
            live_at_draw.append(first_slice() is not None)
            return draw_normal(*args)

        monkeypatch.setattr(diagnostics, "draw_normal", watched)
        next(stream)  # the first item of the second slice
        assert live_at_draw and not any(live_at_draw)
        assert first_slice() is None

    def test_memory_independent_of_replica_count(self):
        # one slice is live at a time, so ten times the replicas (and a whole
        # (R, P, L) block would be 48 MB at 3,000) take no more memory
        def peak(replicas):
            cfg = config(sample_size=replicas, particle_count=200, window=(0, 9))
            stream = gaussian_pair_sampler(0.8, 0.5, cfg)
            tracemalloc.start()
            try:
                for _ in islice(stream, replicas):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(3000) < 1.2 * peak(300)

    def test_no_finished_slice_is_alive_at_a_later_draw_of_the_suite(self, monkeypatch):
        # the suite reads its pair stream one item at a time, so every slice
        # whose items it has read is freed before the next slice is drawn;
        # map holds no item, so the recorder keeps none alive itself
        slices = []
        live_at_draw = []
        sampler, draw_normal = diagnostics.gaussian_pair_sampler, diagnostics.draw_normal

        def record(mu):
            if not slices or slices[-1]() is not mu.values.base:
                slices.append(weakref.ref(mu.values.base))
            return mu

        def watched(*args):
            live_at_draw.append(sum(ref() is not None for ref in slices))
            return draw_normal(*args)

        def recorded(*args):
            return map(record, sampler(*args))

        monkeypatch.setattr(diagnostics, "gaussian_pair_sampler", recorded)
        monkeypatch.setattr(diagnostics, "draw_normal", watched)
        cfg = config(sample_size=300, particle_count=200, seed=5, window=(0, 9))
        conditional_law_suite(0.8, 0.5, cfg)
        # 32 replicas per slice, so 300 replicas are 10 slices
        assert len(slices) == 10
        assert len(live_at_draw) > 10 and not any(live_at_draw)


def test_every_built_measure_is_column_major():
    # ParticleMeasure documents column-major storage; each construction keeps it
    mu = conditional_measure(
        MeasureBuilder(fractional_map(), 50, (0, 8), 3), NoiseModel(1).driving((0, 8))
    )
    pair = islice(gaussian_pair_sampler(0.8, 0.5, config(particle_count=50)), 2)
    for measure in (mu, perturb_last_coordinate(mu, 4), *pair):
        assert measure.values.shape == (50, 9) and measure.values.flags.f_contiguous


class TestStationaryGaussianPath:
    @settings(max_examples=200, deadline=None)
    @given(a=open_unit, seed=seeds, lo=st.integers(-20, 20), length=st.integers(1, 30))
    def test_matches_per_counter_draws(self, a, seed, lo, length):
        hi = lo + length - 1
        got = diagnostics._stationary_gaussian_path(a, seed, lo, hi)
        assert int_bits(got) == int_bits(reference_gaussian_path(a, seed, lo, hi))

    @pytest.mark.parametrize("lo", [2**63 - 4, 2**63 - 1, 2**63, -(2**63) - 3, 2**64 - 2])
    def test_counters_wrap_across_the_64_bit_edges(self, lo):
        # counters are absolute indices modulo 2**64, never float64
        got = diagnostics._stationary_gaussian_path(0.5, 11, lo, lo + 9)
        assert int_bits(got) == int_bits(reference_gaussian_path(0.5, 11, lo, lo + 9))
