"""Executable evidence for the measure-valued-solution machinery.

* the circle-map statistic: the mean of ``exp(2*pi*i*x_n)`` vanishes for the
  fractional map, both unconditionally and conditionally on the noise, while
  a contracting map drives the conditional version to modulus one,
* stationarity testing of conditional-measure streams under translation,
* the exact rotation flow in the plane and the invariance of the standard
  Gaussian mass under it,
* a jointly stationary Gaussian pair whose conditional law is known in
  closed form, as an independent oracle for conditional particle measures.

Thresholds follow a five-sigma-style ``5/sqrt(N)`` rule with fixed recorded
seeds, so suite runs are deterministic rather than significance-level flaky;
the KS-based checks use the asymptotic critical value at the configured
level.
"""

import itertools
import math
import operator
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from . import _ks as _sps  # perfbench/spans.py traces KS calls through this name
from .errors import CoverageError
from .measure_solution import MeasureBuilder, conditional_measure, conditional_measure_sampler
from .path_space import shift_path
from .random_measure import (
    CylinderSet,
    ParticleMeasure,
    StatReport,
    distributions_equal,
    ks_one_sample_threshold,
)
from .recurrence import NoiseModel, UpdateMap, advance, contraction_map, fractional_map
from .seeds import counter_range, draw_normal, draw_u64, draw_unit, substream

__all__ = [
    "RotationState",
    "DiagnosticsConfig",
    "tsirelson_statistic",
    "tsirelson_report",
    "conditional_char_statistic",
    "stationarity_suite",
    "default_cylinder_family",
    "tsirelson_samples",
    "rotation_flow",
    "rotation_invariance_demo",
    "conditional_law_demo",
    "conditional_law_suite",
    "gaussian_pair_sampler",
]

FIVE_SIGMA = 5.0


def _five_sigma(name: str, statistic: float, n: int, seed: int) -> StatReport:
    """A report of ``statistic`` against the ``5/sqrt(n)`` threshold."""
    return StatReport(name, statistic, FIVE_SIGMA / math.sqrt(n), n, seed)


def _circle_modulus(x: np.ndarray) -> float:
    """Modulus of the empirical mean of ``exp(2*pi*i*x)``."""
    return abs(complex(np.mean(np.exp((2j * np.pi) * x))))


def _shifts(shifts: Sequence[int]) -> list[int]:
    """The shifts as ints; refuses non-integers, an empty list and a zero shift."""
    shifts = [operator.index(t) for t in shifts]
    if not shifts:
        raise ValueError("shifts must be nonempty")
    if 0 in shifts:
        raise ValueError("shift 0 is vacuous; use nonzero shifts")
    return shifts


def _fit(window: tuple[int, int], deltas: Sequence[CylinderSet], shifts: Sequence[int]) -> None:
    """Refuses a rectangle that leaves ``window`` or its translate by any of ``shifts``."""
    lo, hi = window
    for t in shifts:
        for d in deltas:
            if d.start < max(lo, lo - t) or d.last_index > min(hi, hi - t):
                raise CoverageError(
                    f"rectangle at [{d.start}, {d.last_index}] leaves the window "
                    f"after shifting by {t}, got window [{lo}, {hi}]"
                )


def _index(window: tuple[int, int], n: int) -> int:
    """``n`` as an int; refuses an index outside ``window``."""
    n = operator.index(n)
    if not window[0] <= n <= window[1]:
        raise CoverageError(f"index {n} outside window {window}")
    return n


@dataclass(frozen=True)
class RotationState:
    """A point in the plane."""

    x1: float
    x2: float

    def __post_init__(self):
        if not (math.isfinite(self.x1) and math.isfinite(self.x2)):
            raise ValueError("coordinates must be finite")

    @property
    def norm(self) -> float:
        return math.hypot(self.x1, self.x2)


@dataclass(frozen=True)
class DiagnosticsConfig:
    """Shared knobs for the diagnostic statistics."""

    sample_size: int
    particle_count: int
    alpha: float
    seed: int
    window: tuple[int, int]

    def __post_init__(self):
        lo, hi = map(operator.index, self.window)
        object.__setattr__(self, "window", (lo, hi))
        for name in ("sample_size", "particle_count", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.sample_size < 100:
            raise ValueError("sample_size must be at least 100")
        if self.particle_count < 1:
            raise ValueError("particle_count must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not lo < hi:
            raise ValueError(f"window must satisfy lo < hi, got {self.window}")


def tsirelson_samples(
    config: DiagnosticsConfig,
    n: int,
    *,
    update_map: UpdateMap | None = None,
) -> np.ndarray:
    """Coordinate ``n`` of ``sample_size`` independent runs, one per replica.

    Run ``r`` starts at the window's left edge from the first uniform of its
    own initializer seed and steps through noise drawn from its own noise
    seed, so no two runs share noise (unlike the frozen-noise ensembles of
    :func:`conditional_char_statistic`).  All runs advance together, one
    noise index at a time.  This is the raw data behind
    :func:`tsirelson_statistic`; it can be dumped for external plotting.
    """
    update_map = update_map if update_map is not None else fractional_map()
    n = _index(config.window, n)
    replicas = np.arange(config.sample_size)
    init_seeds = draw_u64(substream(config.seed, "tsirelson-init"), replicas)
    noise_seeds = draw_u64(substream(config.seed, "tsirelson-noise"), replicas)
    noise = (draw_unit(noise_seeds, k) for k in range(config.window[0] + 1, n + 1))
    return advance(update_map.apply, draw_unit(init_seeds, 0), noise)


def tsirelson_statistic(
    config: DiagnosticsConfig,
    n: int,
    *,
    update_map: UpdateMap | None = None,
) -> StatReport:
    """Modulus of the empirical mean of ``exp(2*pi*i*x_n)`` over fresh runs.

    Each of ``sample_size`` runs draws its own initializer and noise.  For
    the fractional map the population value is exactly zero (each factor
    ``exp(2*pi*i*xi)`` has mean zero on the circle), so the statistic stays
    below ``5/sqrt(sample_size)``; for other maps the report is
    informational.
    """
    return tsirelson_report(config, tsirelson_samples(config, n, update_map=update_map))


def tsirelson_report(config: DiagnosticsConfig, samples: np.ndarray) -> StatReport:
    """The :func:`tsirelson_statistic` report of samples drawn by :func:`tsirelson_samples`."""
    return _five_sigma("tsirelson", _circle_modulus(samples), config.sample_size, config.seed)


def conditional_char_statistic(
    config: DiagnosticsConfig,
    n: int,
    *,
    update_map: UpdateMap | None = None,
    noise_paths: int = 10,
) -> StatReport:
    """Largest conditional characteristic value over several frozen noises.

    For each frozen noise path, builds the conditional particle measure of
    ``particle_count`` initializers from the window's left edge up to ``n``
    with :func:`~stochrec.measure_solution.conditional_measure`, averages
    ``exp(2*pi*i*x_n)`` over its column ``n`` (the measure's integral of that
    function) and takes the maximum modulus over paths.  For the fractional
    map the conditional mean is exactly zero in population; for a contracting
    map the ensemble collapses and the modulus approaches one, the
    strong-solution contrast.
    """
    update_map = update_map if update_map is not None else fractional_map()
    n = _index(config.window, n)
    if noise_paths < 1:
        raise ValueError("noise_paths must be positive")
    init_root = substream(config.seed, "cond-char-init")
    noise_root = substream(config.seed, "cond-char-noise")

    # column n reads no noise past n; a builder refuses lo == hi, and n == lo is valid
    window = (config.window[0], max(n, config.window[0] + 1))

    def path_modulus(p: int) -> float:
        builder = MeasureBuilder(
            update_map, config.particle_count, window, int(draw_u64(init_root, p))
        )
        noise = NoiseModel(seed=int(draw_u64(noise_root, p))).driving(window)
        return _circle_modulus(conditional_measure(builder, noise).column(n))

    statistic = max(path_modulus(p) for p in range(noise_paths))
    return _five_sigma("conditional_char", statistic, config.particle_count, config.seed)


# (start - first, intervals) of each rectangle of the default family, in report order
_FAMILY = (
    (0, ((0.0, 0.5),)),
    (0, ((0.25, 0.75),)),
    (1, ((0.5, 1.0),)),
    (0, ((0.0, 0.5), (0.0, 0.5))),
    (2, ((0.0, 1.0 / 3.0),)),
    (0, ((0.0, 0.75), (0.25, 1.0), (0.0, 0.5))),
)


def default_cylinder_family(
    window: tuple[int, int], max_shift: int, min_shift: int = 0
) -> list[CylinderSet]:
    """A fixed rectangle family valid for the window and all its shifts.

    Rectangles start one step after the window's left edge (the left-edge
    coordinate is pinned to the initializer ensemble and is not part of the
    translation-invariant regime), moved right by ``-min_shift`` so that a
    shift by a negative ``min_shift`` never reads that coordinate, and end
    early enough to survive a shift by ``max_shift``.
    """
    lo, hi = window
    if max_shift < 0:
        raise ValueError("max_shift must be nonnegative")
    if min_shift > 0:
        raise ValueError("min_shift must be nonpositive")
    first = lo + 1 - min_shift
    last = hi - max_shift
    if first > last:
        raise CoverageError(
            f"window {window} too short for shifts from {min_shift} to {max_shift}"
        )
    family = (CylinderSet(start=first + k, intervals=iv) for k, iv in _FAMILY)
    return [d for d in family if d.last_index <= last]


def _shift_report(pairs, t, deltas, config, seed, prefix) -> StatReport:
    """Report ``{prefix}:shift={t}``: each pair's side a against its side b shifted by ``t``."""
    # starmap holds no pair between calls, so distributions_equal frees each before the next
    shifted = itertools.starmap(lambda mu_a, mu_b: (mu_a, shift_path(mu_b, t)), pairs)
    return distributions_equal(
        shifted, deltas, replicas=config.sample_size,
        alpha=config.alpha, seed=seed, name=f"{prefix}:shift={t}",
    )


def stationarity_suite(
    builder: MeasureBuilder,
    shifts: Sequence[int],
    deltas: Sequence[CylinderSet],
    config: DiagnosticsConfig,
) -> list[StatReport]:
    """Distributional equality of the measure stream and its translates.

    For each nonzero shift ``t``, draws ``sample_size`` fresh-noise
    realizations of the conditional measure and, independently, of its
    ``t``-translate, and compares the rectangle-probability vectors with
    :func:`distributions_equal`.  One report per shift.  Every shift and
    every shifted rectangle is checked before any measure is built.
    """
    shifts = _shifts(shifts)
    _fit(builder.window, deltas, shifts)
    reports = []
    for t in shifts:
        seeds = (substream(config.seed, f"stationarity-{side}:{t}") for side in "ab")
        streams = [conditional_measure_sampler(builder, s) for s in seeds]
        proj = substream(config.seed, f"stationarity-proj:{t}")
        reports.append(_shift_report(zip(*streams), t, deltas, config, proj, "stationarity"))
    return reports


def _rotate(x1, x2, t: float):
    """``(x1, x2)`` rotated by angle ``t`` around the origin; floats or arrays."""
    c, s = math.cos(t), math.sin(t)
    return x1 * c - x2 * s, x1 * s + x2 * c


def rotation_flow(state: RotationState, t: float) -> RotationState:
    """Rotate the point by angle ``t`` around the origin (the exact flow)."""
    return RotationState(*_rotate(state.x1, state.x2, t))


def rotation_invariance_demo(
    config: DiagnosticsConfig, t: float, *, mean: tuple[float, float] = (0.0, 0.0)
) -> StatReport:
    """Pushforward of a Gaussian cloud under rotation keeps its moments.

    Draws ``sample_size`` points from a standard bivariate normal centered at
    ``mean`` (the default zero center is the invariant case), rotates them by
    ``t``, and reports the worst deviation of the sample mean from zero and
    of the sample covariance from the identity.
    """
    if not math.isfinite(t):
        raise ValueError(f"rotation angle must be finite, got {t}")
    n = config.sample_size
    cloud = draw_normal(substream(config.seed, "rotation-cloud"), np.arange(2 * n))
    cloud = cloud.reshape(n, 2) + np.asarray(mean)
    rotated = np.column_stack(_rotate(cloud[:, 0], cloud[:, 1], t))
    centered_stat = float(np.max(np.abs(rotated.mean(axis=0))))
    cov = np.cov(rotated, rowvar=False)
    cov_stat = float(np.max(np.abs(cov - np.eye(2))))
    return _five_sigma("rotation_invariance", max(centered_stat, cov_stat), n, config.seed)


def _pair_sigma(rho: float, a: float) -> float:
    """The pair's conditional standard deviation ``sqrt(1 - rho^2)``; needs ``|rho|, |a| < 1``."""
    if not abs(rho) < 1.0:
        raise ValueError(f"rho must satisfy |rho| < 1, got {rho}")
    if not abs(a) < 1.0:
        raise ValueError(f"a must satisfy |a| < 1, got {a}")
    return math.sqrt(1.0 - rho * rho)


def _stationary_gaussian_path(a: float, seeds, lo: int, hi: int) -> np.ndarray:
    """AR(1) path with unit stationary variance from stationarity; one row per seed of an array."""
    y = np.empty(np.shape(seeds) + (hi - lo + 1,))
    y[..., 0] = y0 = draw_normal(substream(seeds, "pair-y0"), 0)
    # one array draw over counters lo+1..hi equals the per-counter draws
    innov_seeds = np.expand_dims(substream(seeds, "pair-innov"), -1)
    innovations = draw_normal(innov_seeds, counter_range(lo + 1, hi - lo))
    innovations *= math.sqrt(1.0 - a * a)
    advance(contraction_map(a).apply, y0, innovations.T, out=y[..., 1:])
    return y


def conditional_law_demo(rho: float, a: float, config: DiagnosticsConfig) -> StatReport:
    """Empirical conditional law versus its closed-form Gaussian oracle.

    For a jointly stationary Gaussian pair, the law of the dependent value
    given the driver is normal with mean ``rho * y_n`` and variance
    ``1 - rho^2``; this draws conditional samples against one frozen driver
    path and reports the largest KS distance to that law at up to four indices
    spread over the window, against the asymptotic critical value at ``config.alpha``.
    """
    sigma = _pair_sigma(rho, a)
    lo, hi = config.window
    span = hi - lo
    y = _stationary_gaussian_path(a, config.seed, lo, hi)
    particles = np.arange(config.particle_count)
    statistic = 0.0
    for n in sorted({lo + 1, lo + span // 3 + 1, lo + (2 * span) // 3, hi}):
        eps = draw_normal(substream(config.seed, f"pair-eps:{n}"), particles)
        mean = rho * y[n - lo]
        statistic = max(statistic, _sps.kstest(mean + sigma * eps, mean, sigma))
    return StatReport(
        test_name="conditional_law",
        statistic=statistic,
        threshold=ks_one_sample_threshold(config.alpha, config.particle_count),
        sample_size=config.particle_count,
        seed=config.seed,
    )


_SLICE_VALUES = 2**16  # values per slice of the Gaussian-pair sampler's replicas (512 kB)


def gaussian_pair_sampler(
    rho: float, a: float, config: DiagnosticsConfig
) -> Iterator[ParticleMeasure]:
    """Stream of conditional particle measures for the Gaussian pair.

    Item ``r`` freezes a fresh driver path and is the ensemble of
    ``particle_count`` conditional trajectories of the dependent series on
    the window.  The pair is jointly stationary, so this stream and its
    translates coincide in distribution.  ``rho`` and ``a`` are checked at
    the call, before anything is drawn.

    Items are drawn in aligned slices of about ``2**16`` values, one slice
    at a time as the stream reaches it.  Item ``r`` is a read-only
    column-major view into its slice, a pure function of ``r``.
    """
    sigma = _pair_sigma(rho, a)
    lo, hi = config.window
    length = hi - lo + 1
    width = max(1, _SLICE_VALUES // (config.particle_count * length))
    path_root = substream(config.seed, "pair-path")
    eps_root = substream(config.seed, "pair-ensemble")
    # counters[l, p] = p * length + l, so that each replica's (L, P) block is C-ordered
    counters = np.arange(config.particle_count * length).reshape(-1, length).T.copy()

    def draw(first: int) -> np.ndarray:
        """Replicas ``first .. first + width - 1`` as one read-only ``(width, L, P)`` block."""
        replicas = counter_range(first, width)
        y = _stationary_gaussian_path(a, draw_u64(path_root, replicas), lo, hi)
        eps = draw_normal(draw_u64(eps_root, replicas)[:, None, None], counters)
        eps *= sigma
        eps += (rho * y)[:, :, None]
        eps.setflags(write=False)
        return eps

    # map and chain keep no finished slice, so a slice is freed once its last item is dropped
    blocks = itertools.chain.from_iterable(map(draw, itertools.count(0, width)))
    return map(lambda block: ParticleMeasure(lo, block.T), blocks)


def conditional_law_suite(rho: float, a: float, config: DiagnosticsConfig) -> list[StatReport]:
    """The Gaussian pair's closed-form oracle and its shift test.

    Reports :func:`conditional_law_demo`, then :func:`distributions_equal`
    of :func:`gaussian_pair_sampler` (at most 200 particles per replica:
    the test needs many replicas, not large ensembles) against its
    translate by 1 on two rectangles sized for standard-normal values.
    Both rectangles are checked against the window and its shift before
    anything is drawn.  Each pair is one item of the stream twice, so side
    b's item ``r`` is side a's item ``r`` translated and the two samples of
    each KS test are not independent.
    """
    lo = config.window[0]
    deltas = [CylinderSet(lo + 1, ((-0.5, 0.5),)), CylinderSet(lo + 2, ((0.0, 1.5),))]
    _fit(config.window, deltas, [1])
    demo = conditional_law_demo(rho, a, config)
    small = replace(config, particle_count=min(200, config.particle_count))
    pairs = map(lambda mu: (mu, mu), gaussian_pair_sampler(rho, a, small))
    proj = substream(config.seed, "pair-shift-proj")
    return [demo, _shift_report(pairs, 1, deltas, config, proj, "conditional_law")]
