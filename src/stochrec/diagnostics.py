"""Executable evidence for the measure-valued-solution machinery.

* the circle-map statistic: the mean of ``exp(2*pi*i*x_n)`` vanishes for the
  fractional map, both unconditionally and conditionally on the noise, while
  a contracting map drives the conditional version to modulus one,
* stationarity testing of conditional-measure samplers under translation,
* the exact rotation flow in the plane and the invariance of the standard
  Gaussian mass under it,
* a jointly stationary Gaussian pair whose conditional law is known in
  closed form, as an independent oracle for conditional particle measures.

Thresholds follow a five-sigma-style ``5/sqrt(N)`` rule with fixed recorded
seeds, so suite runs are deterministic rather than significance-level flaky;
the KS-based checks use the asymptotic critical value at the configured
level.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _ks as _sps  # perfbench/spans.py traces KS calls through this name
from ._parallel import map_indexed
from .errors import CoverageError
from .measure_solution import MeasureBuilder, conditional_measure_sampler
from .random_measure import (
    CylinderSet,
    MeasureSampler,
    ParticleMeasure,
    StatReport,
    distributions_equal,
    ks_one_sample_threshold,
    shift_measure,
)
from .recurrence import UpdateMap, advance, fractional_map
from .seeds import draw_normal, draw_u64, draw_unit, substream

__all__ = [
    "RotationState",
    "DiagnosticsConfig",
    "tsirelson_statistic",
    "conditional_char_statistic",
    "stationarity_suite",
    "default_cylinder_family",
    "tsirelson_samples",
    "rotation_flow",
    "rotation_invariance_demo",
    "conditional_law_demo",
    "gaussian_pair_conditional_samples",
    "gaussian_pair_sampler",
]

FIVE_SIGMA = 5.0


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
        if self.sample_size < 100:
            raise ValueError("sample_size must be at least 100")
        if self.particle_count < 1:
            raise ValueError("particle_count must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        lo, hi = self.window
        if not lo < hi:
            raise ValueError(f"window must satisfy lo < hi, got {self.window}")


def _chain_endpoint(
    update_map: UpdateMap,
    init_seeds: np.ndarray,
    noise_seeds,
    start: int,
    end: int,
) -> np.ndarray:
    """State at index ``end`` for a batch of seeded runs.

    Run ``r`` starts at index ``start`` from the first uniform of
    ``init_seeds[r]`` and consumes noise values addressed by absolute index
    from ``noise_seeds`` (one seed per run, or one scalar seed frozen across
    the whole batch).  Matches running ``stationary_sampler`` per run with
    the corresponding noise window, vectorized.
    """
    noise = (draw_unit(noise_seeds, k) for k in range(start + 1, end + 1))
    return advance(update_map.apply, draw_unit(init_seeds, 0), noise)


def tsirelson_samples(
    config: DiagnosticsConfig,
    n: int,
    *,
    update_map: UpdateMap | None = None,
    threads: int = 1,
) -> np.ndarray:
    """Coordinate ``n`` of ``sample_size`` independent runs, one per replica.

    This is the raw data behind :func:`tsirelson_statistic`; it can be dumped
    for external plotting.
    """
    update_map = update_map if update_map is not None else fractional_map()
    lo, hi = config.window
    if not lo <= n <= hi:
        raise CoverageError(f"index {n} outside window {config.window}")
    init_stream = substream(config.seed, "tsirelson-init")
    noise_stream = substream(config.seed, "tsirelson-noise")

    chunks = max(1, min(threads, config.sample_size))
    index_parts = np.array_split(np.arange(config.sample_size), chunks)

    def run_chunk(c: int) -> np.ndarray:
        idx = index_parts[c]
        return _chain_endpoint(
            update_map, draw_u64(init_stream, idx), draw_u64(noise_stream, idx), lo, n
        )

    return np.concatenate(map_indexed(run_chunk, chunks, threads))


def tsirelson_statistic(
    config: DiagnosticsConfig,
    n: int,
    *,
    update_map: UpdateMap | None = None,
    threads: int = 1,
) -> StatReport:
    """Modulus of the empirical mean of ``exp(2*pi*i*x_n)`` over fresh runs.

    Each of ``sample_size`` runs draws its own initializer and noise.  For
    the fractional map the population value is exactly zero (each factor
    ``exp(2*pi*i*xi)`` has mean zero on the circle), so the statistic stays
    below ``5/sqrt(sample_size)``; for other maps the report is
    informational.
    """
    x = tsirelson_samples(config, n, update_map=update_map, threads=threads)
    statistic = abs(complex(np.mean(np.exp((2j * np.pi) * x))))
    return StatReport.from_statistic(
        test_name="tsirelson",
        statistic=statistic,
        threshold=FIVE_SIGMA / math.sqrt(config.sample_size),
        sample_size=config.sample_size,
        seed=config.seed,
    )


def conditional_char_statistic(
    config: DiagnosticsConfig,
    n: int,
    *,
    update_map: UpdateMap | None = None,
    noise_paths: int = 10,
    threads: int = 1,
) -> StatReport:
    """Largest conditional characteristic value over several frozen noises.

    For each frozen noise path, averages ``exp(2*pi*i*x_n)`` over
    ``particle_count`` initializer draws (the integral of the conditional
    particle measure against that function) and takes the maximum modulus
    over paths.  For the fractional map the conditional mean is exactly zero
    in population; for a contracting map the ensemble collapses and the
    modulus approaches one, the strong-solution contrast.
    """
    update_map = update_map if update_map is not None else fractional_map()
    lo, hi = config.window
    if not lo <= n <= hi:
        raise CoverageError(f"index {n} outside window {config.window}")
    if noise_paths < 1:
        raise ValueError("noise_paths must be positive")
    init_root = substream(config.seed, "cond-char-init")
    noise_root = substream(config.seed, "cond-char-noise")
    particle_indices = np.arange(config.particle_count)

    def path_modulus(p: int) -> float:
        # one frozen noise seed per path, shared by the whole ensemble
        init_seeds = draw_u64(int(draw_u64(init_root, p)), particle_indices)
        x = _chain_endpoint(update_map, init_seeds, int(draw_u64(noise_root, p)), lo, n)
        return abs(complex(np.mean(np.exp((2j * np.pi) * x))))

    moduli = map_indexed(path_modulus, noise_paths, threads)
    return StatReport.from_statistic(
        test_name="conditional_char",
        statistic=max(moduli),
        threshold=FIVE_SIGMA / math.sqrt(config.particle_count),
        sample_size=config.particle_count,
        seed=config.seed,
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
    family = [
        CylinderSet(start=first, intervals=((0.0, 0.5),)),
        CylinderSet(start=first, intervals=((0.25, 0.75),)),
    ]
    if first + 1 <= last:
        family.append(CylinderSet(start=first + 1, intervals=((0.5, 1.0),)))
        family.append(CylinderSet(start=first, intervals=((0.0, 0.5), (0.0, 0.5))))
    if first + 2 <= last:
        family.append(CylinderSet(start=first + 2, intervals=((0.0, 1.0 / 3.0),)))
        family.append(
            CylinderSet(start=first, intervals=((0.0, 0.75), (0.25, 1.0), (0.0, 0.5)))
        )
    return family


def stationarity_suite(
    builder: MeasureBuilder,
    shifts: Sequence[int],
    deltas: Sequence[CylinderSet],
    config: DiagnosticsConfig,
    *,
    threads: int = 1,
) -> list[StatReport]:
    """Distributional equality of the measure sampler and its translates.

    For each nonzero shift ``t``, draws ``sample_size`` fresh-noise
    realizations of the conditional measure and, independently, of its
    ``t``-translate, and compares the rectangle-probability vectors with
    :func:`distributions_equal`.  One report per shift.
    """
    if not shifts:
        raise ValueError("shifts must be nonempty")
    lo, hi = builder.window
    reports = []
    for t in shifts:
        t = int(t)
        if t == 0:
            raise ValueError("shift 0 is vacuous; use nonzero shifts")
        lo_eff = max(lo, lo - t)
        hi_eff = min(hi, hi - t)
        for d in deltas:
            if d.start < lo_eff or d.last_index > hi_eff:
                raise CoverageError(
                    f"rectangle at [{d.start}, {d.last_index}] leaves the window "
                    f"after shifting by {t}"
                )
        sampler_a = conditional_measure_sampler(
            builder, substream(config.seed, f"stationarity-a:{t}")
        )
        base_b = conditional_measure_sampler(
            builder, substream(config.seed, f"stationarity-b:{t}")
        )

        def shifted(r: int, _base: MeasureSampler = base_b, _t: int = t) -> ParticleMeasure:
            return shift_measure(_base(r), _t)

        reports.append(
            distributions_equal(
                sampler_a,
                shifted,
                deltas,
                replicas=config.sample_size,
                alpha=config.alpha,
                seed=substream(config.seed, f"stationarity-proj:{t}"),
                name=f"stationarity:shift={t}",
                threads=threads,
            )
        )
    return reports


def rotation_flow(state: RotationState, t: float) -> RotationState:
    """Rotate the point by angle ``t`` around the origin (the exact flow)."""
    c, s = math.cos(t), math.sin(t)
    return RotationState(x1=state.x1 * c - state.x2 * s, x2=state.x1 * s + state.x2 * c)


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
    c, s = math.cos(t), math.sin(t)
    rotated = np.column_stack(
        [cloud[:, 0] * c - cloud[:, 1] * s, cloud[:, 0] * s + cloud[:, 1] * c]
    )
    centered_stat = float(np.max(np.abs(rotated.mean(axis=0))))
    cov = np.cov(rotated, rowvar=False)
    cov_stat = float(np.max(np.abs(cov - np.eye(2))))
    return StatReport.from_statistic(
        test_name="rotation_invariance",
        statistic=max(centered_stat, cov_stat),
        threshold=FIVE_SIGMA / math.sqrt(n),
        sample_size=n,
        seed=config.seed,
    )


def _stationary_gaussian_path(a: float, seed: int, lo: int, hi: int) -> np.ndarray:
    """AR(1) path with unit stationary variance, started at stationarity."""
    y = np.empty(hi - lo + 1)
    y[0] = float(draw_normal(substream(seed, "pair-y0"), 0))
    innov_stream = substream(seed, "pair-innov")
    scale = math.sqrt(1.0 - a * a)
    innovations = (scale * float(draw_normal(innov_stream, k)) for k in range(lo + 1, hi + 1))
    advance(lambda x, e: a * x + e, y[0], innovations, out=y[1:])
    return y


def gaussian_pair_conditional_samples(
    rho: float,
    a: float,
    config: DiagnosticsConfig,
    indices: Sequence[int],
) -> dict[int, tuple[float, np.ndarray]]:
    """Frozen driver path plus conditional samples of the dependent series.

    Simulates one stationary Gaussian driver path ``y`` on the window and,
    for each requested index ``n``, draws ``particle_count`` conditional
    samples ``rho * y_n + sqrt(1 - rho^2) * eps``.  Returns
    ``{n: (y_n, samples)}``; the exact conditional law at ``n`` is normal
    with mean ``rho * y_n`` and variance ``1 - rho^2``.
    """
    lo, hi = config.window
    y = _stationary_gaussian_path(a, config.seed, lo, hi)
    sigma = math.sqrt(1.0 - rho * rho)
    out = {}
    for n in indices:
        if not lo <= n <= hi:
            raise CoverageError(f"index {n} outside window {config.window}")
        eps = draw_normal(
            substream(config.seed, f"pair-eps:{n}"), np.arange(config.particle_count)
        )
        out[n] = (float(y[n - lo]), rho * y[n - lo] + sigma * eps)
    return out


def conditional_law_demo(
    rho: float,
    a: float,
    config: DiagnosticsConfig,
    *,
    indices: Sequence[int] | None = None,
) -> StatReport:
    """Empirical conditional law versus its closed-form Gaussian oracle.

    For a jointly stationary Gaussian pair, the law of the dependent value
    given the driver is normal with mean ``rho * y_n`` and variance
    ``1 - rho^2``; this draws conditional samples against one frozen driver
    path and reports the largest KS distance to that law over the tested
    indices, against the asymptotic critical value at ``config.alpha``.
    """
    if not abs(rho) < 1.0:
        raise ValueError(f"rho must satisfy |rho| < 1, got {rho}")
    if not abs(a) < 1.0:
        raise ValueError(f"a must satisfy |a| < 1, got {a}")
    lo, hi = config.window
    if indices is None:
        span = hi - lo
        indices = sorted({lo + 1, lo + span // 3 + 1, lo + (2 * span) // 3, hi})
    sigma = math.sqrt(1.0 - rho * rho)
    samples = gaussian_pair_conditional_samples(rho, a, config, indices)
    statistic = 0.0
    for y_n, draws in samples.values():
        statistic = max(statistic, _sps.kstest(draws, rho * y_n, sigma))
    return StatReport.from_statistic(
        test_name="conditional_law",
        statistic=statistic,
        threshold=ks_one_sample_threshold(config.alpha, config.particle_count),
        sample_size=config.particle_count,
        seed=config.seed,
    )


def gaussian_pair_sampler(rho: float, a: float, config: DiagnosticsConfig) -> MeasureSampler:
    """Sampler of conditional particle measures for the Gaussian pair.

    Replica ``r`` freezes a fresh driver path and returns the ensemble of
    ``particle_count`` conditional trajectories of the dependent series on
    the window.  The pair is jointly stationary, so this sampler and its
    translates coincide in distribution.
    """
    if not abs(rho) < 1.0 or not abs(a) < 1.0:
        raise ValueError("rho and a must lie in (-1, 1)")
    lo, hi = config.window
    length = hi - lo + 1
    sigma = math.sqrt(1.0 - rho * rho)
    path_root = substream(config.seed, "pair-path")
    eps_root = substream(config.seed, "pair-ensemble")

    def sample(replica: int) -> ParticleMeasure:
        y = _stationary_gaussian_path(a, int(draw_u64(path_root, replica)), lo, hi)
        eps = draw_normal(
            int(draw_u64(eps_root, replica)), np.arange(config.particle_count * length)
        ).reshape(config.particle_count, length)
        return ParticleMeasure.from_matrix(lo, rho * y[None, :] + sigma * eps)

    return sample
