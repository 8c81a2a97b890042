"""One realization of a random measure on sequence space, represented as a
weighted particle ensemble over a common index window.

The module provides integration of bounded functions, probabilities of
cylinder rectangles, translation of measures, and a statistical test for
equality in distribution of two measure-valued samplers.
"""

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import _ks as _sps  # perfbench/spans.py traces KS calls through this name
from .errors import CoverageError
from .path_space import frozen_array
from .seeds import draw_unit, substream

__all__ = [
    "ParticleMeasure",
    "CylinderSet",
    "StatReport",
    "MeasureSampler",
    "integrate",
    "cylinder_prob",
    "shift_measure",
    "measures_allclose",
    "distributions_equal",
    "ks_critical",
    "ks_two_sample_threshold",
    "ks_one_sample_threshold",
]

_WEIGHT_TOL = 1e-12

#: A seeded generator of measure realizations: replica index -> measure.
MeasureSampler = Callable[[int], "ParticleMeasure"]


class ParticleMeasure:
    """A probability measure carried by weighted particles on one window.

    All particles share the same offset and length.  Values are finite;
    weights are finite, nonnegative and sum to one (within 1e-12).
    Instances are immutable; the backing arrays are marked read-only and
    may be shared between measures.  Build them with :meth:`from_matrix`.
    """

    __slots__ = ("offset", "values", "weights")

    @classmethod
    def from_matrix(
        cls, offset: int, values: np.ndarray, weights: np.ndarray | None = None
    ) -> "ParticleMeasure":
        """Build a measure from an ``(n_particles, window_len)`` value matrix.

        ``weights=None`` means the uniform ensemble.  A writable matrix is
        copied column-major, so each coordinate's particle values are
        contiguous for the column reads of probes and rectangles; a
        read-only matrix is shared as it is.
        """
        values = frozen_array(values)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError("values must be a nonempty 2-d matrix")
        if not np.isfinite(values).all():
            raise ValueError("particle values must be finite")
        if weights is None:
            weights = np.full(values.shape[0], 1.0 / values.shape[0])
        weights = frozen_array(weights)
        if weights.shape != (values.shape[0],):
            raise ValueError("weights must match the particle count")
        if not np.isfinite(weights).all():
            raise ValueError("weights must be finite")
        if np.any(weights < 0.0):
            raise ValueError("weights must be nonnegative")
        total = float(np.sum(weights))
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1 within {_WEIGHT_TOL}, got {total!r}")
        self = cls.__new__(cls)
        object.__setattr__(self, "offset", int(offset))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("ParticleMeasure is immutable")

    @property
    def particle_count(self) -> int:
        return self.values.shape[0]

    @property
    def window_length(self) -> int:
        return self.values.shape[1]

    @property
    def first_index(self) -> int:
        return self.offset

    @property
    def last_index(self) -> int:
        return self.offset + self.window_length - 1

    def covers_range(self, first: int, last: int) -> bool:
        return self.first_index <= first and last <= self.last_index

    def column(self, index: int) -> np.ndarray:
        """Particle values at absolute index ``index``."""
        if not self.covers_range(index, index):
            raise CoverageError(
                f"index {index} outside window [{self.first_index}, {self.last_index}]"
            )
        return self.values[:, index - self.offset]

    def column_block(self, first: int, last: int) -> np.ndarray:
        """Particle values at absolute indices ``first..last`` inclusive."""
        if first > last:
            raise ValueError("first must not exceed last")
        if not self.covers_range(first, last):
            raise CoverageError(
                f"indices [{first}, {last}] outside window "
                f"[{self.first_index}, {self.last_index}]"
            )
        a = first - self.offset
        return self.values[:, a : a + (last - first + 1)]


@dataclass(frozen=True)
class CylinderSet:
    """A start index plus half-open rectangles, one per consecutive coordinate.

    Constrains coordinates ``start .. start + len(intervals) - 1``; interval
    ``[a, b)`` bounds are half-open so that tilings are exact.
    """

    start: int
    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivals = tuple((float(a), float(b)) for a, b in self.intervals)
        object.__setattr__(self, "intervals", ivals)
        if not ivals:
            raise ValueError("CylinderSet requires at least one interval")
        for a, b in ivals:
            if not a < b:
                raise ValueError(f"interval [{a}, {b}) is empty or inverted")

    @property
    def last_index(self) -> int:
        return self.start + len(self.intervals) - 1


@dataclass(frozen=True)
class StatReport:
    """Outcome of one statistical check; ``passed`` iff statistic <= threshold."""

    test_name: str
    statistic: float
    threshold: float
    passed: bool
    sample_size: int
    seed: int

    def __post_init__(self):
        if self.passed != (self.statistic <= self.threshold):
            raise ValueError("passed flag inconsistent with statistic and threshold")

    @classmethod
    def from_statistic(
        cls, test_name: str, statistic: float, threshold: float, sample_size: int, seed: int
    ) -> "StatReport":
        return cls(
            test_name=test_name,
            statistic=float(statistic),
            threshold=float(threshold),
            passed=bool(statistic <= threshold),
            sample_size=int(sample_size),
            seed=int(seed),
        )

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def integrate(mu: ParticleMeasure, values: np.ndarray):
    """Integral of a function of the trajectory: ``sum_j w_j values[j]``.

    ``values`` holds the function's value on each particle, one entry per
    particle (for example a function of :meth:`ParticleMeasure.column`).
    Returns a numpy scalar of the values' type (float or complex).
    """
    values = np.asarray(values)
    if values.shape != mu.weights.shape:
        raise ValueError(
            f"expected one value per particle {mu.weights.shape}, got shape {values.shape}"
        )
    return (mu.weights * values).sum()


def cylinder_prob(mu: ParticleMeasure, delta: CylinderSet) -> float:
    """Measure of the rectangle: weighted fraction of particles inside it."""
    block = mu.column_block(delta.start, delta.last_index)
    (a, b), *rest = delta.intervals
    inside = (block[:, 0] >= a) & (block[:, 0] < b)
    for j, (a, b) in enumerate(rest, 1):
        col = block[:, j]
        inside &= (col >= a) & (col < b)
    return float(integrate(mu, inside))


def shift_measure(mu: ParticleMeasure, t: int) -> ParticleMeasure:
    """Pushforward of the measure under the path translation by ``t``.

    Equivalent to shifting every particle path with
    :func:`~stochrec.path_space.shift_path`; the value matrix is shared, only
    the offset moves.
    """
    return ParticleMeasure.from_matrix(mu.offset - t, mu.values, mu.weights)


def measures_allclose(a: ParticleMeasure, b: ParticleMeasure, atol: float = 0.0) -> bool:
    """Coordinate-wise comparison of two ensembles on the same window."""
    if a.offset != b.offset or a.values.shape != b.values.shape:
        return False
    if not np.array_equal(a.weights, b.weights):
        return False
    if atol == 0.0:
        return bool(np.array_equal(a.values, b.values))
    return bool(np.max(np.abs(a.values - b.values)) <= atol)


def ks_critical(alpha: float) -> float:
    """Asymptotic Kolmogorov quantile ``c(alpha) = sqrt(-ln(alpha/2) / 2)``.

    ``c(0.01)`` is approximately 1.628.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return math.sqrt(-math.log(alpha / 2.0) / 2.0)


def ks_two_sample_threshold(alpha: float, n_a: int, n_b: int) -> float:
    """Two-sample KS critical value ``c(alpha) * sqrt((n_a + n_b) / (n_a n_b))``."""
    return ks_critical(alpha) * math.sqrt((n_a + n_b) / (n_a * n_b))


def ks_one_sample_threshold(alpha: float, n: int) -> float:
    """One-sample KS critical value ``c(alpha) / sqrt(n)``."""
    return ks_critical(alpha) / math.sqrt(n)


def _delta_vector(mu: ParticleMeasure, deltas: Sequence[CylinderSet]) -> np.ndarray:
    return np.asarray([cylinder_prob(mu, d) for d in deltas])


_PROJECTION_SEED = 0x1D6A09E667F3BCC9


def distributions_equal(
    sampler_a: MeasureSampler,
    sampler_b: MeasureSampler,
    deltas: Sequence[CylinderSet],
    replicas: int,
    alpha: float,
    *,
    seed: int = _PROJECTION_SEED,
    name: str = "distributions_equal",
) -> StatReport:
    """Test whether two measure samplers agree in distribution.

    Draws ``replicas`` independent realizations from each sampler, evaluates
    the vector of rectangle probabilities ``(mu(delta_1), ..., mu(delta_n))``
    for each, and runs a two-sample Kolmogorov-Smirnov test on every
    coordinate and on one fixed random linear combination of coordinates
    (coefficients drawn once from ``seed``).  The statistic is the largest KS
    distance over those scalar projections; the threshold is the asymptotic
    critical value at level ``alpha``.

    This is a statistical check on a fixed finite family of rectangles, at a
    fixed level; it falsifies, it does not prove.
    """
    if replicas < 100:
        raise ValueError("replicas must be at least 100")
    if not deltas:
        raise ValueError("deltas must be nonempty")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")

    vec_a = np.asarray([_delta_vector(sampler_a(r), deltas) for r in range(replicas)])
    vec_b = np.asarray([_delta_vector(sampler_b(r), deltas) for r in range(replicas)])

    coeffs = 2.0 * draw_unit(substream(seed, "projection"), np.arange(len(deltas))) - 1.0
    proj_a = np.column_stack([vec_a, (vec_a * coeffs).sum(axis=1)])
    proj_b = np.column_stack([vec_b, (vec_b * coeffs).sum(axis=1)])

    statistic = 0.0
    for j in range(proj_a.shape[1]):
        statistic = max(statistic, _sps.ks_2samp(proj_a[:, j], proj_b[:, j]))

    return StatReport.from_statistic(
        test_name=name,
        statistic=statistic,
        threshold=ks_two_sample_threshold(alpha, replicas, replicas),
        sample_size=replicas,
        seed=seed,
    )
