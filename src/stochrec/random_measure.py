"""One realization of a random measure on sequence space, represented as a
uniform particle ensemble over a common index window.

A measure is a :class:`~stochrec.path_space.Window` over its particle
matrix, so it is indexed, sliced and translated as a window.  The module
provides integration of bounded functions, probabilities of cylinder
rectangles, and a statistical test for equality in distribution of two
measure-valued samplers.
"""

import math
import operator
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _ks as _sps  # perfbench/spans.py traces KS calls through this name
from .path_space import Window
from .seeds import draw_unit, substream

__all__ = [
    "ParticleMeasure",
    "CylinderSet",
    "StatReport",
    "MeasureSampler",
    "integrate",
    "cylinder_prob",
    "distributions_equal",
    "ks_critical",
    "ks_two_sample_threshold",
    "ks_one_sample_threshold",
]

#: A seeded generator of measure realizations: replica index -> measure.
MeasureSampler = Callable[[int], "ParticleMeasure"]


class ParticleMeasure(Window):
    """A probability measure carried by equally likely particles on one window.

    A :class:`~stochrec.path_space.Window` over an ``(n_particles,
    window_len)`` matrix: row ``j`` is particle ``j``'s path, and each
    particle carries mass ``1 / particle_count``.  Indexing, :meth:`span`,
    equality, immutability and the shared read-only, column-major storage
    are the window's; :func:`~stochrec.path_space.shift_path` translates a
    measure like any other window.
    """

    def __post_init__(self):
        super().__post_init__()
        if self.values.ndim != 2:
            raise ValueError("ParticleMeasure values must be a 2-d matrix")

    @property
    def particle_count(self) -> int:
        return self.values.shape[0]

    #: Particle values at absolute index ``index``, as a view.
    column = Window.coordinate


@dataclass(frozen=True)
class CylinderSet:
    """A start index plus half-open rectangles, one per consecutive coordinate.

    Constrains coordinates ``start .. start + len(intervals) - 1``; interval
    ``[a, b)`` bounds are half-open so that tilings are exact.
    """

    start: int
    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "start", operator.index(self.start))
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
    """Outcome of one statistical check; ``passed`` is derived: statistic <= threshold."""

    test_name: str
    statistic: float
    threshold: float
    sample_size: int
    seed: int
    passed: bool = field(init=False)

    def __post_init__(self):
        types = {"statistic": float, "threshold": float,
                 "sample_size": operator.index, "seed": operator.index}
        for name, kind in types.items():
            object.__setattr__(self, name, kind(getattr(self, name)))
        object.__setattr__(self, "passed", self.statistic <= self.threshold)

    def as_dict(self) -> dict:
        return asdict(self)


def integrate(mu: ParticleMeasure, values: np.ndarray):
    """Integral of a function of the trajectory: ``sum_j (1/P) * values[j]``.

    ``values`` holds the function's value on each of the ``P`` particles
    (for example a function of :meth:`ParticleMeasure.column`), so the
    integral is their uniform average.  Returns a numpy scalar of the
    values' type (float or complex).
    """
    values = np.asarray(values)
    if values.shape != (mu.particle_count,):
        raise ValueError(
            f"expected one value per particle ({mu.particle_count},), got shape {values.shape}"
        )
    return ((1.0 / mu.particle_count) * values).sum()


def cylinder_prob(mu: ParticleMeasure, delta: CylinderSet) -> float:
    """Measure of the rectangle: the fraction of particles inside it."""
    block = mu.span(delta.start, delta.last_index)
    (a, b), *rest = delta.intervals
    inside = (block[:, 0] >= a) & (block[:, 0] < b)
    for j, (a, b) in enumerate(rest, 1):
        col = block[:, j]
        inside &= (col >= a) & (col < b)
    return float(integrate(mu, inside))


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

    Draws ``replicas`` independent realizations from each sampler, replica
    ``r`` of both before replica ``r + 1``, evaluates the vector of rectangle
    probabilities ``(mu(delta_1), ..., mu(delta_n))`` for each, and runs a
    two-sample Kolmogorov-Smirnov test on every coordinate and on one fixed
    random linear combination of coordinates (coefficients drawn once from
    ``seed``).  The statistic is the largest KS distance over those scalar
    projections; the threshold is the asymptotic critical value at level ``alpha``.

    This is a statistical check on a fixed finite family of rectangles, at a
    fixed level; it falsifies, it does not prove.
    """
    if replicas < 100:
        raise ValueError("replicas must be at least 100")
    if not deltas:
        raise ValueError("deltas must be nonempty")
    threshold = ks_two_sample_threshold(alpha, replicas, replicas)

    # replica r of both sides before r + 1: a shared slice-drawing sampler draws a slice once
    vec_a, vec_b = np.empty((2, replicas, len(deltas)))
    for r in range(replicas):
        vec_a[r] = _delta_vector(sampler_a(r), deltas)
        vec_b[r] = _delta_vector(sampler_b(r), deltas)

    coeffs = 2.0 * draw_unit(substream(seed, "projection"), np.arange(len(deltas))) - 1.0
    proj_a = np.column_stack([vec_a, (vec_a * coeffs).sum(axis=1)])
    proj_b = np.column_stack([vec_b, (vec_b * coeffs).sum(axis=1)])

    statistic = 0.0
    for j in range(proj_a.shape[1]):
        statistic = max(statistic, _sps.ks_2samp(proj_a[:, j], proj_b[:, j]))

    return StatReport(
        test_name=name,
        statistic=statistic,
        threshold=threshold,
        sample_size=replicas,
        seed=seed,
    )
