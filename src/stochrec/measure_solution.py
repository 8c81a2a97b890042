"""Conditional particle measures for a recurrence driven by frozen noise,
and the checks that make them a measure-valued solution:

* the characteristic-functional identity tying consecutive coordinates
  together through the update map (evaluated as an exact residual),
* adaptedness: coordinates up to ``n`` depend only on noise up to ``n``,
* equivariance of the construction under simultaneous translation of the
  window and relabeling of the noise, with initializer seeds matched.

The construction freezes one noise window and runs an ensemble of
independently initialized trajectories through it; the uniform-weight
ensemble is one realization of the conditional law of the trajectory given
the noise.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import CoverageError
from .path_space import Window, shift_path
from .random_measure import (
    MeasureSampler,
    ParticleMeasure,
    measures_allclose,
    shift_measure,
)
from .recurrence import NoiseModel, UpdateMap, advance
from .seeds import draw_u64, draw_unit, substream

__all__ = [
    "CharSpec",
    "MeasureBuilder",
    "conditional_measure",
    "conditional_measure_sampler",
    "hopf_lhs",
    "hopf_rhs",
    "hopf_residual",
    "residual_report",
    "char_spec_grid",
    "random_char_specs",
    "perturb_last_coordinate",
    "consistency_check",
    "shift_equivariance_check",
]


@dataclass(frozen=True)
class CharSpec:
    """Parameters of one characteristic-functional probe.

    The probe reads coordinates ``n+1 .. n+m`` with frequencies ``lambdas``
    and coordinate ``n+m+1`` with frequency ``rho``.
    """

    n: int
    m: int
    lambdas: tuple[float, ...]
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if len(self.lambdas) != self.m:
            raise ValueError(f"expected {self.m} frequencies, got {len(self.lambdas)}")

    def as_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "lambdas": list(self.lambdas), "rho": self.rho}


@dataclass(frozen=True)
class MeasureBuilder:
    """Packaged construction of a conditional particle measure.

    ``window = (n_lo, n_hi)`` is the index range of the produced measures;
    the initializer sits at ``n_lo`` and is drawn uniformly on
    ``init_bounds``.  Particle ``j`` uses the seed derived from
    ``(init_seed_stream, j)``, so the ensemble is a pure function of the
    builder and the noise, independent of evaluation order.  The
    initializers are drawn once per builder, on first use, and shared by
    every measure it builds.
    """

    update_map: UpdateMap
    particle_count: int
    window: tuple[int, int]
    init_seed_stream: int
    init_bounds: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        lo, hi = self.window
        if not lo < hi:
            raise ValueError(f"window must satisfy n_lo < n_hi, got {self.window}")
        if self.particle_count < 1:
            raise ValueError("particle_count must be positive")
        if not self.init_bounds[0] < self.init_bounds[1]:
            raise ValueError("init_bounds must be an increasing pair")

    @cached_property
    def initializers(self) -> np.ndarray:
        """The ``particle_count`` initial states at ``n_lo``, read-only."""
        child_seeds = draw_u64(self.init_seed_stream, np.arange(self.particle_count))
        b_lo, b_hi = self.init_bounds
        etas = b_lo + (b_hi - b_lo) * draw_unit(child_seeds, 0)
        etas.setflags(write=False)
        return etas

    def translated(self, t: int) -> "MeasureBuilder":
        """The same construction on the window moved forward by ``t``."""
        return replace(self, window=(self.window[0] + t, self.window[1] + t))


def conditional_measure(builder: MeasureBuilder, noise: Window) -> ParticleMeasure:
    """Freeze the noise and run the initializer ensemble through it.

    Plants the builder's ``particle_count`` independent initializers (one
    splitmix64 child seed per particle index) at the window start and
    advances all of them through the same noise values.  Every particle
    satisfies the one-step recurrence exactly along the window; the result
    is the uniform-weight ensemble.
    """
    lo, hi = builder.window
    if not noise.covers_range(lo + 1, hi):
        raise CoverageError(
            f"noise [{noise.first_index}, {noise.last_index}] does not cover "
            f"transitions [{lo + 1}, {hi}]"
        )
    etas = builder.initializers
    columns = np.empty((builder.particle_count, hi - lo + 1), order="F")
    columns[:, 0] = etas
    steps = noise.values[lo + 1 - noise.offset : hi + 1 - noise.offset]
    advance(builder.update_map.apply, etas, steps, out=columns[:, 1:])
    columns.setflags(write=False)
    return ParticleMeasure.from_matrix(lo, columns)


def conditional_measure_sampler(
    builder: MeasureBuilder, noise_seed: int, law: str = "uniform"
) -> MeasureSampler:
    """Seeded sampler of measure realizations over fresh noise windows.

    Replica ``r`` freezes the noise window drawn from the ``r``-th child of
    ``noise_seed`` and returns the builder's conditional measure for it.  The
    initializer ensemble is fixed by the builder, so each realization is a
    function of its noise alone.
    """
    lo, hi = builder.window
    model = NoiseModel(law=law, seed=noise_seed)

    def sample(replica: int) -> ParticleMeasure:
        return conditional_measure(builder, model.substream(replica).window(lo + 1, hi - lo))

    return sample


def _probe_columns(mu: ParticleMeasure, spec: CharSpec, last: int) -> np.ndarray:
    first = spec.n + 1
    if not mu.covers_range(first, last):
        raise CoverageError(
            f"probe indices [{first}, {last}] outside measure window "
            f"[{mu.first_index}, {mu.last_index}]"
        )
    return mu.column_block(first, last)


def _phases(block: np.ndarray, freqs) -> np.ndarray:
    """``sum_k freqs[k] * block[:, k]`` per particle, as a left fold over columns.

    Starts from ``+0.0`` and adds the columns in order, which is how numpy's
    row reduction ``(block * freqs).sum(axis=1)`` sums rows shorter than 8
    (pairwise summation takes over from 8), so both give the same bits,
    signed zeros included.  On a column-major block every term is a
    contiguous column and no ``(P, k)`` product is formed.
    """
    phases = np.zeros(block.shape[0])
    for column, freq in zip(block.T, freqs):
        phases += column * freq
    return phases


def hopf_lhs(mu: ParticleMeasure, spec: CharSpec) -> complex:
    """Characteristic functional of coordinates ``n+1 .. n+m+1``.

    ``integral of exp(i sum_k lambda_k u_{n+k} + i rho u_{n+m+1})``; the
    modulus never exceeds 1.  The phase of each particle is a left fold from
    ``+0.0``: ``((0 + lambda_1 u_{n+1}) + ...) + rho u_{n+m+1}``, in
    coordinate order; :func:`hopf_rhs` folds its phases the same way.
    """
    block = _probe_columns(mu, spec, spec.n + spec.m + 1)
    return _char_integral(mu, _phases(block, spec.lambdas + (spec.rho,)))


def hopf_rhs(
    mu: ParticleMeasure, noise: Window, spec: CharSpec, update_map: UpdateMap
) -> complex:
    """Same functional with the last coordinate replaced by the map's output.

    ``integral of exp(i sum_k lambda_k u_{n+k}) * exp(i rho apply(u_{n+m},
    xi_{n+m+1}))``; the noise value enters alongside the measure.
    """
    block = _probe_columns(mu, spec, spec.n + spec.m)
    stepped = update_map.apply(block[:, -1], noise.coordinate(spec.n + spec.m + 1))
    phases = _phases(block, spec.lambdas)
    phases += spec.rho * stepped
    del stepped  # one real and one complex array at most are live below
    return _char_integral(mu, phases)


def _char_integral(mu: ParticleMeasure, phases: np.ndarray) -> complex:
    """``integrate(mu, np.exp(1j * phases))``, bit for bit, in one buffer.

    The exponential and the weighting run in place in the complex array,
    so a probe side holds one complex array besides its real phases.
    Separate temporaries would let each probe on a large ensemble grow the
    heap past glibc's trim threshold, and every probe would then fault in
    fresh pages (about 1,500 per probe at 200,000 particles).
    """
    values = 1j * phases
    np.exp(values, out=values)
    return complex(np.multiply(mu.weights, values, out=values).sum())


def hopf_residual(
    mu: ParticleMeasure, noise: Window, spec: CharSpec, update_map: UpdateMap
) -> float:
    """``|lhs - rhs|`` of the characteristic-functional identity.

    On measures produced by :func:`conditional_measure` with the same noise
    the identity holds pointwise on particles, so the residual is at the
    float-roundoff level (below 1e-9 by a wide margin).  Breaking the
    recurrence, for example by shuffling the last coordinate across
    particles, makes it order one.
    """
    return abs(hopf_lhs(mu, spec) - hopf_rhs(mu, noise, spec, update_map))


def residual_report(
    mu: ParticleMeasure, noise: Window, spec: CharSpec, update_map: UpdateMap
) -> dict:
    """Both sides of the identity and their distance, as a JSON-ready dict."""
    lhs = hopf_lhs(mu, spec)
    rhs = hopf_rhs(mu, noise, spec, update_map)
    return {
        "spec": spec.as_dict(),
        "lhs_re": lhs.real,
        "lhs_im": lhs.imag,
        "rhs_re": rhs.real,
        "rhs_im": rhs.imag,
        "residual": abs(lhs - rhs),
    }


def char_spec_grid(window: tuple[int, int]) -> list[CharSpec]:
    """A fixed deterministic probe family for the given window.

    Covers orders 1 to 3 with all-ones and alternating-sign frequency
    patterns and end frequencies in {-1, 0, 1}, anchored at both window
    edges (the right-edge probes read the window's final coordinate, which
    is the one a last-coordinate perturbation destroys).
    """
    lo, hi = window
    specs = []
    for m in (1, 2, 3):
        anchors = {n for n in (lo, lo + 1, hi - m - 1) if lo <= n and n + m + 1 <= hi}
        for n in sorted(anchors):
            patterns = [(1.0,) * m]
            if m > 1:
                patterns.append(tuple((-1.0) ** k for k in range(m)))
            for lambdas in patterns:
                for rho in (-1.0, 0.0, 1.0):
                    specs.append(CharSpec(n=n, m=m, lambdas=lambdas, rho=rho))
    if not specs:
        raise ValueError(f"window {window} too short for any probe")
    return specs


def random_char_specs(window: tuple[int, int], count: int, seed: int) -> list[CharSpec]:
    """``count`` random probes with frequencies uniform on [-3, 3].

    Orders and base indices are drawn uniformly over the admissible range
    for the window; everything is a pure function of ``seed``.
    """
    if count < 0:
        raise ValueError(f"probe count must be nonnegative, got {count}")
    lo, hi = window
    max_m = min(4, hi - lo - 1)
    if max_m < 1:
        raise ValueError(f"window {window} too short for any probe")
    m_stream = substream(seed, "spec-order")
    n_stream = substream(seed, "spec-base")
    freq_stream = substream(seed, "spec-freq")
    specs = []
    for i in range(count):
        m = 1 + int(draw_u64(m_stream, i) % np.uint64(max_m))
        n = lo + int(draw_u64(n_stream, i) % np.uint64(hi - m - lo))
        raw = draw_unit(freq_stream, np.arange(i * (max_m + 1), i * (max_m + 1) + m + 1))
        freqs = 6.0 * raw - 3.0
        specs.append(CharSpec(n=n, m=m, lambdas=tuple(freqs[:m]), rho=float(freqs[m])))
    return specs


def perturb_last_coordinate(mu: ParticleMeasure, seed: int) -> ParticleMeasure:
    """Negative control: permute the final coordinate across particles.

    The marginals are untouched but the recurrence linking the last two
    coordinates is destroyed, so the characteristic-functional identity
    fails for probes that couple them.
    """
    order = np.argsort(draw_u64(substream(seed, "perturb"), np.arange(mu.particle_count)))
    values = mu.values.copy(order="F")
    values[:, -1] = values[order, -1]
    values.setflags(write=False)
    return ParticleMeasure.from_matrix(mu.offset, values, mu.weights)


def consistency_check(
    builder: MeasureBuilder, noise_a: Window, noise_b: Window, n: int
) -> bool:
    """Do two noise paths sharing history up to ``n`` give the same past?

    Builds the conditional measure for each path (same initializer ensemble)
    and compares all particle coordinates at indices <= ``n`` bit-exactly.
    For paths that agree up to ``n`` this must hold, because the forward
    construction reads only past noise; for paths whose history differs the
    comparison is made anyway and is generally false.
    """
    if noise_a.offset != noise_b.offset or len(noise_a) != len(noise_b):
        raise CoverageError("noise windows must share offset and length")
    lo, hi = builder.window
    mu_a = conditional_measure(builder, noise_a)
    mu_b = conditional_measure(builder, noise_b)
    if n < lo:
        return True
    cut = min(n, hi)
    return bool(
        np.array_equal(mu_a.column_block(lo, cut), mu_b.column_block(lo, cut))
    )


def shift_equivariance_check(
    builder: MeasureBuilder, noise: Window, t: int, *, atol: float = 1e-12
) -> bool:
    """Translation-equivariance of the construction under matched seeds.

    Compares the ``-t`` translate of the measure built on the original
    window against the measure built on the window moved forward by ``t``
    from the correspondingly relabeled noise.  Both runs consume the same
    noise values and the same per-particle initializer seeds, so agreement
    is expected at the bit level; mismatched initializer seeds break it,
    which is the almost-sure (not sure) nature of the identity.
    """
    lhs = shift_measure(conditional_measure(builder, noise), -t)
    rhs = conditional_measure(builder.translated(t), shift_path(noise, -t))
    return measures_allclose(lhs, rhs, atol)
