"""Conditional particle measures for a recurrence driven by frozen noise,
and the checks that make them a measure-valued solution:

* the characteristic-functional identity tying consecutive coordinates
  together through the update map (evaluated as an exact residual),
* adaptedness: coordinates up to ``n`` depend only on noise up to ``n``,
* equivariance of the construction under simultaneous translation of the
  window and relabeling of the noise, with initializer seeds matched.

The construction freezes one noise window and runs an ensemble of
independently initialized trajectories through it; the uniform ensemble
is one realization of the conditional law of the trajectory given the
noise.
"""

import itertools
import math
import operator
import os
import threading
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import CoverageError
from .path_space import Window, _same_bits, shift_path
from .random_measure import ParticleMeasure
from .recurrence import NoiseModel, UpdateMap, advance
from .seeds import draw_u64, draw_unit, substream

# fewest particle rows per part of a probe: smaller parts ran slower than one thread
_PART_ROWS = 80_000

__all__ = [
    "CharSpec",
    "MeasureBuilder",
    "conditional_measure",
    "conditional_measure_sampler",
    "hopf_lhs",
    "hopf_rhs",
    "hopf_residual",
    "residual_reports",
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
        object.__setattr__(self, "n", operator.index(self.n))
        object.__setattr__(self, "m", operator.index(self.m))
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        object.__setattr__(self, "rho", float(self.rho))
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if len(self.lambdas) != self.m:
            raise ValueError(f"expected {self.m} frequencies, got {len(self.lambdas)}")
        if not all(abs(v) < np.inf for v in self.lambdas + (self.rho,)):
            raise ValueError(f"frequencies must be finite, got {self.lambdas} and rho {self.rho}")

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
        lo, hi = map(operator.index, self.window)
        object.__setattr__(self, "window", (lo, hi))
        object.__setattr__(self, "particle_count", operator.index(self.particle_count))
        if not lo < hi:
            raise ValueError(f"window must satisfy n_lo < n_hi, got {self.window}")
        if self.particle_count < 1:
            raise ValueError("particle_count must be positive")
        b_lo, b_hi = map(float, self.init_bounds)
        if not (b_lo < b_hi and math.isfinite(b_hi - b_lo)):
            raise ValueError(
                f"init_bounds must be an increasing pair of finite width, got {self.init_bounds}"
            )
        object.__setattr__(self, "init_bounds", (b_lo, b_hi))

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
    is the uniform ensemble.
    """
    lo, hi = builder.window
    steps = noise.span(lo + 1, hi)
    etas = builder.initializers
    columns = np.empty((builder.particle_count, hi - lo + 1), order="F")
    columns[:, 0] = etas
    advance(builder.update_map.apply, etas, steps, out=columns[:, 1:])
    columns.setflags(write=False)
    return ParticleMeasure(lo, columns)


def conditional_measure_sampler(
    builder: MeasureBuilder, noise_seed: int
) -> Iterator[ParticleMeasure]:
    """Seeded stream of measure realizations over fresh noise windows.

    Item ``r`` freezes the noise window drawn from the ``r``-th child of
    ``noise_seed`` and is the builder's conditional measure for it.  The
    initializer ensemble is fixed by the builder, so each realization is a
    function of its noise alone.
    """
    for replica in itertools.count():
        noise = NoiseModel(int(draw_u64(noise_seed, replica))).driving(builder.window)
        yield conditional_measure(builder, noise)


def hopf_lhs(mu: ParticleMeasure, spec: CharSpec) -> complex:
    """Characteristic functional of coordinates ``n+1 .. n+m+1``.

    ``integral of exp(i sum_k lambda_k u_{n+k} + i rho u_{n+m+1})``; the
    modulus never exceeds 1.  The phase of each particle is a left fold from
    ``+0.0``: ``((0 + lambda_1 u_{n+1}) + ...) + rho u_{n+m+1}``, in
    coordinate order; :func:`hopf_rhs` folds its phases the same way.
    """
    block = mu.span(spec.n + 1, spec.n + spec.m + 1)
    return _probe_integral(block.T, spec.lambdas + (spec.rho,))


def hopf_rhs(
    mu: ParticleMeasure, noise: Window, spec: CharSpec, update_map: UpdateMap
) -> complex:
    """Same functional with the last coordinate replaced by the map's output.

    ``integral of exp(i sum_k lambda_k u_{n+k}) * exp(i rho apply(u_{n+m},
    xi_{n+m+1}))``; the noise value enters alongside the measure.
    """
    block = mu.span(spec.n + 1, spec.n + spec.m)
    stepped = update_map.apply(block[:, -1], noise.coordinate(spec.n + spec.m + 1))
    return _probe_integral((*block.T, stepped), spec.lambdas + (spec.rho,))


def _probe_integral(columns, freqs) -> complex:
    """The uniform average of ``exp(i sum_k freqs[k] * columns[k])`` over the rows.

    Each row's phase is a left fold from ``+0.0`` over the columns in order,
    the bits of numpy's ``(block * freqs).sum(axis=1)`` on rows shorter than
    8, signed zeros included.  ``cos`` and ``sin`` fill the real and
    imaginary views of one complex buffer, ``exp(1j * x)`` bit for bit for
    every finite ``x`` but ``-0.0`` (which the fold never yields), scaled by
    ``1 / P`` in place.  A probe side holds that buffer and the phases, both
    allocated by the calling thread, not in a worker's own malloc arena; each
    fold term is staged in the first float64 slots of its part's buffer rows.

    The rows are cut into parts of at least ``_PART_ROWS``, at most one per
    CPU the process may run on, filled by the calling thread and one thread
    each; the sum runs once over the whole buffer, so the cut changes no bit.
    """
    count = len(columns[0])
    values, phases = np.empty(count, complex), np.zeros(count)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    parts = max(1, min(cpus, count // _PART_ROWS))
    errors = []

    def fill(part):
        try:
            rows = slice(count * part // parts, count * (part + 1) // parts)
            folded, out = phases[rows], values[rows]
            term = out.view(float)[: len(folded)]  # contiguous, and cos and sin overwrite it
            for column, freq in zip(columns, freqs):
                folded += np.multiply(column[rows], freq, out=term)
            np.cos(folded, out=out.real)
            np.sin(folded, out=out.imag)
            np.multiply(1.0 / count, out, out=out)
        except BaseException as exc:
            errors.append(exc)

    workers = [threading.Thread(target=fill, args=(part,)) for part in range(1, parts)]
    for worker in workers:
        worker.start()
    fill(0)
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]
    return complex(values.sum())


def hopf_residual(
    mu: ParticleMeasure, noise: Window, spec: CharSpec, update_map: UpdateMap
) -> float:
    """``|lhs - rhs|`` of the Hopf identity, as :func:`residual_reports` computes it."""
    return residual_reports(mu, noise, [spec], update_map)[0]["residual"]


def residual_reports(
    mu: ParticleMeasure, noise: Window, specs: list[CharSpec], update_map: UpdateMap
) -> list[dict]:
    """Both sides of the identity and their distance per probe, checking each last column once.

    Where the map reproduces the stored ``u_{n+m+1}`` bit for bit, as on
    :func:`conditional_measure`, both sides fold the same terms in the same
    order (``rho * x`` rounds as ``x * rho``), so the right side is the left
    one and the residual is 0.  That verdict depends only on the probe's
    last index, so the map runs once per distinct last column, the first
    time a probe reads it.  Shuffling the last coordinate across particles
    breaks the recurrence and makes the residual order one.
    """
    reproduced = {}
    reports = []
    for spec in specs:
        lhs = hopf_lhs(mu, spec)
        last = spec.n + spec.m + 1
        if last not in reproduced:
            stepped = update_map.apply(mu.column(last - 1), noise.coordinate(last))
            reproduced[last] = stepped.dtype == np.float64 and _same_bits(stepped, mu.column(last))
            del stepped  # hopf_rhs steps again; one map output is live at a time
        rhs = lhs if reproduced[last] else hopf_rhs(mu, noise, spec, update_map)
        reports.append({"spec": spec.as_dict(), "lhs_re": lhs.real, "lhs_im": lhs.imag,
                        "rhs_re": rhs.real, "rhs_im": rhs.imag, "residual": abs(lhs - rhs)})
    return reports


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
    return ParticleMeasure(mu.offset, values)


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
    n = operator.index(n)
    lo, hi = builder.window
    mu_a = conditional_measure(builder, noise_a)
    mu_b = conditional_measure(builder, noise_b)
    if n < lo:
        return True
    cut = min(n, hi)
    return _same_bits(mu_a.span(lo, cut), mu_b.span(lo, cut))


def shift_equivariance_check(
    builder: MeasureBuilder, noise: Window, t: int, *, atol: float = 0.0
) -> bool:
    """Translation-equivariance of the construction under matched seeds.

    Compares the ``-t`` translate of the measure built on the original
    window against the measure built on the window moved forward by ``t``
    from the correspondingly relabeled noise.  Both runs consume the same
    noise values and the same per-particle initializer seeds, so they must be
    equal windows, bit for bit, unless a finite ``atol > 0`` bounds the
    largest difference; mismatched initializer seeds break it, which is the
    almost-sure (not sure) nature of the identity.
    """
    if not 0.0 <= atol < np.inf:
        raise ValueError(f"atol must be finite and nonnegative, got {atol}")
    lhs = shift_path(conditional_measure(builder, noise), -t)
    rhs = conditional_measure(builder.translated(t), shift_path(noise, -t))
    if atol == 0.0:
        return lhs == rhs
    return bool(np.max(np.abs(lhs.values - rhs.values)) <= atol)
