"""Iteration machinery for scalar recurrences driven by i.i.d. noise:
``x_next = apply(x, xi)`` stepped forward or backward over indexed windows,
plus the randomly-initialized sampler used by the measure construction.

Every loop through noise goes through one kernel, :func:`advance`.

Index convention: when the state starts at index ``n0``, the noise window
starts at ``n0 + 1``, and the step into index ``k + 1`` consumes the noise
value at index ``k + 1``.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CoverageError, InverseUnavailableError
from .path_space import Window
from .seeds import draw_normal, draw_u64, draw_unit

__all__ = [
    "UpdateMap",
    "NoiseModel",
    "fractional_map",
    "contraction_map",
    "update_map_from_name",
    "advance",
    "iterate_forward",
    "iterate_backward",
    "stationary_sampler",
]


@dataclass(frozen=True)
class UpdateMap:
    """A one-step update ``x_next = apply(x, xi)`` with an optional inverse.

    ``apply`` and ``inverse_apply`` must accept scalars or numpy arrays in
    the state argument and operate elementwise, so ensembles can be advanced
    in one call.  When present, ``inverse_apply`` satisfies
    ``apply(inverse_apply(x, xi), xi) == x`` on the state domain.
    """

    name: str
    apply: Callable
    inverse_apply: Callable | None = None


def _frac(x):
    # fractional part as x - floor(x); maps negatives into [0, 1).  For
    # inputs a hair below an integer the subtraction can round to exactly
    # 1.0, which is the same point on the circle as 0.0.  A finite float
    # stays off numpy; math.floor returns an int, so -0.0 - 0 keeps its
    # sign, and the guard 0.0 < out < 1.0 sends -0.0 and 1.0 to the array
    # branch's +0.0.  Other scalars give numpy scalars, not 0-d arrays.
    if isinstance(x, float) and math.isfinite(x):
        out = x - math.floor(x)
        return out if 0.0 < out < 1.0 else 0.0
    out = np.asarray(x - np.floor(x))  # a fresh array, so zeroed in place
    out[out >= 1.0] = 0.0
    return out[()]


def fractional_map() -> UpdateMap:
    """Circle rotation by the noise value: ``apply(x, y) = frac(x + y)``.

    The inverse is ``frac(x - y)``, so backward steps stay in [0, 1).
    """
    return UpdateMap(
        name="fractional",
        apply=lambda x, y: _frac(x + y),
        inverse_apply=lambda x, y: _frac(x - y),
    )


def contraction_map(a: float) -> UpdateMap:
    """Affine contraction ``apply(x, y) = a*x + y`` with ``|a| < 1``.

    The contrast case: its ensemble collapses geometrically, the signature of
    a solution that is a function of the noise alone.  For ``a != 0`` the
    inverse is ``(x - y) / a``.
    """
    a = float(a)
    if not abs(a) < 1.0:
        raise ValueError(f"contraction factor must satisfy |a| < 1, got {a}")
    inverse = None if a == 0.0 else (lambda x, y: (x - y) / a)
    return UpdateMap(name=f"contraction:a={a}", apply=lambda x, y: a * x + y, inverse_apply=inverse)


def update_map_from_name(text: str) -> UpdateMap:
    """Parse ``"fractional"`` or ``"contraction:a=<value>"`` into an UpdateMap."""
    if text == "fractional":
        return fractional_map()
    if text.startswith("contraction:a="):
        try:
            a = float(text.removeprefix("contraction:a="))
        except ValueError:
            raise ValueError(f"bad contraction factor in {text!r}") from None
        return contraction_map(a)
    raise ValueError(f"unknown update map {text!r}")


@dataclass(frozen=True)
class NoiseModel:
    """An i.i.d. noise source addressed by absolute sequence index.

    ``law`` is ``"uniform"`` (on [0, 1)) or ``"normal"``.  The value at index
    ``i`` is a pure function of ``(seed, i)``, so overlapping windows agree
    and windows can be generated for any index range in any order.
    """

    law: str = "uniform"
    seed: int = 0

    def __post_init__(self):
        if self.law not in ("uniform", "normal"):
            raise ValueError(f"unknown noise law {self.law!r}")

    def window(self, first_index: int, length: int) -> Window:
        """Noise values at absolute indices ``first_index .. first_index+length-1``."""
        if length < 1:
            raise ValueError("noise window length must be positive")
        counters = np.arange(first_index, first_index + length, dtype=np.int64)
        if self.law == "uniform":
            values = draw_unit(self.seed, counters)
        else:
            values = draw_normal(self.seed, counters)
        values.setflags(write=False)
        return Window(offset=first_index, values=values)

    def substream(self, index: int) -> "NoiseModel":
        """An independent child model for replica ``index`` (same law)."""
        return NoiseModel(self.law, int(draw_u64(self.seed, index)))


def advance(step: Callable, x, noise_values, out: np.ndarray | None = None):
    """Step the state ``x`` through ``noise_values``; return the last state.

    Step ``k`` computes ``x = step(x, noise_values[k])``, and when ``out`` is
    given stores that state in ``out[..., k]``.  ``x`` may be a scalar or an
    array of independent runs; each noise value may be a scalar shared by
    all runs or an array with one value per run.  ``noise_values`` can be
    any iterable, so callers that need only the endpoint can pass a
    generator and keep no trajectory.
    """
    for k, xi in enumerate(noise_values):
        x = step(x, xi)
        if out is not None:
            out[..., k] = x
    return x


def _fill_path(update_map: UpdateMap, noise: Window, cut: int, x: float) -> Window:
    """The path through ``noise`` with the state ``x`` planted at ``path[cut]``.

    ``path[j]`` sits at index ``noise.offset - 1 + j`` and ``noise.values[j]``
    drives the step from ``path[j]`` to ``path[j + 1]``: ``apply`` fills the
    path right of the cut, ``inverse_apply`` left of it.
    """
    path = np.empty(len(noise) + 1)
    path[cut] = x
    if cut > 0:
        if update_map.inverse_apply is None:
            raise InverseUnavailableError(
                f"update map {update_map.name!r} has no inverse; cannot iterate backward"
            )
        back = slice(cut - 1, None, -1)
        advance(update_map.inverse_apply, x, noise.values[back].tolist(), out=path[back])
    advance(update_map.apply, x, noise.values[cut:].tolist(), out=path[cut + 1 :])
    return Window(offset=noise.offset - 1, values=path)


def iterate_forward(x0: float, noise: Window, update_map: UpdateMap) -> Window:
    """Run the recurrence forward through every noise value.

    ``x0`` sits at index ``noise.offset - 1``; the result covers
    ``noise.offset - 1 .. noise.last_index`` and its first coordinate is
    exactly ``x0``.
    """
    return _fill_path(update_map, noise, 0, float(x0))


def iterate_backward(x_end: float, noise: Window, update_map: UpdateMap) -> Window:
    """Run the recurrence backward through every noise value.

    ``x_end`` sits at index ``noise.last_index``; earlier coordinates are
    recovered with ``inverse_apply``, consuming the noise from the top down.
    The result covers the same window as :func:`iterate_forward` and ends at
    ``x_end``.
    """
    return _fill_path(update_map, noise, len(noise), float(x_end))


def stationary_sampler(
    update_map: UpdateMap,
    noise: Window,
    init_seed: int,
    *,
    init_index: int | None = None,
    init_bounds: tuple[float, float] = (0.0, 1.0),
) -> Window:
    """One trajectory of the randomly-initialized construction.

    Draws the initializer ``eta`` uniformly on ``init_bounds`` from
    ``init_seed`` (a stream independent of the noise), plants it at
    ``init_index`` (default: the left edge of the output window,
    ``noise.offset - 1``), then fills the window ``noise.offset - 1 ..
    noise.last_index`` forward with ``apply`` and, left of the initializer,
    backward with ``inverse_apply``.

    For the fractional map with the default bounds every coordinate lies in
    [0, 1) and each coordinate is uniform regardless of the noise values.
    """
    lo, hi = float(init_bounds[0]), float(init_bounds[1])
    if not lo < hi:
        raise ValueError("init_bounds must be an increasing pair")
    first = noise.offset - 1
    last = noise.last_index
    anchor = first if init_index is None else int(init_index)
    if not first <= anchor <= last:
        raise CoverageError(f"initializer index {anchor} outside window [{first}, {last}]")

    eta = lo + (hi - lo) * float(draw_unit(init_seed, 0))
    return _fill_path(update_map, noise, anchor - first, eta)
