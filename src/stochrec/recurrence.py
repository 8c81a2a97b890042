"""Iteration machinery for scalar recurrences driven by i.i.d. noise:
``x_next = apply(x, xi)`` stepped forward over indexed windows.

Every loop through noise goes through one kernel, :func:`advance`.

Index convention: when the state starts at index ``n0``, the noise window
starts at ``n0 + 1``, and the step into index ``k + 1`` consumes the noise
value at index ``k + 1``; :meth:`NoiseModel.driving` draws that window.
"""

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .path_space import Window
from .seeds import counter_range, draw_unit

__all__ = [
    "UpdateMap",
    "NoiseModel",
    "fractional_map",
    "contraction_map",
    "update_map_from_name",
    "advance",
]


@dataclass(frozen=True)
class UpdateMap:
    """A one-step update ``x_next = apply(x, xi)``.

    ``apply`` must accept a scalar or a numpy array in the state argument
    and operate elementwise, so ensembles can be advanced in one call.
    """

    name: str
    apply: Callable


def _frac(x):
    # x - floor(x), in [0, 1) for negatives too; just below an integer it can
    # round to 1.0, the same circle point as 0.0.  A finite float stays off
    # numpy (math.floor gives an int, so -0.0 - 0 keeps its sign; the guard
    # sends -0.0 and 1.0 to +0.0, as the array branch does), other scalars
    # give numpy scalars, and an array is subtracted into its fresh floor, so
    # a call holds its input and one result, not a third array of that size.
    if isinstance(x, float) and math.isfinite(x):
        out = x - math.floor(x)
        return out if 0.0 < out < 1.0 else 0.0
    out = np.asarray(np.floor(x))
    np.subtract(x, out, out=out)
    out[out >= 1.0] = 0.0
    return out[()]


def fractional_map() -> UpdateMap:
    """Circle rotation by the noise value: ``apply(x, y) = frac(x + y)``."""
    return UpdateMap(name="fractional", apply=lambda x, y: _frac(x + y))


def contraction_map(a: float) -> UpdateMap:
    """Affine contraction ``apply(x, y) = a*x + y`` with ``|a| < 1``.

    The contrast case: its ensemble collapses geometrically, the signature of
    a solution that is a function of the noise alone.
    """
    a = float(a)
    if not abs(a) < 1.0:
        raise ValueError(f"contraction factor must satisfy |a| < 1, got {a}")
    return UpdateMap(name=f"contraction:a={a}", apply=lambda x, y: a * x + y)


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
    """Uniform i.i.d. noise on [0, 1), addressed by absolute sequence index.

    The value at index ``i`` is ``draw_unit(seed, i)``, a pure function of
    ``(seed, i)``, so overlapping windows agree and windows can be generated
    for any index range in any order.
    """

    seed: int = 0

    def window(self, first_index: int, length: int) -> Window:
        """Noise values at absolute indices ``first_index .. first_index+length-1``."""
        first_index, length = operator.index(first_index), operator.index(length)
        if length < 1:
            raise ValueError("noise window length must be positive")
        values = draw_unit(self.seed, counter_range(first_index, length))
        values.setflags(write=False)
        return Window(offset=first_index, values=values)

    def driving(self, window: tuple[int, int]) -> Window:
        """The noise at ``lo + 1 .. hi``, which drives a path on ``window = (lo, hi)``."""
        lo, hi = window
        return self.window(lo + 1, hi - lo)


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
