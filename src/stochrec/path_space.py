"""Trajectory and sequence primitives: indexed windows, shifts, and the
summed-and-damped sup metric on sampled functions.

A window stores a finite stretch of a bi-infinite real sequence (a path of
states, the driving noise, or one path per particle) together with the
absolute index of its first entry, so the coordinate at absolute index ``i``
is ``values[..., i - offset]``.  :meth:`Window.span` is the one checked
slice by absolute index.
"""

import operator
from copy import copy
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CoverageError

__all__ = [
    "Window",
    "SampledFunction",
    "TrajMetric",
    "shift_path",
    "traj_metric",
]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """The package's one exact comparison: equal shapes and float64 bit patterns."""
    return np.array_equal(a.view(np.int64), b.view(np.int64))


@dataclass(frozen=True, eq=False)
class Window:
    """A finite window of a real-valued sequence, backed by a read-only array.

    The last axis is the sequence index: ``values[..., i - offset]`` is the
    coordinate at absolute index ``i``, so a 1-d window holds one path and
    leading axes hold several (a particle matrix has one row per particle).
    An array is copied column-major when it or an array in its base chain
    is writable, so that each coordinate's values are contiguous; others are
    shared, and a caller's array is never frozen or captured.  This stops
    accidental writes and aliasing of writable arrays, not code that sets
    ``write=True`` again on the array that owns the data.  Windows are equal
    when their offsets, shapes and float64 bit patterns agree, so ``-0.0`` is
    not ``+0.0``; the memory order does not matter.  Values must be finite.
    """

    offset: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        base = values
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is not None:
            values = values.copy(order="F")
            values.setflags(write=False)
        if values.ndim < 1 or values.size == 0:
            raise ValueError(f"{type(self).__name__} requires a nonempty array of values")
        if not np.isfinite(values).all():
            raise ValueError(f"{type(self).__name__} values must be finite")
        object.__setattr__(self, "offset", operator.index(self.offset))
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        if not isinstance(other, Window):
            return NotImplemented
        return self.offset == other.offset and _same_bits(self.values, other.values)

    def __len__(self) -> int:
        return self.values.shape[-1]

    @property
    def last_index(self) -> int:
        return self.offset + len(self) - 1

    def span(self, first: int, last: int) -> np.ndarray:
        """Values at absolute indices ``first .. last`` inclusive, as a view.

        Raises :class:`CoverageError` unless ``first <= last`` and both lie
        inside the window.
        """
        if not self.offset <= first <= last <= self.last_index:
            raise CoverageError(
                f"indices [{first}, {last}] outside window [{self.offset}, {self.last_index}]"
            )
        return self.values[..., first - self.offset : last + 1 - self.offset]

    def coordinate(self, index: int):
        """Value at absolute index ``index``: a float for a 1-d window, the
        values along the leading axes otherwise."""
        value = self.span(index, index)[..., 0]
        return float(value) if value.ndim == 0 else value


@dataclass(frozen=True)
class SampledFunction:
    """A real function known on a strictly increasing finite time grid.

    Times and values must be finite."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if not self.times:
            raise ValueError("SampledFunction requires at least one sample")
        if not np.isfinite(self.times + self.values).all():
            raise ValueError("SampledFunction times and values must be finite")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")


class TrajMetric(NamedTuple):
    """Truncated metric value plus a certified bound on the omitted tail."""

    value: float
    tail_bound: float


def shift_path(p: Window, t: int) -> Window:
    """Translate a window by ``t``: the result at index ``i`` is ``p`` at ``i + t``.

    The result has the type of ``p`` and shares its values, which are not
    checked again; only the offset moves.  Paths, noise windows and particle
    measures (the pushforward under the path translation) shift alike.
    """
    shifted = copy(p)
    object.__setattr__(shifted, "offset", p.offset - operator.index(t))
    return shifted


def _damp(r: np.ndarray) -> np.ndarray:
    # r / (1 + r), monotone and subadditive on [0, inf)
    return r / (1.0 + r)


def traj_metric(f: SampledFunction, g: SampledFunction, big_k: int) -> TrajMetric:
    """Damped sup-distance summed over nested time bands, truncated at ``big_k``.

    Computes ``sum_{k=1..K} 2**-k * d_k/(1+d_k)`` where ``d_k`` is the max of
    ``|f - g|`` over grid points in ``[-k, k]``, and returns it with the tail
    bound ``2**-K`` for the omitted terms (each damped band distance is < 1).

    Both functions must share one grid, the grid must span ``[-K, K]``, and
    every band ``[-k, k]`` must contain at least one grid point.
    """
    if big_k < 1:
        raise ValueError("band count must be a positive integer")
    if f.times != g.times:
        raise CoverageError("sampled functions must share the same time grid")
    times = np.asarray(f.times)
    if times[0] > -big_k or times[-1] < big_k:
        raise CoverageError(
            f"grid [{times[0]}, {times[-1]}] does not span [-{big_k}, {big_k}]"
        )
    diffs = np.abs(np.asarray(f.values) - np.asarray(g.values))
    abs_times = np.abs(times)
    value = 0.0
    for k in range(1, big_k + 1):
        in_band = abs_times <= k
        if not in_band.any():
            raise CoverageError(f"grid has no sample point in [-{k}, {k}]")
        value += 2.0**-k * float(_damp(diffs[in_band].max()))
    return TrajMetric(value=value, tail_bound=2.0**-big_k)
