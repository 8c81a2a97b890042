"""Deterministic seed derivation and counter-based random streams.

Every random quantity in this package is addressed by a 64-bit seed plus an
integer counter and is produced by the splitmix64 mixing function.  Because a
value depends only on ``(seed, counter)``, any particle, replica, or noise
coordinate can be generated in isolation, in any order, on any number of
workers, with bit-identical results.

Splitting rule
--------------
* ``substream(master, tag)`` derives a named child seed:
  ``mix64(master XOR fnv1a64(tag))``.  Tags are short ASCII labels such as
  ``"noise"`` or ``"init"``.
* ``draw_u64(seed, counter)`` is element ``counter`` of the splitmix64
  sequence seeded at ``seed``: ``mix64(seed + (counter + 1) * GOLDEN)`` with
  all arithmetic modulo 2**64.  Counters may be negative (they wrap, which
  lets noise values be addressed by absolute sequence index);
  :func:`counter_range` builds a range of absolute indices as uint64
  counters with the same wrap, wherever in the 64-bit space it lies.
* Per-replica child seeds are ``draw_u64(stream_seed, replica_index)``.

When the seed and the counter are both scalars (Python or numpy integers, or
0-d arrays), the arithmetic runs on Python ints masked to 64 bits and the
result is a numpy scalar (``np.uint64`` from :func:`mix64` and
:func:`draw_u64`); it equals the array path bit for bit.

The generator is splitmix64 (64-bit state, passes the usual statistical
batteries); reports record it under the name :data:`PRNG_NAME`.
"""

import numpy as np

__all__ = [
    "PRNG_NAME",
    "GOLDEN",
    "fnv1a64",
    "mix64",
    "counter_range",
    "substream",
    "draw_u64",
    "draw_unit",
    "draw_normal",
]

PRNG_NAME = "splitmix64"

#: Additive constant of the splitmix64 sequence (2**64 / golden ratio).
GOLDEN = 0x9E3779B97F4A7C15

_U64_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN_U = np.uint64(GOLDEN)
_INV_2_53 = float(2.0**-53)


def _as_u64(x):
    """An integer scalar or 0-d array as a Python int modulo 2**64; an
    integer array as a new uint64 array (negative values wrap), which the
    caller may overwrite.  Float, bool and object arrays are refused."""
    if isinstance(x, (int, np.integer)):
        return int(x) & _U64_MASK
    a = np.asarray(x)
    if a.dtype.kind not in "iu":
        raise TypeError(f"seeds and counters must be integers, got dtype {a.dtype}")
    return int(a) & _U64_MASK if a.ndim == 0 else a.astype(np.uint64)


def counter_range(first: int, length: int) -> np.ndarray:
    """The counters ``first .. first + length - 1`` modulo 2**64, as uint64;
    a range of absolute indices may lie anywhere and cross 2**63 or 0."""
    return np.arange(length, dtype=np.uint64) + np.uint64(int(first) & _U64_MASK)


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a hash of ``text`` (UTF-8), used to turn tags into salts."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _U64_MASK
    return h


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E9B5) & _U64_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64_MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    # in place, with one shifted temporary live; the caller passes a fresh
    # array.  uint64 array arithmetic wraps silently; only scalar ops warn
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E9B5)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def mix64(z):
    """splitmix64 finalizer: a bijective avalanche mix on uint64 values."""
    z = _as_u64(z)  # an array is a copy, so the caller's is never mixed
    return np.uint64(_mix(z)) if isinstance(z, int) else _mix_array(z)


def substream(master, tag: str):
    """Derive the named child seed ``mix64(master XOR fnv1a64(tag))``; elementwise on arrays."""
    return _mix(_as_u64(master) ^ fnv1a64(tag))


def _draw(seed, counters):
    """:func:`draw_u64` as a Python int when both arguments are scalars,
    else as a fresh uint64 array, computed in place in the converted copy.
    A scalar counter's step ``(counter + 1) * GOLDEN`` is taken in Python
    ints either way, so no numpy scalar op (the only kind that warns on
    overflow) is ever evaluated."""
    s, c = _as_u64(seed), _as_u64(counters)
    if isinstance(c, int):
        step = ((c + 1) * GOLDEN) & _U64_MASK
        if isinstance(s, int):
            return _mix((s + step) & _U64_MASK)
        s += np.uint64(step)
        return _mix_array(s)
    c += np.uint64(1)
    c *= _GOLDEN_U
    if isinstance(s, int):
        c += np.uint64(s)
    else:
        c = c + s  # seeds and counters broadcast against each other
    return _mix_array(c)


def draw_u64(seed, counters):
    """Element(s) of the splitmix64 sequence seeded at ``seed``.

    ``seed`` and ``counters`` may each be a scalar or an integer array; they
    broadcast against each other.  Returns uint64 with the broadcast shape:
    ``np.uint64`` when both are scalars.
    """
    bits = _draw(seed, counters)
    return np.uint64(bits) if isinstance(bits, int) else bits


def draw_unit(seed, counters):
    """Uniform float64 draws in [0, 1): the top 53 bits of :func:`draw_u64`."""
    bits = _draw(seed, counters)
    if isinstance(bits, int):
        return np.float64((bits >> 11) * _INV_2_53)
    bits >>= np.uint64(11)
    return bits * _INV_2_53


_NORMAL_R_SALT = fnv1a64("normal-radius")
_NORMAL_T_SALT = fnv1a64("normal-angle")


def draw_normal(seed, counters):
    """Standard normal draws via Box-Muller on two internal substreams.

    One normal per counter; the sine partner is discarded so that values are
    pure functions of ``(seed, counter)``.  The transform
    ``sqrt(-2 log u1) * cos(2 pi u2)`` runs in place in ``u1`` and ``u2``
    (scalars as 0-d arrays), so an array draw holds three draw-sized arrays
    at its peak: ``u1``, ``u2`` and the temporary of drawing ``u2``.  It
    returns ``u1`` itself, which the caller owns, or an ``np.float64``.
    """
    s = _as_u64(seed)
    mix = _mix if isinstance(s, int) else _mix_array
    u1 = np.asarray(draw_unit(mix(s ^ _NORMAL_R_SALT), counters))
    u1 += _INV_2_53  # (k + 1) * 2**-53 exactly: in (0, 1], a safe log argument
    u2 = np.asarray(draw_unit(mix(s ^ _NORMAL_T_SALT), counters))
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1 if u1.ndim else u1[()]
