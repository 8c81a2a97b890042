"""Kolmogorov-Smirnov distances in plain numpy.

Only the D statistics are computed, never a p-value.  Each function returns
the same float as the corresponding ``scipy.stats`` call, bit for bit:

* ``ks_2samp(a, b)`` is ``scipy.stats.ks_2samp(a, b, method="asymp").statistic``,
* ``kstest(x, loc, scale)`` is
  ``scipy.stats.kstest(x, "norm", args=(loc, scale)).statistic``,
* ``ndtr(a)`` is ``scipy.special.ndtr(a)``.

``ndtr`` is a port of the Cephes ``ndtr``/``erf``/``erfc`` routines that scipy
runs (S. L. Moshier, *Methods and Programs for Mathematical Functions*,
1989): the same rational approximations, evaluated by Horner's rule in the
same order.  ``exp(-x*x)`` goes through libm's ``exp`` one element at a time,
because numpy's vectorised ``exp`` may round differently in the last place.
"""

import math

import numpy as np

__all__ = ["ndtr", "ks_2samp", "kstest"]

_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2

# erf(x) = x T(x^2) / U(x^2) for |x| <= 1
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (  # leading coefficient 1 implied
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (  # leading coefficient 1 implied
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
# erfc(x) = exp(-x^2) R(x) / S(x) for x >= 8
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (  # leading coefficient 1 implied
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)

_exp = np.frompyfunc(math.exp, 1, 1)


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x):
    """Cephes ``erf`` for ``|x| <= 1``."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(x):
    """Cephes ``erfc`` for ``x >= 0``; NaN passes through."""
    y = np.zeros_like(x)
    near = x < 1.0
    y[near] = 1.0 - _erf(x[near])
    with np.errstate(over="ignore"):
        under = x * x > _MAXLOG  # exp(-x*x) would underflow: erfc is 0
    mid = ~near & (x < 8.0)
    for part, num, den in ((mid, _P, _Q), (~near & ~mid & ~under, _R, _S)):
        xp = x[part]
        y[part] = _exp(-xp * xp).astype(np.float64) * _polevl(xp, num) / _p1evl(xp, den)
    return y


def ndtr(a):
    """Standard normal CDF, equal to ``scipy.special.ndtr`` bit for bit."""
    x = np.asarray(a, dtype=np.float64) * _SQRT1_2
    z = np.abs(x)
    y = np.empty_like(x)
    small = z < _SQRT1_2
    y[small] = 0.5 + 0.5 * _erf(x[small])
    big = ~small
    half_tail = 0.5 * _erfc(z[big])
    y[big] = np.where(x[big] > 0, 1.0 - half_tail, half_tail)
    return y[()]


def _sorted_sample(x, name):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"KS sample {name} must be a nonempty 1-D array")
    if not np.isfinite(x).all():
        raise ValueError(f"KS sample {name} holds a non-finite value")
    return np.sort(x)


def ks_2samp(a, b) -> float:
    """Two-sample KS distance ``sup |F_a - F_b|`` of the empirical CDFs."""
    a, b = _sorted_sample(a, "a"), _sorted_sample(b, "b")
    pooled = np.concatenate([a, b])
    d = (np.searchsorted(a, pooled, side="right") / a.size
         - np.searchsorted(b, pooled, side="right") / b.size)
    d_plus, d_minus = d.max(), np.clip(-d.min(), 0, 1)
    return float(d_minus if d_minus > d_plus else d_plus)


def kstest(x, loc, scale) -> float:
    """One-sample KS distance of ``x`` to the normal law ``N(loc, scale^2)``."""
    if not math.isfinite(loc):
        raise ValueError(f"loc must be finite, got {loc}")
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    x = _sorted_sample(x, "x")
    n = x.size
    cdf = ndtr((x - loc) / scale)
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    return float(d_plus if d_plus > d_minus else d_minus)
