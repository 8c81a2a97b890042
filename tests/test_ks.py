"""The numpy KS distances against scipy as the independent oracle.

Every comparison is exact: a one-ulp drift in the port fails these tests.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats as sps

from stochrec import _ks

samples = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=300
)
# rounding to few decimals makes heavy ties between and within the samples
decimals = st.integers(-1, 3)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


class TestNdtr:
    def test_branch_edges_and_tails(self):
        # the erf/erfc switch at |a| = 1, the P/Q-R/S switch at sqrt(2) and
        # 8 sqrt(2) (|a/sqrt(2)| = 1 and 8), and the underflow to 0 near -37.68
        under = math.sqrt(_ks._MAXLOG) / _ks._SQRT1_2
        centres = [0.0, 1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), under, 38.0]
        parts = [np.array([0.0, -0.0, 1e10, -1e10, 5e-324, -5e-324, -40.0, 40.0])]
        for c in centres:
            for s in (1.0, -1.0):
                centre = s * c
                step = np.spacing(max(abs(centre), 1e-300))
                parts.append(centre + np.arange(-3000, 3001) * step)
                parts.append(centre + np.linspace(-1e-3, 1e-3, 4001))
        parts.append(np.linspace(-39.0, 39.0, 200001))
        a = np.concatenate(parts)
        assert np.array_equal(bits(_ks.ndtr(a)), bits(special.ndtr(a)))

    def test_random_normals(self):
        a = np.random.default_rng(20260918).standard_normal(100_000)
        a[50_000:] *= 8.0  # reach the far tails too
        assert np.array_equal(bits(_ks.ndtr(a)), bits(special.ndtr(a)))

    def test_scalar_in_scalar_out(self):
        assert np.ndim(_ks.ndtr(0.25)) == 0
        assert _ks.ndtr(0.25) == special.ndtr(0.25)
        assert math.isnan(_ks.ndtr(math.nan))
        assert _ks.ndtr(math.inf) == 1.0 and _ks.ndtr(-math.inf) == 0.0


class TestTwoSample:
    # the oracle also computes a p-value, which divides by zero for tiny samples
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(samples, samples, decimals)
    def test_matches_scipy(self, a, b, places):
        a, b = np.round(a, places), np.round(b, places)
        want = sps.ks_2samp(a, b, method="asymp").statistic
        got = _ks.ks_2samp(a, b)
        assert isinstance(got, float)
        assert bits(got) == bits(want)

    def test_size_one_and_identical(self):
        assert _ks.ks_2samp([0.5], [0.5]) == 0.0
        assert _ks.ks_2samp([0.0], [1.0]) == 1.0
        x = np.arange(10.0)
        assert _ks.ks_2samp(x, x[::-1]) == 0.0

    @pytest.mark.parametrize("a, b", [([], [1.0]), ([1.0], [])])
    def test_empty_sample_refused(self, a, b):
        with pytest.raises(ValueError, match="nonempty"):
            _ks.ks_2samp(a, b)

    def test_non_finite_sample_refused(self):
        with pytest.raises(ValueError, match="non-finite"):
            _ks.ks_2samp([0.0, math.nan], [1.0])


class TestOneSampleNormal:
    @settings(max_examples=300, deadline=None)
    @given(samples, decimals, st.floats(-50, 50), st.floats(1e-3, 1e3))
    def test_matches_scipy(self, x, places, loc, scale):
        # sample on the law's scale, so the statistic is not always 1
        x = np.round(loc + scale * np.asarray(x) / 1e5, places)
        want = sps.kstest(x, "norm", args=(loc, scale)).statistic
        got = _ks.kstest(x, loc, scale)
        assert isinstance(got, float)
        assert bits(got) == bits(want)

    def test_gaussian_draws_match_scipy(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 17, 1000, 20000):
            loc, scale = rng.uniform(-3, 3), rng.uniform(0.05, 4)
            x = loc + scale * rng.standard_normal(n)
            want = sps.kstest(x, "norm", args=(loc, scale)).statistic
            assert bits(_ks.kstest(x, loc, scale)) == bits(want)

    def test_empty_sample_refused(self):
        with pytest.raises(ValueError, match="nonempty"):
            _ks.kstest([], 0.0, 1.0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
    def test_bad_scale_refused(self, scale):
        with pytest.raises(ValueError, match="scale"):
            _ks.kstest([0.1, 0.2], 0.0, scale)

    @pytest.mark.parametrize("loc", [math.inf, math.nan])
    def test_non_finite_loc_refused(self, loc):
        with pytest.raises(ValueError, match="loc"):
            _ks.kstest([0.1, 0.2], loc, 1.0)


def test_cli_import_loads_no_scipy():
    # scipy.stats alone costs most of a second of every cold CLI start; and
    # the only threads are plain threading.Thread parts of a large Hopf
    # probe (threading comes with numpy), so no thread pool is imported
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import stochrec, stochrec.cli, sys; "
        "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules); "
        "assert 'concurrent.futures' not in sys.modules"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
