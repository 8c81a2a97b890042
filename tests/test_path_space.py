import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stochrec.errors import CoverageError
from stochrec.path_space import (
    SampledFunction,
    Window,
    shift_path,
    traj_metric,
)
from stochrec.random_measure import ParticleMeasure


def grid_function(values_fn, lo=-25, hi=25):
    times = tuple(float(t) for t in range(lo, hi + 1))
    return SampledFunction(times=times, values=tuple(values_fn(t) for t in times))


class TestWindows:
    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            Window(offset=0, values=())
        with pytest.raises(ValueError):
            Window(offset=0, values=np.empty(0))

    @pytest.mark.parametrize("offset", [1.7, 1.0, np.float64(3.0)])
    def test_non_integer_offset_refused(self, offset):
        # int() would put Window(1.7, ...) at offset 1
        with pytest.raises(TypeError):
            Window(offset=offset, values=(1.0,))

    def test_integer_offset_becomes_a_python_int(self):
        w = Window(offset=np.uint64(2**63 + 5), values=(1.0,))
        assert type(w.offset) is int and w.offset == 2**63 + 5

    def test_absolute_indexing(self):
        p = Window(offset=-2, values=(10.0, 11.0, 12.0))
        assert p.coordinate(-2) == 10.0
        assert p.coordinate(0) == 12.0
        assert p.offset == -2 and p.last_index == 0
        with pytest.raises(CoverageError):
            p.coordinate(1)

    def test_sampled_function_validation(self):
        with pytest.raises(ValueError):
            SampledFunction(times=(0.0, 0.0), values=(1.0, 2.0))
        with pytest.raises(ValueError):
            SampledFunction(times=(0.0, 1.0), values=(1.0,))

    @pytest.mark.parametrize("field", ["times", "values"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_sampled_function_non_finite_refused(self, field, bad):
        # traj_metric read nan for a nan or inf value, and +-inf grid
        # endpoints counted as spanning every band
        sample = {"times": (0.0, 1.0), "values": (0.5, 0.5)}
        sample[field] = (sample[field][0], bad)
        with pytest.raises(ValueError, match="finite"):
            SampledFunction(**sample)


class TestWindowArray:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Window(offset=0, values=(0.5, bad))

    def test_read_only_and_caller_array_not_captured(self):
        raw = np.array([0.1, 0.2, 0.3])
        w = Window(offset=4, values=raw)
        raw[0] = 9.0
        assert w.values.tolist() == [0.1, 0.2, 0.3]
        with pytest.raises(ValueError):
            w.values[0] = 5.0
        with pytest.raises(AttributeError):
            w.offset = 1

    def test_read_only_array_shared(self):
        raw = np.array([0.1, 0.2])
        raw.setflags(write=False)
        assert Window(offset=0, values=raw).values is raw

    @pytest.mark.parametrize("kind", [Window, ParticleMeasure])
    def test_read_only_view_of_writable_base_copied(self, kind):
        # the view cannot be written, but its base can: sharing it would let
        # the caller put inf into the window after the finiteness check
        a = np.zeros((2, 4))
        v = a.view()
        v.setflags(write=False)
        w = kind(0, v)
        a[0, 1] = np.inf
        assert not np.shares_memory(w.values, a)
        assert np.isfinite(w.values).all()

    @pytest.mark.parametrize("kind", [Window, ParticleMeasure])
    def test_read_only_view_of_read_only_base_shared(self, kind):
        base = np.arange(24.0)
        base.setflags(write=False)
        view = base.reshape(3, 2, 4)[1]
        assert kind(0, view).values is view

    def test_equality_is_offset_and_exact_values(self):
        w = Window(offset=1, values=(0.25, 0.5))
        assert w == Window(offset=1, values=np.array([0.25, 0.5]))
        assert w != Window(offset=0, values=(0.25, 0.5))
        assert w != Window(offset=1, values=(0.25, np.nextafter(0.5, 1.0)))
        assert w != Window(offset=1, values=(0.25, 0.5, 0.75))
        assert w != Window(offset=1, values=[[0.25, 0.5]])
        assert w != (0.25, 0.5)

    @pytest.mark.parametrize("kind", [Window, ParticleMeasure])
    def test_equality_is_shape_and_bit_patterns(self, kind):
        # -0.0 is not +0.0, and a reshaped matrix is not the same window
        assert kind(0, [[0.0, 1.0]]) != kind(0, [[-0.0, 1.0]])
        assert kind(0, [[0.25, 0.5]]) != kind(0, [[0.25], [0.5]])
        # the memory order is not part of it
        rows = np.array([[0.1, -0.0, 0.3], [0.4, 0.5, 0.0]])
        c_order = rows.copy(order="C")
        c_order.setflags(write=False)
        shared, copied = kind(2, c_order), kind(2, rows)
        assert shared.values.flags.c_contiguous and copied.values.flags.f_contiguous
        assert shared == copied

    @given(
        st.integers(-50, 50),
        st.integers(-10, 10),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
    )
    def test_round_trips(self, t, offset, values):
        p = Window(offset=offset, values=values)
        # shifting there and back is the identity, and never copies values
        back = shift_path(shift_path(p, t), -t)
        assert back == p and back.values is p.values
        assert shift_path(p, t).coordinate(offset - t) == p.coordinate(offset)
        # values survive a trip through Python floats bit for bit
        again = Window(offset=p.offset, values=p.values.tolist())
        assert again == p
        assert again.values.tobytes() == np.asarray(values, dtype=np.float64).tobytes()


class TestSpan:
    def test_view_by_absolute_index(self):
        w = Window(offset=-2, values=(10.0, 11.0, 12.0, 13.0))
        block = w.span(-1, 0)
        assert block.tolist() == [11.0, 12.0]
        assert np.shares_memory(block, w.values) and not block.flags.writeable
        assert w.span(-2, 1).tolist() == w.values.tolist()

    @pytest.mark.parametrize("first, last", [(-3, 0), (0, 2), (1, 0), (2, 2), (-3, -3)])
    def test_outside_or_reversed_raises(self, first, last):
        w = Window(offset=-2, values=(10.0, 11.0, 12.0, 13.0))
        with pytest.raises(CoverageError):
            w.span(first, last)

    def test_last_axis_is_the_index(self):
        # leading axes ride along: a matrix is one path per row
        rows = np.arange(12.0).reshape(3, 4)
        w = Window(offset=5, values=rows)
        assert len(w) == 4 and w.offset == 5 and w.last_index == 8
        assert np.array_equal(w.span(6, 7), rows[:, 1:3])
        assert np.array_equal(w.coordinate(8), rows[:, 3])
        assert np.array_equal(shift_path(w, 2).span(4, 4), w.span(6, 6))

    def test_writable_input_copied_column_major(self):
        w = Window(offset=0, values=np.ones((3, 4)))
        assert w.values.flags.f_contiguous


class TestShift:
    def test_identity(self):
        p = Window(offset=3, values=(1.0, 2.0))
        assert shift_path(p, 0) == p

    def test_index_arithmetic(self):
        p = Window(offset=0, values=(1.0, 2.0, 3.0))
        q = shift_path(p, 1)
        assert q.offset == -1
        assert q.values.tolist() == [1.0, 2.0, 3.0]
        assert q.coordinate(0) == 2.0

    @given(
        st.integers(-50, 50),
        st.integers(-50, 50),
        st.integers(-10, 10),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
    )
    def test_composition(self, a, b, offset, values):
        p = Window(offset=offset, values=tuple(values))
        assert shift_path(shift_path(p, a), b) == shift_path(p, a + b)

    def test_noise_shift_same_convention(self):
        n = Window(offset=1, values=(0.5, 0.25))
        m = shift_path(n, 2)
        assert m.offset == -1 and np.array_equal(m.values, n.values)

    @pytest.mark.parametrize("kind", [Window, ParticleMeasure])
    def test_no_revalidation(self, kind):
        # the source was checked when it was built: shifting a 20,000 x 16
        # matrix allocates no finiteness mask (2.5 MB values, 320 kB mask)
        values = np.random.default_rng(0).random((20_000, 16))
        values.setflags(write=False)
        p = kind(offset=0, values=values)
        tracemalloc.start()
        try:
            q = shift_path(p, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q.values is p.values and q.offset == -3 and type(q) is kind
        assert peak < 4096

    def test_offset_is_a_python_int(self):
        q = shift_path(Window(offset=2, values=(1.0,)), np.int64(5))
        assert type(q.offset) is int and q.offset == -3

    @pytest.mark.parametrize("t", [0.5, 1.0, np.float64(2.0)])
    def test_non_integer_shift_refused(self, t):
        # int() would truncate 0.5 to 0 and return the window unshifted
        with pytest.raises(TypeError):
            shift_path(Window(offset=2, values=(1.0,)), t)


class TestTrajMetric:
    def test_equal_functions(self):
        f = grid_function(lambda t: math.sin(t))
        assert traj_metric(f, f, 20).value == 0.0

    def test_unit_separation_closed_form(self):
        # each band has damped distance 1/2, so the sum telescopes to
        # (1/2) * (1 - 2**-K)
        f = grid_function(lambda t: 0.0)
        g = grid_function(lambda t: 1.0)
        value, tail = traj_metric(f, g, 20)
        assert value == pytest.approx(0.5 * (1.0 - 2.0**-20), abs=1e-12)
        assert tail == 2.0**-20

    def test_linear_function_oracle(self):
        # independent oracle: the band max of |t| over [-k, k] is exactly k,
        # so the value is the direct sum of 2**-k * k/(1+k)
        expected = sum(2.0**-k * (k / (1.0 + k)) for k in range(1, 11))
        f = grid_function(lambda t: t)
        g = grid_function(lambda t: 0.0)
        value, tail = traj_metric(f, g, 10)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value + tail < 1.0

    def test_grid_mismatch(self):
        f = grid_function(lambda t: 0.0)
        g = SampledFunction(times=(-25.0, 25.0), values=(0.0, 0.0))
        with pytest.raises(CoverageError):
            traj_metric(f, g, 5)

    def test_grid_not_covering(self):
        f = grid_function(lambda t: 0.0, lo=-3, hi=3)
        with pytest.raises(CoverageError):
            traj_metric(f, f, 5)

    def test_sparse_grid_missing_band(self):
        f = SampledFunction(times=(-10.0, 10.0), values=(0.0, 0.0))
        with pytest.raises(CoverageError):
            traj_metric(f, f, 10)

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(1234)
        times = tuple(float(t) for t in range(-12, 13))
        for _ in range(300):
            fv, gv, hv = rng.normal(size=(3, len(times))) * 3.0
            f = SampledFunction(times=times, values=tuple(fv))
            g = SampledFunction(times=times, values=tuple(gv))
            h = SampledFunction(times=times, values=tuple(hv))
            dfg = traj_metric(f, g, 10).value
            dgf = traj_metric(g, f, 10).value
            dgh = traj_metric(g, h, 10).value
            dfh = traj_metric(f, h, 10).value
            assert dfg == dgf
            assert dfg >= 0.0
            assert dfh <= dfg + dgh + 1e-12
            assert dfg + traj_metric(f, g, 10).tail_bound < 1.0

    def test_zero_iff_equal_on_grid(self):
        f = grid_function(lambda t: 0.0, lo=-5, hi=5)
        g = grid_function(lambda t: 0.0 if t != 3 else 1e-9, lo=-5, hi=5)
        assert traj_metric(f, g, 5).value > 0.0
