import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from waterfallpose import tensor as T
from waterfallpose.checks import conv2d_naive


class TestConv2d:
    def test_identity_1x1_kernel(self, rng):
        x = rng.standard_normal((2, 3, 5, 4)).astype(np.float32)
        w = np.zeros((3, 3, 1, 1), dtype=np.float32)
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        y = T.conv2d(x, w, np.zeros(3, dtype=np.float32), T.ConvSpec())
        np.testing.assert_array_equal(y, x)

    def test_all_ones_3x3_on_ones(self):
        x = np.ones((1, 1, 5, 5), dtype=np.float32)
        w = np.ones((1, 1, 3, 3), dtype=np.float32)
        y = T.conv2d(x, w, np.zeros(1, dtype=np.float32), T.ConvSpec())
        assert y.shape == (1, 1, 5, 5)
        assert y[0, 0, 2, 2] == 9.0
        for r, c in ((0, 0), (0, 4), (4, 0), (4, 4)):
            assert y[0, 0, r, c] == 4.0

    def test_dilated_matches_naive(self, rng):
        x = rng.standard_normal((1, 3, 9, 9)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(2).astype(np.float32)
        spec = T.ConvSpec(dilation=6)
        y = T.conv2d(x, w, b, spec)
        ref = conv2d_naive(x, w, b, spec)
        assert T.relative_error(y, ref) <= 1e-5

    @pytest.mark.parametrize("dilation", [1, 2, 6, 12, 18])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_randomized_against_naive(self, rng, dilation, stride):
        for _ in range(4):
            n = int(rng.integers(1, 3))
            cin = int(rng.integers(1, 5))
            cout = int(rng.integers(1, 5))
            h = int(rng.integers(1, 10))
            wd = int(rng.integers(1, 10))
            k = 2 * int(rng.integers(0, 3)) + 1
            spec = T.ConvSpec(stride=stride, dilation=dilation)
            x = rng.standard_normal((n, cin, h, wd)).astype(np.float32)
            w = rng.standard_normal((cout, cin, k, k)).astype(np.float32)
            b = rng.standard_normal(cout).astype(np.float32)
            y = T.conv2d(x, w, b, spec)
            assert T.relative_error(y, conv2d_naive(x, w, b, spec)) <= 1e-5
            assert np.all(np.isfinite(y))

    def test_linearity(self, rng):
        spec = T.ConvSpec(dilation=2)
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        y = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        b0 = np.zeros(3, dtype=np.float32)
        a, bet = np.float32(0.7), np.float32(-1.3)
        lhs = T.conv2d(a * x + bet * y, w, b0, spec)
        rhs = a * T.conv2d(x, w, b0, spec) + bet * T.conv2d(y, w, b0, spec)
        assert T.relative_error(lhs, rhs) <= 1e-5

    def test_dilation_extent_by_probing(self):
        # one-hot probes: the center output of a d=6 3x3 kernel must respond to
        # exactly the 9 taps of a 13x13 footprint and nothing else
        size = 25
        center = size // 2
        w = np.ones((1, 1, 3, 3), dtype=np.float64)
        spec = T.ConvSpec(dilation=6)
        hits = []
        for r in range(size):
            for c in range(size):
                x = np.zeros((1, 1, size, size))
                x[0, 0, r, c] = 1.0
                y = T.conv2d(x, w, np.zeros(1), spec)
                if y[0, 0, center, center] != 0.0:
                    hits.append((r, c))
        rows = [r for r, _ in hits]
        cols = [c for _, c in hits]
        assert len(hits) == 9
        assert max(rows) - min(rows) == 12 and max(cols) - min(cols) == 12
        assert set(rows) == {center - 6, center, center + 6}

    def test_shape_errors(self, rng):
        x = rng.standard_normal((1, 3, 5, 5)).astype(np.float32)
        w = rng.standard_normal((2, 4, 3, 3)).astype(np.float32)
        with pytest.raises(T.ShapeError, match="channel mismatch"):
            T.conv2d(x, w, np.zeros(2, dtype=np.float32), T.ConvSpec())
        with pytest.raises(T.ShapeError):
            T.ConvSpec(dilation=0)

    @pytest.mark.parametrize("kh, kw", [(2, 2), (4, 4), (1, 3), (3, 1), (3, 5)])
    def test_even_or_non_square_kernel_is_rejected(self, rng, kh, kw):
        # "same" padding centres the kernel, so its one extent k must be odd
        x = rng.standard_normal((1, 2, 5, 5))
        weights = {"a.w": rng.standard_normal((3, 2, kh, kw)), "a.b": np.zeros(3)}
        with pytest.raises(T.ShapeError, match=f"odd square kernel, got {kh}x{kw}"):
            T.conv2d(x, weights["a.w"], weights["a.b"], T.ConvSpec())
        for tape in (T.Tape(), T.ForwardTape()):
            with pytest.raises(T.ShapeError, match="odd square kernel"):
                tape.conv(x, weights, "a")

    def test_backward_matches_numeric(self, rng):
        spec = T.ConvSpec(stride=2, dilation=2)
        x = rng.standard_normal((2, 2, 7, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        gy = rng.standard_normal(T.conv2d(x, w, b, spec).shape)
        gx, gw, gb = T.conv2d_backward(x, w, spec, gy)
        num_gx = T.numeric_gradient(lambda v: float((T.conv2d(v, w, b, spec) * gy).sum()), x)
        num_gw = T.numeric_gradient(lambda v: float((T.conv2d(x, v, b, spec) * gy).sum()), w)
        assert T.relative_error(gx, num_gx) <= 1e-6
        assert T.relative_error(gw, num_gw) <= 1e-6
        fb = lambda v: float((T.conv2d(x, w, v.reshape(-1), spec) * gy).sum())
        num_gb = T.numeric_gradient(fb, b.reshape(1, 1, 1, 3)).reshape(-1)
        assert T.relative_error(gb, num_gb) <= 1e-6


class TestGlobalAvgPool:
    def test_constant(self):
        x = np.full((2, 3, 4, 5), 1.75, dtype=np.float32)
        np.testing.assert_allclose(T.global_avg_pool(x), 1.75)

    def test_hand_mean(self):
        x = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32).reshape(1, 1, 2, 2)
        assert T.global_avg_pool(x)[0, 0, 0, 0] == 2.5

    def test_degenerate_identity(self, rng):
        x = rng.standard_normal((2, 4, 1, 1)).astype(np.float32)
        np.testing.assert_array_equal(T.global_avg_pool(x), x)

    def test_spatial_permutation_invariance(self, rng):
        x = rng.standard_normal((1, 2, 3, 4))
        perm = rng.permutation(12)
        xs = x.reshape(1, 2, 12)[:, :, perm].reshape(1, 2, 3, 4)
        np.testing.assert_allclose(T.global_avg_pool(x), T.global_avg_pool(xs), rtol=1e-12)

    def test_backward(self, rng):
        x = rng.standard_normal((1, 2, 3, 3))
        gy = rng.standard_normal((1, 2, 1, 1))
        gx = T.global_avg_pool_backward(x.shape, gy)
        num = T.numeric_gradient(lambda v: float((T.global_avg_pool(v) * gy).sum()), x)
        assert T.relative_error(gx, num) <= 1e-6


def _resize(x, out_h, out_w):
    # the two-matmul resize Rh x Rw^T that pyramid_branch and the layered
    # oracles build from resize_matrix
    rh = T.resize_matrix(x.shape[2], out_h, 0, x.dtype)
    rw = T.resize_matrix(x.shape[3], out_w, 0, x.dtype)
    return rh @ x @ rw.T


class TestBilinearResize:
    def test_same_size_is_bitwise_identity(self, rng):
        x = rng.standard_normal((1, 2, 5, 7)).astype(np.float32)
        y = _resize(x, 5, 7)
        assert np.array_equal(y, x)

    def test_constant_preserved(self):
        x = np.full((1, 1, 3, 3), 0.625, dtype=np.float32)
        y = _resize(x, 8, 5)
        np.testing.assert_allclose(y, 0.625, rtol=1e-6)

    def test_ramp_monotone_and_bounded(self):
        ramp = np.linspace(0.0, 1.0, 8, dtype=np.float32).reshape(1, 1, 1, 8)
        x = np.broadcast_to(ramp, (1, 1, 4, 8)).copy()
        y = _resize(x, 4, 16)
        assert y.min() >= 0.0 and y.max() <= 1.0
        diffs = np.diff(y[0, 0, 0])
        assert np.all(diffs >= 0)

    def test_broadcast_from_1x1(self, rng):
        # from one pixel the resize is an exact broadcast: the identity that
        # lets stage 3 take the pooled branch as a per-image bias
        for dtype in (np.dtype(np.float32), np.dtype(np.float64)):
            for n in (1, 2, 7, 64):
                np.testing.assert_array_equal(T.resize_matrix(1, n, 0, dtype),
                                              np.ones((n, 1), dtype=dtype))
            x = rng.standard_normal((2, 3, 1, 1)).astype(dtype)
            np.testing.assert_array_equal(_resize(x, 6, 9), np.broadcast_to(x, (2, 3, 6, 9)))

    @staticmethod
    def _naive_resize(x, out_h, out_w):
        """Per-pixel float64 oracle: align-corners-false source coordinate,
        clamped to the edge, then a two-tap lerp along each axis."""
        def taps(in_size, out_size, o):
            src = min(max((o + 0.5) * in_size / out_size - 0.5, 0.0), in_size - 1.0)
            lo = int(np.floor(src))
            return lo, min(lo + 1, in_size - 1), src - lo

        n, c, h, w = x.shape
        x = x.astype(np.float64)
        y = np.zeros((n, c, out_h, out_w))
        for i in range(out_h):
            r0, r1, fr = taps(h, out_h, i)
            for j in range(out_w):
                c0, c1, fc = taps(w, out_w, j)
                top = x[:, :, r0, c0] * (1 - fc) + x[:, :, r0, c1] * fc
                bot = x[:, :, r1, c0] * (1 - fc) + x[:, :, r1, c1] * fc
                y[:, :, i, j] = top * (1 - fr) + bot * fr
        return y

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_pixel_oracle(self, rng, dtype):
        # up, down, mixed, 1-pixel and non-square maps, 25 shapes per dtype
        shapes = [(1, 1, 1, 1, 4, 6), (1, 2, 1, 5, 3, 2), (2, 1, 4, 1, 7, 1),
                  (1, 3, 8, 8, 1, 1), (1, 2, 2, 3, 16, 16), (1, 2, 16, 16, 2, 3)]
        while len(shapes) < 25:
            n, c = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            h, w, oh, ow = (int(v) for v in rng.integers(1, 13, size=4))
            shapes.append((n, c, h, w, oh, ow))
        for n, c, h, w, oh, ow in shapes:
            x = rng.standard_normal((n, c, h, w)).astype(dtype)
            y = _resize(x, oh, ow)
            assert y.shape == (n, c, oh, ow) and y.dtype == dtype
            assert T.relative_error(y, self._naive_resize(x, oh, ow)) <= 1e-6


def _sample_points(x, pts):
    """bilinear_sample of every sample of x at the same (P, 2) (row, col)
    points: (values (N, C, P), cache)."""
    n, p = x.shape[0], len(pts)
    return T.bilinear_sample(x, np.broadcast_to(pts[:, 0], (n, p)),
                             np.broadcast_to(pts[:, 1], (n, p)))


def _points_gradient(cache, gy):
    """(gx, gradient w.r.t. the shared (P, 2) points) from _sample_points' cache."""
    gx, grows, gcols = T.bilinear_sample_backward(cache, gy)
    return gx, np.stack([grows.sum(axis=0), gcols.sum(axis=0)], axis=1)


class TestBilinearSample:
    def test_lattice_points_exact(self, rng):
        x = rng.standard_normal((1, 2, 4, 5)).astype(np.float32)
        pts = np.array([[0, 0], [3, 4], [2, 1]], dtype=np.float64)
        v, _ = _sample_points(x, pts)
        for p, (r, c) in enumerate(pts.astype(int)):
            np.testing.assert_array_equal(v[0, :, p], x[0, :, r, c])

    def test_midpoint(self):
        x = np.zeros((1, 1, 1, 2), dtype=np.float32)
        x[0, 0, 0, 0] = 2.0
        x[0, 0, 0, 1] = 6.0
        v, _ = _sample_points(x, np.array([[0.0, 0.5]]))
        assert v[0, 0, 0] == 4.0

    def test_outside_reads_zero(self, rng):
        x = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
        v, _ = _sample_points(x, np.array([[-5.0, -5.0], [10.0, 1.0]]))
        np.testing.assert_array_equal(v[0, 0], [0.0, 0.0])

    def test_far_points_read_zero_without_warnings(self, rng):
        # a coordinate past the intp range must not reach the integer cast
        x = rng.standard_normal((2, 3, 4, 5))
        pts = np.array([[1e300, 0.0], [-1e300, 2.5], [1.5, 1e300], [-1e300, -1e300]])
        gy = rng.standard_normal((2, 3, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, cache = _sample_points(x, pts)
            gx, gpts = _points_gradient(cache, gy)
        assert not v.any() and not gx.any() and not gpts.any()
        assert v.shape == (2, 3, 4) and gx.shape == x.shape and gpts.shape == pts.shape

    def test_backward(self, rng):
        x = rng.standard_normal((2, 2, 4, 4))
        pts = rng.uniform(0.2, 2.8, size=(5, 2))
        gy = rng.standard_normal((2, 2, 5))
        gx, gpts = _points_gradient(_sample_points(x, pts)[1], gy)
        num_gx = T.numeric_gradient(lambda v: float((_sample_points(v, pts)[0] * gy).sum()), x)
        assert T.relative_error(gx, num_gx) <= 1e-6
        fpts = lambda v: float((_sample_points(x, v.reshape(5, 2))[0] * gy).sum())
        num_gpts = T.numeric_gradient(fpts, pts.reshape(1, 1, 5, 2)).reshape(5, 2)
        assert T.relative_error(gpts, num_gpts) <= 1e-6


# ---------------------------------------------------------------------------
# the plane sampler against per-corner loops

CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _coordinate(size):
    """A sample coordinate along an axis of the given size: on an integer
    (the edge pixels and the first ones past them included), on a
    half-integer, far outside the map, or strictly inside a cell."""
    return st.one_of(
        st.integers(-1, size).map(float),
        st.integers(-1, size - 1).map(lambda i: i + 0.5),
        st.sampled_from([-1e4, -40.5, size + 40.25, 1e4]),
        st.tuples(st.integers(-1, size - 1), st.floats(0.1, 0.9)).map(sum))


@st.composite
def sample_cases(draw):
    """x (N, C, H, W) and (rows, cols) of shape (N, T, 1, P)."""
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    shape = (n, draw(st.integers(1, 3)), 1, draw(st.integers(1, 4)))
    size = int(np.prod(shape))
    rows = draw(st.lists(_coordinate(h), min_size=size, max_size=size))
    cols = draw(st.lists(_coordinate(w), min_size=size, max_size=size))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.standard_normal((n, c, h, w)).astype(dtype)
    x[rng.random(x.shape) < 0.3] = -0.0     # so some sums are of -0.0 terms only
    gy = rng.standard_normal((n, c) + shape[1:]).astype(dtype)
    return x, np.array(rows).reshape(shape), np.array(cols).reshape(shape), gy


def _corner_terms(x, rows, cols):
    """(sample index, {corner number: (row, col, weight)} over the in-bounds
    corners, in corner order) for every sample point, weights in x's dtype."""
    h, w = x.shape[2:]
    one = x.dtype.type(1)
    for i in np.ndindex(rows.shape):
        r0, c0 = math.floor(rows[i]), math.floor(cols[i])
        fr, fc = x.dtype.type(rows[i] - r0), x.dtype.type(cols[i] - c0)
        weights = ((one - fr) * (one - fc), (one - fr) * fc, fr * (one - fc), fr * fc)
        yield i, {k: (r0 + dr, c0 + dc, wk)
                  for k, ((dr, dc), wk) in enumerate(zip(CORNERS, weights))
                  if 0 <= r0 + dr < h and 0 <= c0 + dc < w}


def _sample_reference(x, rows, cols):
    """0 + v00*w00 + v01*w01 + v10*w10 + v11*w11, one sample point at a time."""
    out = np.zeros(x.shape[:2] + rows.shape[1:], dtype=x.dtype)
    for (b, *rest), corners in _corner_terms(x, rows, cols):
        for r, c, wk in corners.values():
            out[(b, slice(None), *rest)] += x[b, :, r, c] * wk
    return out


def _scatter_reference(x, rows, cols, gy):
    """The x gradient as a per-channel np.bincount forms it: gy * weight in
    gy's dtype, accumulated in float64 corner by corner, then sample by sample."""
    acc = np.zeros(x.shape, dtype=np.float64)
    terms = list(_corner_terms(x, rows, cols))
    for k in range(4):
        for (b, *rest), corners in terms:
            if k in corners:
                r, c, wk = corners[k]
                acc[b, :, r, c] += (gy[(b, slice(None), *rest)] * wk).astype(np.float64)
    return acc.astype(gy.dtype)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


class TestSamplePlanes:
    @settings(max_examples=150)
    @given(sample_cases())
    def test_forward_equals_corner_loop_bitwise(self, case):
        x, rows, cols, _ = case
        out, _ = T.bilinear_sample(x, rows, cols)
        ref = _sample_reference(x, rows, cols)
        assert out.shape == ref.shape and out.dtype == x.dtype
        assert _bits(out) == _bits(ref)

    @settings(max_examples=150)
    @given(sample_cases())
    def test_input_gradient_equals_bincount_scatter_bitwise(self, case):
        x, rows, cols, gy = case
        _, cache = T.bilinear_sample(x, rows, cols)
        gx, grows, gcols = T.bilinear_sample_backward(cache, gy)
        assert gx.dtype == grows.dtype == gcols.dtype == x.dtype
        assert grows.shape == gcols.shape == rows.shape
        assert _bits(gx) == _bits(_scatter_reference(x, rows, cols, gy))

    @settings(max_examples=150)
    @given(sample_cases())
    def test_coordinate_gradients_match_numeric(self, case):
        x, rows, cols, gy = case
        x, gy = x.astype(np.float64), gy.astype(np.float64)
        _, cache = T.bilinear_sample(x, rows, cols)
        _, grows, gcols = T.bilinear_sample_backward(cache, gy)
        num_rows = T.numeric_gradient(
            lambda v: float((T.bilinear_sample(x, v, cols)[0] * gy).sum()), rows)
        num_cols = T.numeric_gradient(
            lambda v: float((T.bilinear_sample(x, rows, v)[0] * gy).sum()), cols)
        # on an integer coordinate next to the map the sample has a kink, where
        # a central difference averages the two one-sided slopes
        for got, num, coord in ((grows, num_rows, rows), (gcols, num_cols, cols)):
            smooth = (coord != np.floor(coord)) | (np.abs(coord) > 100)
            assert T.relative_error(got[smooth], num[smooth]) <= 1e-6


class TestSampleBlocks:
    """bilinear_sample's blocks of points change no value and no cache."""

    @settings(max_examples=150)
    @given(sample_cases(), st.data())
    def test_blocked_reads_equal_corner_loop_bitwise(self, case, data):
        x, rows, cols, gy = case
        points = int(np.prod(rows.shape[1:]))
        # from one point per block, through blocks that split a sample's
        # points, to one block that covers them
        per_block = data.draw(st.integers(1, points + 1))
        budget = per_block * x.shape[1] * x.itemsize - data.draw(st.integers(0, 1))
        whole, whole_cache = T.bilinear_sample(x, rows, cols)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "SAMPLE_BLOCK_BYTES", max(budget, 1))
            out, cache = T.bilinear_sample(x, rows, cols)
        assert _bits(out) == _bits(_sample_reference(x, rows, cols)) == _bits(whole)
        for got, want in zip(T.bilinear_sample_backward(cache, gy),
                             T.bilinear_sample_backward(whole_cache, gy)):
            assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("c, blocks", [(120, 9), (15, 2), (4, 1)])
    def test_block_count_at_a_32x32_map(self, c, blocks, monkeypatch):
        # the nine taps of an adaptive conv over a 32x32 map: 9,216 points
        taken, take = [], np.take

        def counting_take(table, indices, *args, **kwargs):
            taken.append(len(indices))
            return take(table, indices, *args, **kwargs)

        monkeypatch.setattr(np, "take", counting_take)
        x = np.ones((1, c, 32, 32), dtype=np.float32)
        rows = np.broadcast_to(np.arange(32.0).reshape(1, 1, 32, 1), (1, 9, 32, 32))
        out, _ = T.bilinear_sample(x, rows, rows.transpose(0, 1, 3, 2))
        assert len(taken) == 4 * blocks and sum(taken) == 4 * 9 * 32 * 32
        assert out.shape == (1, c, 9, 32, 32) and (out == 1).all()


    def test_no_points_reads_nothing(self, rng):
        x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        out, cache = T.bilinear_sample(x, np.zeros((2, 0)), np.zeros((2, 0)))
        gx, grows, gcols = T.bilinear_sample_backward(cache, np.zeros((2, 3, 0), np.float32))
        assert out.shape == (2, 3, 0) and grows.shape == gcols.shape == (2, 0)
        assert gx.shape == x.shape and not gx.any()
        out, _ = T.bilinear_sample(x[:0], np.zeros((0, 7)), np.zeros((0, 7)))
        assert out.shape == (0, 3, 7)


def test_sigmoid_saturates_without_overflow_warning():
    for dtype in (np.float32, np.float64):
        x = np.array([-1e4, -88.8, -88.7, 0.0, 88.7, 1e4], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = T.sigmoid(x)
            scalar = T.sigmoid(dtype(-1000))
        with np.errstate(over="ignore"):
            want = 1.0 / (1.0 + np.exp(-x))
        assert y.dtype == dtype and _bits(y) == _bits(want)
        assert scalar == 0.0 and y[0] == 0.0 and y[-1] == 1.0


class TestGeometryCaches:
    """The conv plan and resize matrix caches are keyed on the whole
    geometry: calls that interleave geometries each get their own."""

    @staticmethod
    def check_conv(rng, spec, shape, cout=2, k=3):
        x = rng.standard_normal(shape)
        w = rng.standard_normal((cout, shape[1], k, k))
        b = rng.standard_normal(cout)
        y = T.conv2d(x, w, b, spec)
        assert T.relative_error(y, conv2d_naive(x, w, b, spec)) <= 1e-12
        gy = rng.standard_normal(y.shape)
        gx, gw, _ = T.conv2d_backward(x, w, spec, gy)
        num_gx = T.numeric_gradient(lambda v: float((T.conv2d(v, w, b, spec) * gy).sum()), x)
        num_gw = T.numeric_gradient(lambda v: float((T.conv2d(x, v, b, spec) * gy).sum()), w)
        assert T.relative_error(gx, num_gx) <= 1e-6
        assert T.relative_error(gw, num_gw) <= 1e-6

    def test_one_spec_over_interleaved_extents(self, rng):
        # the extents share a height or a width, so a plan keyed on one
        # extent alone would be read back for the other
        spec = T.ConvSpec(stride=2, dilation=2)
        for hw in ((6, 6), (6, 9), (9, 6)) * 2:
            self.check_conv(rng, spec, (1, 2) + hw)

    def test_interleaved_specs_over_one_extent(self, rng):
        # the geometries differ from the first in stride alone, dilation
        # alone or kernel extent alone
        geometries = ((T.ConvSpec(), 3), (T.ConvSpec(stride=2), 3),
                      (T.ConvSpec(dilation=3), 3), (T.ConvSpec(), 5))
        for spec, k in geometries * 2:
            self.check_conv(rng, spec, (2, 2, 5, 5), k=k)

    def test_cached_resize_matrix_is_read_only(self):
        for shift in (0, -2):
            m = T.resize_matrix(4, 7, shift, np.dtype(np.float32))
            assert T.resize_matrix(4, 7, shift, np.dtype(np.float32)) is m
            with pytest.raises(ValueError):
                m[0, 0] = 1.0

    def test_shifted_resize_matrix_is_the_zero_padded_shift(self, rng):
        # row o of the matrix shifted by s resizes the map's row o + s, or
        # reads the zero padding; a shift past the map costs no more than a
        # shift of one row
        x = rng.standard_normal((5, 3))
        resized = np.pad(T.resize_matrix(5, 11, 0, x.dtype) @ x, ((30, 30), (0, 0)))
        for s in (-30, -11, -10, -3, -1, 1, 4, 10, 11, 30):
            np.testing.assert_array_equal(T.resize_matrix(5, 11, s, x.dtype) @ x,
                                          resized[30 + s:41 + s])
        far = T.resize_matrix(5, 11, 10 ** 12, x.dtype)
        assert far.shape == (11, 5) and not far.any()


class TestConcat:
    def test_single_input_identity(self, rng):
        x = rng.standard_normal((1, 3, 2, 2)).astype(np.float32)
        np.testing.assert_array_equal(T.concat_channels([x]), x)

    def test_paper_width_sum(self, rng):
        parts = [rng.standard_normal((1, c, 4, 4)).astype(np.float32)
                 for c in (32, 64, 128, 256)]
        assert T.concat_channels(parts).shape[1] == 480

    def test_slices_reproduce_inputs(self, rng):
        parts = [rng.standard_normal((2, c, 3, 3)).astype(np.float32) for c in (1, 4, 2)]
        y = T.concat_channels(parts)
        off = 0
        for part in parts:
            np.testing.assert_array_equal(y[:, off:off + part.shape[1]], part)
            off += part.shape[1]

    def test_spatial_mismatch_rejected(self, rng):
        a = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
        b = rng.standard_normal((1, 1, 4, 3)).astype(np.float32)
        with pytest.raises(T.ShapeError):
            T.concat_channels([a, b])

    def test_backward_splits(self, rng):
        gy = rng.standard_normal((1, 7, 2, 2))
        parts = T.concat_channels_backward([1, 4, 2], gy)
        assert [p.shape[1] for p in parts] == [1, 4, 2]
        np.testing.assert_array_equal(np.concatenate(parts, axis=1), gy)


class TestTape:
    def test_two_consumers_get_the_sum(self, rng):
        x = rng.standard_normal((1, 2, 3, 3))
        tape = T.Tape()
        y = tape.concat([tape.relu(x), tape.sigmoid(x)])
        gy = rng.standard_normal(y.shape)
        _, (gx,) = tape.backward([(y, gy)], wrt=[x])
        s = T.sigmoid(x)
        np.testing.assert_allclose(
            gx, T.relu_backward(x, gy[:, :2]) + T.sigmoid_backward(s, gy[:, 2:]))

    def test_unreached_inputs_get_nothing(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        unused = rng.standard_normal((1, 2, 4, 4))
        weights = {"a.w": rng.standard_normal((3, 2, 1, 1)), "a.b": np.zeros(3),
                   "b.w": rng.standard_normal((3, 2, 1, 1)), "b.b": np.zeros(3)}
        tape = T.Tape()
        ya = tape.conv(x, weights, "a")
        tape.conv(unused, weights, "b")
        grads, (gx, g_unused) = tape.backward([(ya, np.ones_like(ya))], wrt=[x, unused])
        assert set(grads) == {"a.w", "a.b"}
        assert gx is not None and g_unused is None

    def test_split_adjoint_concats_with_zeros(self, rng):
        x = rng.standard_normal((2, 6, 3, 3))
        tape = T.Tape()
        a, b, c = tape.split(x, [1, 3, 2])
        np.testing.assert_array_equal(np.concatenate([a, b, c], axis=1), x)
        ga = rng.standard_normal(a.shape)
        gc = rng.standard_normal(c.shape)
        _, (gx,) = tape.backward([(a, ga), (c, gc)], wrt=[x])
        np.testing.assert_array_equal(gx, np.concatenate([ga, np.zeros(b.shape), gc], axis=1))

    def test_backward_empties_the_tape(self, rng):
        x = rng.standard_normal((1, 1, 2, 2))
        tape = T.Tape()
        y = tape.relu(tape.pool(x))
        assert len(tape.nodes) == 2
        tape.backward([(y, np.ones_like(y))])
        assert tape.nodes == []

    def test_forward_tape_keeps_nothing(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        weights = {"a.w": rng.standard_normal((3, 2, 1, 1)), "a.b": np.zeros(3)}
        outs = []
        for tape in (T.Tape(), T.ForwardTape()):
            outs.append(tape.sigmoid(tape.conv(x, weights, "a")))
        np.testing.assert_array_equal(outs[0], outs[1])
        assert tape.nodes == []
        with pytest.raises(RuntimeError, match="cannot be replayed"):
            tape.backward([(outs[1], np.ones_like(outs[1]))])


class TestNumericGradient:
    def test_sum_gives_ones(self, rng):
        x = rng.standard_normal((1, 1, 2, 3))
        g = T.numeric_gradient(lambda v: float(v.sum()), x)
        np.testing.assert_allclose(g, np.ones_like(x), atol=1e-9)

    def test_sum_of_squares(self, rng):
        x = rng.standard_normal((1, 2, 2, 2))
        g = T.numeric_gradient(lambda v: float((v ** 2).sum()), x, h=1e-5)
        np.testing.assert_allclose(g, 2 * x, atol=1e-8)

    def test_activations_backward(self, rng):
        x = rng.standard_normal((1, 2, 3, 3)) + 0.05
        gy = rng.standard_normal(x.shape)
        num = T.numeric_gradient(lambda v: float((T.relu(v) * gy).sum()), x)
        assert T.relative_error(T.relu_backward(x, gy), num) <= 1e-6
        y = T.sigmoid(x)
        num = T.numeric_gradient(lambda v: float((T.sigmoid(v) * gy).sum()), x)
        assert T.relative_error(T.sigmoid_backward(y, gy), num) <= 1e-6

    def test_conv_sum_backward(self, rng):
        spec = T.ConvSpec()
        x = rng.standard_normal((1, 2, 4, 4))
        w = rng.standard_normal((2, 2, 3, 3))
        b = np.zeros(2)
        gx, _, _ = T.conv2d_backward(x, w, spec, np.ones((1, 2, 4, 4)))
        num = T.numeric_gradient(lambda v: float(T.conv2d(v, w, b, spec).sum()), x)
        assert T.relative_error(gx, num) <= 1e-6

    def test_conv_float64_against_naive(self, rng):
        spec = T.ConvSpec(dilation=2)
        x = rng.standard_normal((1, 3, 7, 7))
        w = rng.standard_normal((2, 3, 3, 3))
        b = rng.standard_normal(2)
        assert T.relative_error(T.conv2d(x, w, b, spec), conv2d_naive(x, w, b, spec)) <= 1e-12


def test_modules_import_at_top_and_use_only_public_names():
    # no import inside a function, and no other module's _private name,
    # imported or read off a module
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    for path in sorted(Path(T.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {(a.asname or a.name).split(".")[0] for node in tree.body
                   if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.FunctionDef):
                assert not any(isinstance(n, (ast.Import, ast.ImportFrom))
                               for n in ast.walk(node)), f"{where} {node.name} imports inside"
            elif isinstance(node, ast.ImportFrom):
                assert not any(private(a.name) for a in node.names), \
                    f"{where} imports a private name"
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert not (node.value.id in imported and private(node.attr)), \
                    f"{where} reads {node.value.id}.{node.attr}"


def test_caches_are_bounded_and_nothing_calls_tensordot():
    # a functools cache outlives every call, so each is an lru_cache whose
    # maxsize is a positive integer in its source; and no module calls
    # np.tensordot, whose Python dispatch column_gradient does without
    def cache_name(node, from_functools):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "functools":
            name = node.attr
        else:
            name = node.id if isinstance(node, ast.Name) and node.id in from_functools else None
        return name if name in ("cache", "lru_cache") else None

    def bounded(call):
        sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
        return len(sizes) == 1 and isinstance(sizes[0], ast.Constant) \
            and type(sizes[0].value) is int and sizes[0].value > 0

    for path in sorted(Path(T.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        from_functools = {a.asname or a.name for node in ast.walk(tree)
                          if isinstance(node, ast.ImportFrom) and node.module == "functools"
                          for a in node.names}
        called = set()
        # ast.walk visits a call before its func
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Call) and cache_name(node.func, from_functools):
                called.add(id(node.func))
                assert cache_name(node.func, from_functools) == "lru_cache" and bounded(node), \
                    f"{where} makes a cache without a positive integer maxsize"
            elif cache_name(node, from_functools):
                assert id(node) in called, f"{where} makes a cache without a maxsize"
            assert not (isinstance(node, ast.Attribute) and node.attr == "tensordot"), \
                f"{where} calls tensordot"
            assert not (isinstance(node, ast.alias) and node.name == "tensordot"), \
                f"{where} imports tensordot"
