"""The GEMM and scatter paths of the kernels: dtype preservation, and oracle
checks for the convolution geometries that take a path of their own."""

import numpy as np
import pytest

from waterfallpose import tensor as T
from waterfallpose import waterfall as W
from waterfallpose.checks import conv2d_naive


def _kernel_outputs(rng, dtype):
    """Every kernel's forward and backward outputs on inputs of one dtype."""
    def arr(*shape):
        return rng.standard_normal(shape).astype(dtype)

    x = arr(1, 3, 6, 5)
    out = {}
    for name, spec, w in (("conv3x3", T.ConvSpec(dilation=2), arr(2, 3, 3, 3)),
                          ("conv1x1", T.ConvSpec(), arr(2, 3, 1, 1))):
        y = T.conv2d(x, w, arr(2), spec)
        out[name] = y
        for part, g in zip("xwb", T.conv2d_backward(x, w, spec, np.ones_like(y))):
            out[f"{name}_backward.{part}"] = g
    out["global_avg_pool"] = T.global_avg_pool(x)
    out["global_avg_pool_backward"] = T.global_avg_pool_backward(x.shape, arr(1, 3, 1, 1))
    pts = rng.uniform(-1.0, 6.0, size=(4, 2))
    out["bilinear_sample"], cache = T.bilinear_sample(x, pts[None, :, 0], pts[None, :, 1])
    gx, grows, gcols = T.bilinear_sample_backward(cache, arr(1, 3, 4))
    out["bilinear_sample_backward.x"] = gx
    out["bilinear_sample_backward.rows"] = grows
    out["bilinear_sample_backward.cols"] = gcols
    out["concat_channels"] = T.concat_channels([x, x[:, :1]])
    for i, g in enumerate(T.concat_channels_backward([3, 1], arr(1, 4, 6, 5))):
        out[f"concat_channels_backward.{i}"] = g
    out["relu"] = T.relu(x)
    out["relu_backward"] = T.relu_backward(x, arr(*x.shape))
    out["sigmoid"] = T.sigmoid(x)
    out["sigmoid_backward"] = T.sigmoid_backward(T.sigmoid(x), arr(*x.shape))
    offsets = W.canonical_offsets(1, 6, 5, dtype=dtype) + arr(1, 18, 6, 5) * dtype(0.3)
    y, cache = W.adaptive_conv(x, arr(2, 3, 3, 3), offsets, *np.ogrid[:6, :5])
    out["adaptive_conv"] = y
    for part, g in zip(["x", "w9", "offsets"], W.adaptive_conv_backward(cache, arr(*y.shape))):
        out[f"adaptive_conv_backward.{part}"] = g
    out["affine_to_offsets"] = W.affine_to_offsets(arr(1, 6, 2, 2))
    out["affine_to_offsets_backward"] = W.affine_to_offsets_backward(arr(1, 18, 2, 2))
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_kernel_keeps_the_input_dtype(rng, dtype):
    for name, value in _kernel_outputs(rng, dtype).items():
        assert value.dtype == dtype, f"{name} returned {value.dtype} for {np.dtype(dtype)}"


def _check_conv(rng, base, w, spec, view=lambda v: v):
    """Forward against the naive oracle in float64, backward against the
    central-difference gradient. The conv reads view(base); the numeric
    gradient is taken with respect to base."""
    x = view(base)
    b = rng.standard_normal(w.shape[0])
    y = T.conv2d(x, w, b, spec)
    assert T.relative_error(y, conv2d_naive(x, w, b, spec)) <= 1e-12
    gy = rng.standard_normal(y.shape)
    gx, gw, gb = T.conv2d_backward(x, w, spec, gy)
    num_gbase = T.numeric_gradient(
        lambda v: float((T.conv2d(view(v), w, b, spec) * gy).sum()), base)
    num_gw = T.numeric_gradient(lambda v: float((T.conv2d(x, v, b, spec) * gy).sum()), w)
    assert T.relative_error(gx, view(num_gbase)) <= 1e-6
    assert T.relative_error(gw, num_gw) <= 1e-6
    np.testing.assert_allclose(gb, gy.sum(axis=(0, 2, 3)), rtol=1e-12)
    return gx, gw


class TestConvPaths:
    def test_pointwise_fast_path(self, rng):
        _check_conv(rng, rng.standard_normal((2, 4, 5, 3)), rng.standard_normal((3, 4, 1, 1)),
                    T.ConvSpec())

    @pytest.mark.parametrize("k", [1, 3])
    def test_channel_slice_input(self, rng, k):
        # a channel slice of a batch of two, as the offset head's groups are
        full = rng.standard_normal((2, 9, 6, 6))
        assert not full[:, 3:6].flags.c_contiguous
        _check_conv(rng, full, rng.standard_normal((2, 3, k, k)), T.ConvSpec(),
                    view=lambda v: v[:, 3:6])

    def test_dilation_larger_than_the_map(self, rng):
        # rate 18 on 16x16, the last waterfall branch at published widths on
        # 64x64 images: only the centre tap ever reads the map
        spec = T.ConvSpec(dilation=18)
        x = rng.standard_normal((1, 2, 16, 16))
        w = rng.standard_normal((2, 2, 3, 3))
        _, gw = _check_conv(rng, x, w, spec)
        centre_only = np.zeros_like(w)
        centre_only[:, :, 1, 1] = w[:, :, 1, 1]
        b = np.zeros(2)
        np.testing.assert_array_equal(T.conv2d(x, w, b, spec), T.conv2d(x, centre_only, b, spec))
        dead = np.ones((3, 3), dtype=bool)
        dead[1, 1] = False
        assert not gw[:, :, dead].any()

    def test_dilation_partly_off_the_map(self, rng):
        _check_conv(rng, rng.standard_normal((1, 2, 7, 5)), rng.standard_normal((2, 2, 3, 3)),
                    T.ConvSpec(dilation=6))

    def test_every_outer_tap_in_the_padding(self, rng):
        # stride 2 over one pixel: the one output's eight outer taps read
        # padding only, so only the centre tap counts or gets a gradient
        spec = T.ConvSpec(stride=2)
        x = rng.standard_normal((1, 2, 1, 1))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        _, gw = _check_conv(rng, x, w, spec)
        y = T.conv2d(x, w, b, spec)
        assert y.shape == (1, 3, 1, 1)
        np.testing.assert_array_equal(y[0, :, 0, 0], w[:, :, 1, 1] @ x[0, :, 0, 0] + b)
        dead = np.ones((3, 3), dtype=bool)
        dead[1, 1] = False
        assert not gw[:, :, dead].any()
