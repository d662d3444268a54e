"""Dense 4-axis tensor kernels, their hand-written backward passes, and the
tape that pairs them.

Every value in the pipeline is a numpy array of shape (N, C, H, W), row-major
with width fastest. Compute stays in the dtype of the inputs: float32 for
normal runs, float64 for gradient checking. Kernels are pure functions, with
one of two conventions. Most backwards take the original inputs (or their
shape) plus the upstream gradient. The cached kernels, bilinear_sample here
and the adaptive conv built on it, return (value, cache), and their backward
takes (cache, gy): the cache holds what the forward worked out. Two
bounded caches outlive every call and depend on geometry alone: the conv
plan of each (ConvSpec, h, w), its output extents and live taps, and the
read-only bilinear resize matrix of each (in, out, dtype). A Tape records the
kernels a forward pass runs and replays their backwards in reverse, so
composite layers are written forward only; a ForwardTape runs the same
kernels and keeps nothing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class ShapeError(ValueError):
    """Raised when tensor extents do not satisfy an operation's contract."""


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max absolute difference normalized by the larger magnitude of a and b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0), 1e-30)
    return float(np.max(np.abs(a - b), initial=0.0) / denom)


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a 2-d cross-correlation.

    Padding is zero-fill, applied symmetrically per axis. The effective kernel
    extent along an axis is (k - 1) * dilation + 1.
    """

    kh: int = 3
    kw: int = 3
    stride: int = 1
    pad_h: int = 0
    pad_w: int = 0
    dilation: int = 1

    def __post_init__(self):
        if self.kh < 1 or self.kw < 1:
            raise ShapeError(f"kernel extents must be positive, got {self.kh}x{self.kw}")
        if self.stride < 1:
            raise ShapeError(f"stride must be positive, got {self.stride}")
        if self.dilation < 1:
            raise ShapeError(f"dilation must be positive, got {self.dilation}")
        if self.pad_h < 0 or self.pad_w < 0:
            raise ShapeError("padding must be non-negative")

    def out_extent(self, size: int, axis: int) -> int:
        k, pad = (self.kh, self.pad_h) if axis == 0 else (self.kw, self.pad_w)
        eff = (k - 1) * self.dilation + 1
        return (size + 2 * pad - eff) // self.stride + 1


def _tap_window(offset: int, size: int, out: int, stride: int):
    """Output and input slices of one kernel tap along one axis.

    Output index o reads input index offset + o * stride; the slices cover the
    outputs whose reads land inside [0, size). None when no read does.
    """
    lo = max(0, -(offset // stride))
    hi = min(out, (size - 1 - offset) // stride + 1)
    if hi <= lo:
        return None
    first = lo * stride + offset
    return slice(lo, hi), slice(first, first + (hi - lo - 1) * stride + 1, stride)


class _ConvPlan(NamedTuple):
    """What a conv over an (h, w) map does, worked out once per geometry."""

    oh: int
    ow: int
    windows: tuple    # (output window, input window) of every live tap
    live: np.ndarray | None    # weight tap index of each live tap; None if all are
    as_is: bool    # the one live tap reads x as it is, so there is no im2col copy


@functools.lru_cache(maxsize=256)
def _conv_plan(spec: ConvSpec, h: int, w: int) -> _ConvPlan:
    """The plan of spec over an (h, w) input. Only kernel taps that read at
    least one input pixel are live: taps that fall wholly in the zero padding,
    such as the outer taps of a dilation larger than the map, contribute
    nothing and are left out of the GEMM. Cached, since a model runs the same
    few geometries on every call: a published-width forward uses 14 to 33
    plans per input size, so the bound holds those of several sizes."""
    oh, ow = spec.out_extent(h, 0), spec.out_extent(w, 1)
    if oh < 1 or ow < 1:
        raise ShapeError(f"conv2d output would be {oh}x{ow} for input {h}x{w} with {spec}")
    taps, windows = [], []
    for i in range(spec.kh):
        rows = _tap_window(i * spec.dilation - spec.pad_h, h, oh, spec.stride)
        if rows is None:
            continue
        for j in range(spec.kw):
            cols = _tap_window(j * spec.dilation - spec.pad_w, w, ow, spec.stride)
            if cols is not None:
                taps.append(i * spec.kw + j)
                windows.append(((rows[0], cols[0]), (rows[1], cols[1])))
    live = None
    if len(taps) < spec.kh * spec.kw:
        live = np.array(taps, dtype=np.intp)
        live.flags.writeable = False
    as_is = (len(windows) == 1 and (oh, ow) == (h, w)
             and windows[0][1] == (slice(0, h, 1), slice(0, w, 1)))
    return _ConvPlan(oh, ow, tuple(windows), live, as_is)


def _im2col(x: np.ndarray, plan: _ConvPlan) -> np.ndarray:
    """Column matrix (N, C * taps, oh * ow), row c * taps + t holding live tap
    t of channel c: a new contiguous array filled with one strided slice copy
    per tap, or x itself, reshaped, when its one tap reads x as it is (1x1
    stride-1 unpadded convs, and dilations so large that only the centre tap
    reaches the map)."""
    n, c = x.shape[:2]
    if plan.as_is:
        return x.reshape(n, c, plan.oh * plan.ow)
    cols = np.zeros((n, c, len(plan.windows), plan.oh, plan.ow), dtype=x.dtype)
    for t, ((orow, ocol), (irow, icol)) in enumerate(plan.windows):
        cols[:, :, t, orow, ocol] = x[:, :, irow, icol]
    return cols.reshape(n, c * len(plan.windows), plan.oh * plan.ow)


def _col2im(gcols: np.ndarray, plan: _ConvPlan, x_shape) -> np.ndarray:
    """Adjoint of _im2col: add each tap's column gradient back onto the input."""
    n, c = x_shape[:2]
    if plan.as_is:
        return gcols.reshape(x_shape)
    gcols = gcols.reshape(n, c, len(plan.windows), plan.oh, plan.ow)
    gx = np.zeros(x_shape, dtype=gcols.dtype)
    for t, ((orow, ocol), (irow, icol)) in enumerate(plan.windows):
        gx[:, :, irow, icol] += gcols[:, :, t, orow, ocol]
    return gx


def _tap_matrix(w: np.ndarray, plan: _ConvPlan) -> np.ndarray:
    """Weights as a (Cout, Cin * taps) matrix matching _im2col's rows."""
    cout, cin, kh, kw = w.shape
    if plan.live is None:
        return w.reshape(cout, cin * kh * kw)
    return w.reshape(cout, cin, kh * kw)[:, :, plan.live].reshape(cout, cin * len(plan.live))


def column_gradient(gy3: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Gradient of the weights of y = W @ cols summed over the batch, from
    gy3 (N, Cout, M) and cols (N, K, M): one (Cout, N·M) @ (N·M, K) GEMM,
    the product np.tensordot forms, with its sums in the same order. At N = 1
    both operands are views, the right one cols[0].T."""
    n, cout, m = gy3.shape
    return np.matmul(gy3.transpose(1, 0, 2).reshape(cout, n * m),
                     cols.transpose(0, 2, 1).reshape(n * m, cols.shape[1]))


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Cross-correlate x (N,Cin,H,W) with w (Cout,Cin,kh,kw) plus bias b (Cout,).

    No kernel flip; zero padding; dilation spaces the taps spec.dilation pixels
    apart. Output extents follow floor((S + 2*pad - (k-1)*d - 1) / stride) + 1.
    Computed as one GEMM of the weights with the im2col column matrix.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d wants 4-axis tensors, got x{x.shape}, w{w.shape}")
    n, cin, h, wd = x.shape
    cout, wcin, kh, kw = w.shape
    if wcin != cin:
        raise ShapeError(f"conv2d channel mismatch: input has {cin}, weight expects {wcin}")
    if (kh, kw) != (spec.kh, spec.kw):
        raise ShapeError(f"weight is {kh}x{kw} but spec says {spec.kh}x{spec.kw}")
    if b.shape != (cout,):
        raise ShapeError(f"bias must be ({cout},), got {b.shape}")
    plan = _conv_plan(spec, h, wd)
    y = np.matmul(_tap_matrix(w, plan), _im2col(x, plan)).reshape(n, cout, plan.oh, plan.ow)
    y += b[None, :, None, None]
    return y


def conv2d_backward(x: np.ndarray, w: np.ndarray, spec: ConvSpec, gy: np.ndarray):
    """Gradients of conv2d w.r.t. (x, w, b) given upstream gy (N,Cout,oh,ow)."""
    n, cin, h, wd = x.shape
    cout = w.shape[0]
    plan = _conv_plan(spec, h, wd)
    gb = gy.sum(axis=(0, 2, 3))
    gy3 = gy.reshape(n, cout, plan.oh * plan.ow)
    gw_live = column_gradient(gy3, _im2col(x, plan))
    if plan.live is None:
        gw = gw_live.reshape(w.shape)
    else:
        gw = np.zeros((cout, cin, spec.kh * spec.kw), dtype=gw_live.dtype)
        gw[:, :, plan.live] = gw_live.reshape(cout, cin, len(plan.live))
        gw = gw.reshape(w.shape)
    gcols = np.matmul(_tap_matrix(w, plan).T, gy3)
    return _col2im(gcols, plan, x.shape), gw, gb


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Mean over the spatial axes, kept as (N, C, 1, 1)."""
    if x.ndim != 4 or x.shape[2] < 1 or x.shape[3] < 1:
        raise ShapeError(f"global_avg_pool wants non-empty (N,C,H,W), got {x.shape}")
    return x.mean(axis=(2, 3), keepdims=True)


def global_avg_pool_backward(x_shape, gy: np.ndarray) -> np.ndarray:
    n, c, h, w = x_shape
    return np.broadcast_to(gy / (h * w), x_shape).astype(gy.dtype)


@functools.lru_cache(maxsize=64)
def _resize_matrix(in_size: int, out_size: int, dtype) -> np.ndarray:
    """(out_size, in_size) interpolation matrix of one axis: row o weights the
    two input taps around o's source coordinate, taken align-corners-false
    and clamped to the edge. Cached and read-only, since every caller shares
    it; a model forward uses about 4 per input size."""
    scale = in_size / out_size
    src = (np.arange(out_size, dtype=np.float64) + 0.5) * scale - 0.5
    src = np.clip(src, 0.0, in_size - 1)
    lo = np.floor(src).astype(np.intp)
    hi = np.minimum(lo + 1, in_size - 1)
    frac = (src - lo).astype(dtype)
    m = np.zeros((out_size, in_size), dtype=dtype)
    rows = np.arange(out_size)
    m[rows, lo] += 1 - frac
    m[rows, hi] += frac
    m.flags.writeable = False
    return m


def bilinear_resize(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize the spatial extents by bilinear interpolation: the resize is
    separable, y = Rh x Rw^T per plane.

    Same-size resize returns a bitwise copy of the input.
    """
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"output extents must be positive, got {out_h}x{out_w}")
    n, c, h, w = x.shape
    if (out_h, out_w) == (h, w):
        return x.copy()
    rh = _resize_matrix(h, out_h, x.dtype)
    rw = _resize_matrix(w, out_w, x.dtype)
    return np.matmul(np.matmul(rh, x), rw.T)


def bilinear_resize_backward(x_shape, gy: np.ndarray) -> np.ndarray:
    """Adjoint of y = Rh x Rw^T: gx = Rh^T gy Rw."""
    n, c, h, w = x_shape
    out_h, out_w = gy.shape[2], gy.shape[3]
    if (out_h, out_w) == (h, w):
        return gy.copy()
    rh = _resize_matrix(h, out_h, gy.dtype)
    rw = _resize_matrix(w, out_w, gy.dtype)
    return np.matmul(np.matmul(rh.T, gy), rw)


# corner (row, col) steps of a bilinear read, in the order they are summed
_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def bilinear_sample(x: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Bilinear read of x (N,C,H,W) at fractional (rows, cols), two arrays of
    one shape (N, ...) whose first axis picks the sample each point reads.

    Out-of-bounds corner taps contribute zero, so a point fully outside reads
    0. Returns (values, cache): the values have shape (N, C, ...), and the
    cache holds what bilinear_sample_backward needs.

    The reads gather whole C-wide rows of a channel-last table of pixels with
    a flat (sample, row, col) index shared by every channel. The table holds
    each sample's map inside a 2-pixel zero frame, N * (H+4) * (W+4) rows:
    coordinates are clipped to [-2, H] and [-2, W], so every corner of a
    clipped point is a map pixel or a frame pixel, and the four corner indices
    are top_left + (0, 1, W+4, W+5). The corners are gathered and accumulated
    one at a time, so each value is ((v0*w0 + v1*w1) + v2*w2) + v3*w3 in
    _CORNERS order.
    """
    n, c, h, w = x.shape
    fh, fw = h + 4, w + 4
    # bound finite coordinates to just off the map, so the integer cast below
    # stays in range; a bounded coordinate still has every corner off the map
    rows = np.clip(rows, -2, h)
    cols = np.clip(cols, -2, w)
    r0 = np.floor(rows)
    c0 = np.floor(cols)
    fr = (rows - r0).astype(x.dtype)
    fc = (cols - c0).astype(x.dtype)
    # each sample's map starts 2 rows and 2 columns into its framed block
    first = np.arange(n).reshape((n,) + (1,) * (rows.ndim - 1)) * (fh * fw) + (2 * fw + 2)
    top_left = first + r0.astype(np.intp) * fw + c0.astype(np.intp)
    index = np.empty((4,) + rows.shape, dtype=np.intp)
    for k, (dr, dc) in enumerate(_CORNERS):
        np.add(top_left, dr * fw + dc, out=index[k])
    weight = np.stack([(1 - fr) * (1 - fc), (1 - fr) * fc, fr * (1 - fc), fr * fc])

    # the frame is written explicitly: a calloc'd np.zeros table made infer
    # requests about 10 % slower in some processes, with 2 MB more peak RSS
    planes = np.empty((n, fh, fw, c), dtype=x.dtype)
    planes[:, :2] = 0
    planes[:, -2:] = 0
    planes[:, 2:-2, :2] = 0
    planes[:, 2:-2, -2:] = 0
    planes[:, 2:-2, 2:-2] = x.transpose(0, 2, 3, 1)
    planes = planes.reshape(n * fh * fw, c)
    flat = index.reshape(4, -1)
    wcol = weight.reshape(4, -1, 1)
    out = np.empty((flat.shape[1], c), dtype=x.dtype)      # (M, C)
    buf = np.empty_like(out)
    # every index is in range, so mode="clip" only skips the bounds check
    # (and the copy np.take makes of out= under the default mode="raise")
    np.take(planes, flat[0], axis=0, out=out, mode="clip")
    out *= wcol[0]
    for k in range(1, 4):
        np.take(planes, flat[k], axis=0, out=buf, mode="clip")
        buf *= wcol[k]
        out += buf
    # one transposing pass to channel-first; adding 0.0 there turns a sum of
    # four -0.0 terms into +0.0, so every value is bit for bit the sum
    # 0 + v0*w0 + v1*w1 + v2*w2 + v3*w3 taken left to right
    sampled = np.empty((n, c, out.shape[0] // n), dtype=x.dtype)
    np.add(out.reshape(n, -1, c).transpose(0, 2, 1), 0.0, out=sampled)
    return sampled.reshape((n, c) + rows.shape[1:]), (x.shape, index, weight, fr, fc, planes)


def bilinear_sample_backward(cache, gy: np.ndarray):
    """Backward of bilinear_sample: gradients (gx, grows, gcols) w.r.t. x and
    the (rows, cols).

    The x gradient scatters each corner's weighted upstream value back to the
    pixel it read, with one np.bincount per channel over the shared flat
    index into the framed table; the map's bins are then cut out of the
    frame. The (rows, cols) gradients need a_k = sum over channels of
    gy * v_k for each corner value v_k, re-read from the table one corner at
    a time.
    """
    (n, c, h, w), index, weight, fr, fc, planes = cache
    size = planes.shape[0]
    g = gy.swapaxes(0, 1).reshape(c, 1, -1)                   # (C, 1, M)
    contrib = (g * weight.reshape(4, -1)).reshape(c, -1)      # (C, 4M)
    flat = index.reshape(-1)
    gx = np.empty((c, size), dtype=gy.dtype)
    for ch in range(c):
        gx[ch] = np.bincount(flat, weights=contrib[ch], minlength=size)
    gx = gx.reshape(c, n, h + 4, w + 4)[:, :, 2:-2, 2:-2].transpose(1, 0, 2, 3)

    g = np.ascontiguousarray(np.moveaxis(gy, 1, -1).reshape(-1, c))   # (M, C)
    buf = np.empty_like(g)
    ones = np.ones(c, dtype=gy.dtype)
    a = np.empty((4, g.shape[0]), dtype=gy.dtype)
    for k, idx in enumerate(index.reshape(4, -1)):
        np.take(planes, idx, axis=0, out=buf, mode="clip")
        buf *= g
        np.matmul(buf, ones, out=a[k])    # a channel sum as one matrix-vector product
    fr = fr.reshape(-1)
    fc = fc.reshape(-1)
    # d(out)/d(row) = (1-fc)*(v10-v00) + fc*(v11-v01), so summed over
    # channels against gy it is (1-fc)*(a2-a0) + fc*(a3-a1)
    grows = ((1 - fc) * (a[2] - a[0]) + fc * (a[3] - a[1])).reshape(index.shape[1:])
    gcols = ((1 - fr) * (a[1] - a[0]) + fr * (a[3] - a[2])).reshape(index.shape[1:])
    return np.ascontiguousarray(gx), grows, gcols


def concat_channels(parts) -> np.ndarray:
    """Concatenate along the channel axis; all parts must share N, H, W."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat_channels needs at least one part")
    n, _, h, w = parts[0].shape
    for i, part in enumerate(parts):
        if part.ndim != 4 or part.shape[0] != n or part.shape[2:] != (h, w):
            raise ShapeError(
                f"concat part {i} has shape {part.shape}, expected (N={n}, *, {h}, {w})")
    return np.concatenate(parts, axis=1)


def concat_channels_backward(channel_counts, gy: np.ndarray):
    """Split the upstream gradient back into the per-part slices."""
    splits = np.cumsum(channel_counts)[:-1]
    return [np.ascontiguousarray(g) for g in np.split(gy, splits, axis=1)]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, gy: np.ndarray) -> np.ndarray:
    return gy * (x > 0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def sigmoid_backward(y: np.ndarray, gy: np.ndarray) -> np.ndarray:
    # takes the forward output y, not the pre-activation
    return gy * y * (1.0 - y)


def weight(weights: dict, name: str) -> np.ndarray:
    """weights[name]; a missing entry is a ShapeError that names it."""
    try:
        return weights[name]
    except KeyError:
        raise ShapeError(f"missing weight {name!r}") from None


class Tape:
    """Reverse-mode record of one forward pass (Baydin et al., "Automatic
    Differentiation in Machine Learning: a Survey", arXiv 1502.05767).

    Each recording method runs one kernel and appends a node: its output (an
    array, or a tuple of arrays for split), its inputs (arrays, or the names
    of the weights it read), and a closure over the kernel's analytic
    backward. Arrays are matched by identity, so an array read by several
    nodes collects the sum of their gradients.
    """

    def __init__(self):
        self.nodes = []

    def record(self, out, inputs, backward):
        """Append a node and return out. backward takes one gradient per
        output and returns one gradient per input, in order."""
        self.nodes.append((out, inputs, backward))
        return out

    def backward(self, seeds, wrt=()):
        """Replay the nodes once, newest first, popping each as it runs.

        seeds are (array, gradient) pairs; wrt lists arrays that no node
        produced. Returns (gradients by weight name, [gradient of each wrt
        array]): a weight the replay does not reach has no entry, a wrt array
        it does not reach gets None. Leaves the tape empty.
        """
        grads, wgrads = {}, {}

        def accumulate(store, key, g):
            store[key] = g if key not in store else store[key] + g

        for a, g in seeds:
            accumulate(grads, id(a), g)
        while self.nodes:
            out, inputs, backward = self.nodes.pop()
            if isinstance(out, tuple):   # a split: parts without a gradient get zeros
                gys = [grads.pop(id(o), None) for o in out]
                if all(g is None for g in gys):
                    continue
                gins = backward(*[np.zeros_like(o) if g is None else g
                                  for o, g in zip(out, gys)])
            else:
                gy = grads.pop(id(out), None)
                if gy is None:
                    continue
                gins = backward(gy)
            for x, g in zip(inputs, gins):
                if isinstance(x, str):
                    accumulate(wgrads, x, g)
                else:
                    accumulate(grads, id(x), g)
        return wgrads, [grads.get(id(a)) for a in wrt]

    # one recording method per kernel; each calls the kernel and its backward
    # by module-level name at call time

    def conv(self, x, weights: dict, name: str, spec: ConvSpec):
        """conv2d with weights[name + ".w"] and bias weights[name + ".b"]."""
        w, b = weight(weights, name + ".w"), weight(weights, name + ".b")
        return self.record(conv2d(x, w, b, spec), (x, name + ".w", name + ".b"),
                           lambda gy: conv2d_backward(x, w, spec, gy))

    def relu(self, x):
        return self.record(relu(x), (x,), lambda gy: (relu_backward(x, gy),))

    def sigmoid(self, x):
        y = sigmoid(x)
        return self.record(y, (x,), lambda gy: (sigmoid_backward(y, gy),))

    def add(self, a, b):
        return self.record(a + b, (a, b), lambda gy: (gy, gy))

    def pool(self, x):
        return self.record(global_avg_pool(x), (x,),
                           lambda gy: (global_avg_pool_backward(x.shape, gy),))

    def resize(self, x, out_h: int, out_w: int):
        return self.record(bilinear_resize(x, out_h, out_w), (x,),
                           lambda gy: (bilinear_resize_backward(x.shape, gy),))

    def concat(self, parts):
        parts = tuple(parts)
        y = concat_channels(parts)
        counts = [p.shape[1] for p in parts]
        return self.record(y, parts, lambda gy: concat_channels_backward(counts, gy))

    def split(self, x, counts):
        """Channel slices of x with counts[i] channels each, as a tuple; the
        adjoint concatenates the slices' gradients, zeros for any without."""
        return self.record(tuple(concat_channels_backward(counts, x)), (x,),
                           lambda *gys: (concat_channels(gys),))


class ForwardTape(Tape):
    """A tape for passes that are never replayed, such as inference: record
    returns the output and keeps no node, so each kernel's backward closure,
    and the cache it holds, is freed as soon as the kernel returns."""

    def record(self, out, inputs, backward):
        return out

    def backward(self, seeds, wrt=()):
        raise RuntimeError("a ForwardTape keeps no nodes and cannot be replayed")


def numeric_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f at x, evaluated in float64.

    The oracle against which every analytic backward pass is checked. f must
    be pure; it receives float64 copies of x with one coordinate nudged.
    """
    x64 = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x64)
    flat = x64.reshape(-1)
    gflat = grad.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        fp = float(f(x64.reshape(x64.shape)))
        flat[j] = orig - h
        fm = float(f(x64.reshape(x64.shape)))
        flat[j] = orig
        gflat[j] = (fp - fm) / (2.0 * h)
    return grad
