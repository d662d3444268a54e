"""Waterfall pose head: pyramid fusion, cascaded dilated convolutions,
low-level fusion, and adaptive-convolution keypoint/offset heads.

Every stage's output is at base resolution. Stages:

  1. pyramid fusion    - level 0 and levels 1..3 upsampled to its extents,
                         concatenated: the fused map that stage 2's first and
                         pooled branches read. It is never formed: the first
                         branch mixes each level's channels at the level's own
                         extents and upsamples only its branch-wide result
                         (pyramid_branch), and the pooled branch pools each
                         level; both are exact in real arithmetic.
  2. waterfall_forward - four sequential 3x3 convolutions at increasing
                         dilation, each feeding the next: it returns their
                         maps and the pooled branch's (N, C, 1, 1) vector p.
  3. fuse_low_level    - the waterfall 1x1 (wf.out) over the four maps and p,
                         plus the projected low-level map, then two more 1x1
                         stages, the last cutting the width to final_width. No
                         nonlinearity sits between these four 1x1 layers, so the
                         stage runs as the one affine map they compose to
                         (head_projection), y = sum_i A_i branch_i + B low +
                         (A_p p + c), p a per-image bias; exact in real
                         arithmetic.
  4. heads             - a keypoint head (adaptive conv, sigmoid scores for
                         each joint plus a person-center channel) and a
                         disentangled offset head (one adaptive-conv group per
                         keypoint regressing a 2-vector toward that joint). The
                         keypoint head runs densely (full_map_heads). The
                         offset head (offset_head) runs at given pixels alone,
                         their columns gathered on the tape: the centre peaks
                         decode reads, or the pixels training supervises.

An adaptive convolution displaces the nine taps of a 3x3 kernel per pixel;
the displacements come from a 1x1 predictor emitting a 2x2 matrix and a
translation applied to the canonical tap grid.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import FeaturePyramid

# canonical 3x3 tap grid, row-major: (-1,-1), (-1,0), ... (1,1)
TAP_GRID = np.array([(r, c) for r in (-1, 0, 1) for c in (-1, 0, 1)], dtype=np.float64)

# bias that makes the affine predictor emit exactly the canonical grid
IDENTITY_AFFINE = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])

# linear map from the affine parameters (a_rr, a_rc, a_cr, a_cc, t_r, t_c) to
# the 18 tap displacements: row 2i is tap i's row, row 2i+1 its column
TAP_AFFINE = np.zeros((18, 6))
TAP_AFFINE[0::2, 0:2] = TAP_GRID
TAP_AFFINE[1::2, 2:4] = TAP_GRID
TAP_AFFINE[0::2, 4] = 1.0
TAP_AFFINE[1::2, 5] = 1.0


@dataclass(frozen=True)
class WaterfallConfig:
    """Widths for the whole head. With the pyramid's level and low-level
    widths (backbone.PyramidConfig), every kernel shape follows from these
    fields alone (model.weight_shapes)."""

    dilations: tuple = (1, 6, 12, 18)
    branch_width: int = 128
    out_width: int = 480       # width after the waterfall 1x1
    final_width: int = 120     # width entering the heads
    keypoints: int = 17
    group_width: int = 15

    def __post_init__(self):
        if len(self.dilations) != 4 or any(d < 1 for d in self.dilations):
            raise ValueError(f"need 4 positive dilation rates, got {self.dilations}")
        for name in ("branch_width", "out_width", "final_width", "group_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"waterfall {name} must be positive, got "
                                 f"{getattr(self, name)}")
        if self.keypoints < 1:
            raise ValueError("need at least one keypoint")
        if self.final_width < self.keypoints:
            raise ValueError(
                f"final width {self.final_width} cannot support {self.keypoints} "
                "regression groups")

    @property
    def heatmap_channels(self) -> int:
        return self.keypoints + 1

    @property
    def offset_channels(self) -> int:
        return 2 * self.keypoints


@dataclass
class PoseMaps:
    """Network output at base resolution: per-joint (plus center) score maps
    in (0,1), and offsets_at, a function of P pixel rows and columns (ys, xs)
    that gives the per-keypoint (dx, dy) offsets at those pixels, (N, 2K, P)."""

    heatmaps: np.ndarray
    offsets_at: Callable


# ---------------------------------------------------------------------------
# stages 1 and 2: the pyramid's first waterfall branch, and the cascade

def pyramid_branch(levels, w: np.ndarray, b: np.ndarray, dilation: int):
    """The first waterfall branch before its ReLU: the dilated 3x3 conv
    (w, b) over the fused pyramid, the concat of level 0 and levels 1..3
    resized to level-0 extents, worked out without forming that concat.

    Level 0 is a conv2d with the weight's first channels. Level l mixes its
    channels at its own extents, Z = W_l X_l with W_l the level's
    (Cout * taps, C_l) tap-major weight matrix, and only the Cout-wide Z is
    upsampled: the tap at offsets (di, dj) reads the resized map R_h X R_w^T
    shifted with zero fill, which is (S_di R_h) X (S_dj R_w)^T for R with
    its rows shifted (tensor.resize_matrix). So level l adds
    sum_t (S_di R_h) Z_t (S_dj R_w)^T, taken as two matmuls with the taps
    stacked along one axis of each. A tap whose shift puts it wholly in the
    padding is left out, as conv2d leaves it out. This equals the conv over
    the concat in real arithmetic; in floating point the sums are
    re-associated. Returns (y, cache).
    """
    x0 = levels[0]
    n, c0, h, wd = x0.shape
    cout = w.shape[0]
    cin = sum(x.shape[1] for x in levels)
    if w.ndim != 4 or w.shape[1] != cin:
        raise T.ShapeError(f"weight {w.shape} does not read the pyramid's {cin} channels")
    spec = T.ConvSpec(dilation=dilation)
    y = T.conv2d(x0, w[:, :c0], b, spec)
    # the live taps of each axis: all three, or the centre alone once the
    # outer two fall wholly in the padding
    rows, cols = (slice(0, 3) if dilation < size else slice(1, 2) for size in (h, wd))
    ki, kj = rows.stop - rows.start, cols.stop - cols.start
    # (Cout, ki, kj, Cin): each level's GEMM matrix is a view of its channels
    wt = np.ascontiguousarray(w.transpose(0, 2, 3, 1)[:, rows, cols])
    levels_cache = []
    lo = c0
    for x in levels[1:]:
        c, hl, wl = x.shape[1:]
        m = wt[..., lo:lo + c].reshape(cout * ki * kj, c)
        z = np.matmul(m, x.reshape(n, c, hl * wl)).reshape(n, cout, ki, kj, hl, wl)
        z = z.transpose(0, 1, 2, 4, 3, 5).reshape(-1, kj * wl)
        rh = np.concatenate([T.resize_matrix(hl, h, (i - 1) * dilation, x.dtype)
                             for i in range(rows.start, rows.stop)], axis=1)
        rw = np.concatenate([T.resize_matrix(wl, wd, (j - 1) * dilation, x.dtype).T
                             for j in range(cols.start, cols.stop)], axis=0)
        y += np.matmul(rh, np.matmul(z, rw).reshape(n, cout, ki * hl, wd))
        levels_cache.append((x, m, rh, rw))
        lo += c
    return y, (x0, w, spec, rows, cols, levels_cache)


def pyramid_branch_backward(cache, gy):
    """Gradients w.r.t. each level, at its own extents, then the weight and
    the bias: the adjoints of pyramid_branch's matmuls, level by level."""
    x0, w, spec, rows, cols, levels_cache = cache
    n, cout, h, wd = gy.shape
    c0 = x0.shape[1]
    ki, kj = rows.stop - rows.start, cols.stop - cols.start
    gx0, gw0, gb = T.conv2d_backward(x0, w[:, :c0], spec, gy)
    gw = np.zeros_like(w)
    gw[:, :c0] = gw0
    grads = [gx0]
    lo = c0
    for x, m, rh, rw in levels_cache:
        c, hl, wl = x.shape[1:]
        gp = np.matmul(rh.T, gy).reshape(-1, wd)
        gz = np.matmul(gp, rw.T).reshape(n, cout, ki, hl, kj, wl)
        gz = gz.transpose(0, 1, 2, 4, 3, 5).reshape(n, -1, hl * wl)
        grads.append(np.matmul(m.T, gz).reshape(x.shape))
        gm = T.column_gradient(gz, x.reshape(n, c, hl * wl)).reshape(cout, ki, kj, c)
        gw[:, lo:lo + c, rows, cols] = gm.transpose(0, 3, 1, 2)
        lo += c
    return (*grads, gw, gb)


def waterfall_forward(p: FeaturePyramid, weights: dict, cfg: WaterfallConfig, tape):
    """Cascade of dilated 3x3 convolutions plus a pooled branch over the
    fused pyramid.

    The first branch reads the pyramid through pyramid_branch, recorded on
    the tape as one kernel; each branch output feeds the next branch. The
    pooled branch pools each level: an integer-factor bilinear upsample
    spreads every input pixel over the same total weight, so a resized
    level's mean is the level's own. Returns (the four branch outputs, the
    pooled branch's (N, cfg.branch_width, 1, 1) wf.pool output); the 1x1
    that brings them to cfg.out_width runs in fuse_low_level.
    """
    n, _, h, w = p.levels[0].shape
    for lv, f in enumerate(p.levels):
        if (f.shape[0], f.shape[2] << lv, f.shape[3] << lv) != (n, h, w):
            raise T.ShapeError(
                f"pyramid level {lv} has shape {f.shape}; it must hold {n} maps whose "
                f"extents times {1 << lv} are level 0's {h}x{w}")
    names = ("wf.branch0.w", "wf.branch0.b")
    y, cache = pyramid_branch(p.levels, *(weights[name] for name in names),
                              cfg.dilations[0])
    x = tape.relu(tape.record(y, (*p.levels, *names),
                              lambda gy: pyramid_branch_backward(cache, gy)))
    branches = [x]
    for i, d in enumerate(cfg.dilations[1:], start=1):
        x = tape.relu(tape.conv(x, weights, f"wf.branch{i}", T.ConvSpec(dilation=d)))
        branches.append(x)
    pooled = tape.concat([tape.pool(f) for f in p.levels])
    return branches, tape.conv(pooled, weights, "wf.pool")


# ---------------------------------------------------------------------------
# stage 3: low-level fusion and reduction

# the weights and biases of stage 3's 1x1 layers, in the order head_projection
# takes them: llf.out(llf.mid(wf.out(cat) + llf.proj(low_level)))
HEAD_PROJECTION_WEIGHTS = ("wf.out.w", "wf.out.b", "llf.proj.w", "llf.proj.b",
                           "llf.mid.w", "llf.mid.b", "llf.out.w", "llf.out.b")


def _layer_matrix(layer: str, w: np.ndarray, b: np.ndarray, cin: int) -> np.ndarray:
    """The (Cout, Cin) matrix of a 1x1 conv that reads cin channels."""
    if w.shape[1:] != (cin, 1, 1) or b.shape != w.shape[:1]:
        raise T.ShapeError(
            f"{layer} must be a 1x1 conv over {cin} channels with one bias per "
            f"output, got weight {w.shape} and bias {b.shape}")
    return w.reshape(w.shape[0], cin)


def head_projection(branches, pooled: np.ndarray, low_level: np.ndarray, params):
    """Stage 3 as one affine map: y = sum_i A_i @ branch_i + B @ low_level
    + (A_p @ p + c) per pixel, with p the (N, C, 1, 1) pooled branch.

    The layers read cat, the branches and p upsampled to their extents, whose
    upsample from 1x1 is an exact broadcast: so p is a per-image bias and cat
    is never formed. params are the eight arrays named by
    HEAD_PROJECTION_WEIGHTS. With M(.) the (Cout, Cin) matrix of a 1x1 weight,
    O = M(llf.out) M(llf.mid), A = O M(wf.out), whose column-block views A_i
    and A_p read cat's parts, B = O M(llf.proj) and
    c = O (b_wf + b_proj) + M(llf.out) b_mid + b_out, which equals the layered
    chain in real arithmetic; in floating point the sums are re-associated.
    Returns (y, cache).
    """
    w_wf, b_wf, w_proj, b_proj, w_mid, b_mid, w_out, b_out = params
    n, _, h, w = low_level.shape
    parts = [x.reshape(n, x.shape[1], h * w) for x in branches]
    p = pooled.reshape(n, pooled.shape[1])
    bounds = np.cumsum([0] + [x.shape[1] for x in parts] + [p.shape[1]]).tolist()
    m_wf = _layer_matrix("wf.out", w_wf, b_wf, bounds[-1])
    m_proj = _layer_matrix("llf.proj", w_proj, b_proj, low_level.shape[1])
    if m_proj.shape[0] != m_wf.shape[0]:
        raise T.ShapeError(
            f"llf.proj gives {m_proj.shape[0]} channels, wf.out gives {m_wf.shape[0]}")
    m_mid = _layer_matrix("llf.mid", w_mid, b_mid, m_wf.shape[0])
    m_out = _layer_matrix("llf.out", w_out, b_out, m_mid.shape[0])
    o = np.matmul(m_out, m_mid)
    a = np.matmul(o, m_wf)
    blocks = [a[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    b = np.matmul(o, m_proj)
    s = b_wf + b_proj
    c = np.matmul(o, s) + np.matmul(m_out, b_mid) + b_out
    low3 = low_level.reshape(n, low_level.shape[1], h * w)
    y = np.matmul(b, low3)
    for a_i, x3 in zip(blocks[:-1], parts):
        y += np.matmul(a_i, x3)
    y += (np.matmul(p, blocks[-1].T) + c)[:, :, None]
    return y.reshape(n, -1, h, w), (params, (m_wf, m_proj, m_mid, m_out), o, blocks, b, s,
                                    parts, p, low3)


def head_projection_backward(cache, gy):
    """Gradients w.r.t. each branch, the pooled p, low_level and the eight
    weights, in head_projection's order. G_A gathers one column block per
    branch and G_A_p = (sum over pixels of G)^T p; G_B is the gradient of B,
    and the chain rule runs back through A, B and c to O and the four layers."""
    params, (m_wf, m_proj, m_mid, m_out), o, blocks, b, s, parts, p, low3 = cache
    b_mid = params[5]
    n, f, h, w = gy.shape
    g = gy.reshape(n, f, h * w)
    g_bias = g.sum(axis=2)                  # (N, F): each image's bias gradient
    g_c = g_bias.sum(axis=0)
    g_a = np.concatenate([T.column_gradient(g, x3) for x3 in parts]
                         + [np.matmul(g_bias.T, p)], axis=1)
    g_b = T.column_gradient(g, low3)
    g_parts = [np.matmul(a_i.T, g).reshape(n, -1, h, w) for a_i in blocks[:-1]]
    g_pooled = np.matmul(g_bias, blocks[-1]).reshape(n, -1, 1, 1)
    g_low = np.matmul(b.T, g).reshape(n, -1, h, w)
    g_o = np.matmul(g_a, m_wf.T) + np.matmul(g_b, m_proj.T) + np.outer(g_c, s)
    g_s = np.matmul(o.T, g_c)
    grads = (np.matmul(o.T, g_a), g_s, np.matmul(o.T, g_b), g_s.copy(),
             np.matmul(m_out.T, g_o), np.matmul(m_out.T, g_c),
             np.matmul(g_o, m_mid.T) + np.outer(g_c, b_mid), g_c)
    return (*g_parts, g_pooled, g_low) + tuple(gp.reshape(param.shape)
                                               for gp, param in zip(grads, params))


def fuse_low_level(low_level: np.ndarray, branches, pooled: np.ndarray,
                   weights: dict, tape):
    """The waterfall 1x1 over stage 2's four branches and pooled branch,
    plus the low-level map projected to the same width, then two 1x1 stages,
    the last reducing to the final width: head_projection, recorded on the
    tape as one kernel. Returns f_maps."""
    if any(x.shape[2:] != low_level.shape[2:] for x in branches) or pooled.shape[2:] != (1, 1):
        raise T.ShapeError(f"stage 3 needs the branches at the low-level extents "
                           f"{low_level.shape[2:]} and a 1x1 pooled branch, got "
                           f"{[x.shape for x in (*branches, pooled)]}")
    params = tuple(weights[name] for name in HEAD_PROJECTION_WEIGHTS)
    y, cache = head_projection(branches, pooled, low_level, params)
    return tape.record(y, (*branches, pooled, low_level, *HEAD_PROJECTION_WEIGHTS),
                       lambda gy: head_projection_backward(cache, gy))


def fused_features(p: FeaturePyramid, weights: dict, cfg: WaterfallConfig, tape):
    """Stages 1 to 3: waterfall over the pyramid -> low-level fusion.
    Returns the f_maps the heads read."""
    branches, pooled = waterfall_forward(p, weights, cfg, tape)
    return fuse_low_level(p.low_level, branches, pooled, weights, tape)


# ---------------------------------------------------------------------------
# adaptive convolution

def affine_to_offsets(params: np.ndarray) -> np.ndarray:
    """Expand per-pixel affine parameters (N,6,h,w) into tap displacements.

    params channels are (a_rr, a_rc, a_cr, a_cc, t_r, t_c); tap i of the
    canonical grid p_i maps to A @ p_i + t. Output is (N,18,h,w) with channel
    2i the row displacement of tap i and 2i+1 the column displacement.
    """
    n, c, h, w = params.shape
    if c != 6:
        raise T.ShapeError(f"affine parameters need 6 channels, got {c}")
    taps = np.matmul(TAP_AFFINE.astype(params.dtype), params.reshape(n, 6, h * w))
    return taps.reshape(n, 18, h, w)


def affine_to_offsets_backward(g_offsets: np.ndarray) -> np.ndarray:
    n, c, h, w = g_offsets.shape
    g = np.matmul(TAP_AFFINE.T.astype(g_offsets.dtype), g_offsets.reshape(n, 18, h * w))
    return g.reshape(n, 6, h, w)


def predict_offsets(features: np.ndarray, weights: dict, name: str, tape):
    """1x1 predictor emitting 6 affine parameters per pixel, expanded to the
    18-channel tap displacement field. Returns the offsets."""
    params = tape.conv(features, weights, name)
    return tape.record(affine_to_offsets(params), (params,),
                       lambda g: (affine_to_offsets_backward(g),))


def canonical_offsets(n: int, h: int, w: int, dtype=np.float32) -> np.ndarray:
    """Tap displacements that make adaptive_conv read the regular 3x3 grid:
    the identity affine expanded, exact since every product is of 0 or +-1."""
    identity = IDENTITY_AFFINE.astype(dtype).reshape(1, 6, 1, 1)
    return affine_to_offsets(np.broadcast_to(identity, (n, 6, h, w)))


def adaptive_conv(x: np.ndarray, w9: np.ndarray, offsets: np.ndarray, ys, xs):
    """3x3 convolution whose nine taps are displaced per output point.

    y(c) = sum_i  w_i @ x(c + g_i(c)), with x read bilinearly and zero
    outside. The points c are the pixel rows ys and columns xs, broadcast to
    one grid: np.ogrid[:h, :w] for every pixel of x, or two (1, P) arrays for
    P pixels. offsets is (N, 18, *grid), each point's per-tap (row, col)
    displacements, and y is a (N, Cout, *grid) map whose taps read all of x.
    Returns (y, cache).
    """
    n, cin = x.shape[:2]
    base_r, base_c = (np.asarray(v, dtype=np.float64) for v in (ys, xs))
    grid = np.broadcast_shapes(base_r.shape, base_c.shape)
    if offsets.shape != (n, 18, *grid):
        raise T.ShapeError(
            f"offsets must be (N, 18, {grid[0]}, {grid[1]}), got {offsets.shape}")
    if w9.shape[1] != cin or w9.shape[2:] != (3, 3):
        raise T.ShapeError(f"tap weights {w9.shape} do not match input {x.shape}")
    rows = base_r + offsets[:, 0::2].astype(np.float64)   # (N, 9, *grid)
    cols = base_c + offsets[:, 1::2].astype(np.float64)
    sampled, scache = T.bilinear_sample(x, rows, cols)
    # one GEMM over the (N, Cin*9, points) column matrix of sampled taps
    sampled = sampled.reshape(n, cin * 9, -1)
    y = np.matmul(w9.reshape(w9.shape[0], cin * 9), sampled)
    return y.reshape(n, w9.shape[0], *grid), (w9, sampled, scache)


def adaptive_conv_backward(cache, gy):
    """Gradients w.r.t. the input, the tap weights, and the offset field."""
    w9, sampled, scache = cache
    n, cout, h, w = gy.shape
    cin = w9.shape[1]
    gy3 = gy.reshape(n, cout, h * w)
    gw9 = T.column_gradient(gy3, sampled).reshape(w9.shape)
    g_sampled = np.matmul(w9.reshape(cout, cin * 9).T, gy3)
    gx, grows, gcols = T.bilinear_sample_backward(
        scache, g_sampled.reshape(n, cin, 9, h, w))
    g_off = np.empty((n, 18, h, w), dtype=gy.dtype)
    g_off[:, 0::2] = grows.astype(gy.dtype)
    g_off[:, 1::2] = gcols.astype(gy.dtype)
    return gx, gw9, g_off


# ---------------------------------------------------------------------------
# stage 4: heads

# the offset head runs its GEMMs over a multiple of this many pixel columns.
# OpenBLAS sums a column's products in one order inside its full 16-wide
# (float32) or 8-wide (float64) column blocks and in another in a narrower
# tail block or a one-column matrix-vector product, so without the padding a
# pixel's offsets could differ in the last bits with the number of pixels run
# beside it: the centre peaks infer reads would then not equal the
# every-pixel field there. A divisor-padded image's map has h*w a multiple of
# 64, all in full blocks.
POINT_BLOCK = 16


def _adaptive_branch(tape, x: np.ndarray, feats: np.ndarray, ys, xs, weights: dict,
                     prefix: str) -> np.ndarray:
    """Tap predictor over feats, x's columns at the points (ys, xs) as
    adaptive_conv takes them, then the adaptive conv over x at those points,
    ReLU and the 1x1 out: one head branch, with the adaptive conv recorded on
    the tape like any other kernel."""
    offsets = predict_offsets(feats, weights, prefix + ".taps", tape)
    name = prefix + ".adapt.w"
    y, cache = adaptive_conv(x, weights[name], offsets, ys, xs)
    y = tape.record(y, (x, name, offsets), lambda gy: adaptive_conv_backward(cache, gy))
    return tape.conv(tape.relu(y), weights, prefix + ".out")


def full_map_heads(f_maps: np.ndarray, weights: dict, tape):
    """The part of stage 4 that runs over the whole map in every pass: the
    keypoint head (offset-predicted adaptive conv, ReLU, 1x1 to the score
    channels, sigmoid), whose centre channel NMS reads in full, and the
    offset head's 1x1 expansion into per-keypoint groups, whose adaptive
    convs may sample it anywhere. Returns (heatmaps, expanded)."""
    h, w = f_maps.shape[2:]
    heat = tape.sigmoid(_adaptive_branch(tape, f_maps, f_maps, *np.ogrid[:h, :w], weights,
                                         "head.kp"))
    return heat, tape.conv(f_maps, weights, "head.off.expand")


def _pad_columns(gy: np.ndarray, shape) -> np.ndarray:
    """The adjoint of keeping the first columns of a (N, C, 1, M) map of this
    shape: gy's columns, then zeros."""
    cols = gy.reshape(*shape[:3], -1)
    g = np.zeros(shape, dtype=gy.dtype)
    g[..., :cols.shape[-1]] = cols
    return g


def offset_head(expanded: np.ndarray, weights: dict, cfg: WaterfallConfig, tape, ys, xs):
    """The disentangled offset head over full_map_heads' expanded map at P
    pixels, ys and xs two integer arrays of their rows and columns (repeats
    allowed): per keypoint group, its own adaptive conv and 1x1 down to a
    (dx, dy) pair. Returns their (N, 2K, P) offsets.

    Every group's branch runs on the P pixel columns, padded to a multiple
    of POINT_BLOCK with repeats of the last pixel; the padding is cut off on
    the tape, so it carries no gradient. Runs on a recording Tape or a
    ForwardTape alike.
    """
    h, w = expanded.shape[2:]
    if ys.ndim != 1 or ys.shape != xs.shape or not ys.size \
            or min(ys.min(), xs.min()) < 0 or ys.max() >= h or xs.max() >= w:
        raise T.ShapeError(f"the offset head needs one or more pixels of its {h}x{w} "
                           f"map, two 1-d arrays of one length")
    pad = -ys.size % POINT_BLOCK
    cols = tuple(np.concatenate([v, np.repeat(v[-1:], pad)]) for v in (ys, xs))
    points = tuple(v.reshape(1, -1) for v in cols)
    groups = tape.split(expanded, [cfg.group_width] * cfg.keypoints)
    offsets = tape.concat(_adaptive_branch(tape, feat, tape.gather(feat, *cols), *points,
                                           weights, f"head.off.g{k}")
                          for k, feat in enumerate(groups))
    return tape.record(offsets[:, :, 0, :ys.size], (offsets,),
                       lambda gy: (_pad_columns(gy, offsets.shape),))
