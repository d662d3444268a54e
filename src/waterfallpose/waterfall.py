"""Waterfall pose head: pyramid fusion, cascaded dilated convolutions,
low-level fusion, and adaptive-convolution keypoint/offset heads.

The module runs at base resolution throughout. Stages:

  1. fuse_pyramid      - upsample levels 1..3 to level-0 extents, concatenate.
  2. waterfall_forward - four sequential 3x3 convolutions at increasing
                         dilation, each feeding the next; their outputs plus a
                         pooled branch are concatenated and reduced by 1x1.
  3. fuse_low_level    - project the low-level map, add, two more 1x1 stages,
                         the last cutting the width to a quarter of the fused
                         input width.
  4. heads_forward     - a keypoint head (adaptive conv, sigmoid scores for
                         each joint plus a person-center channel) and a
                         disentangled offset head (one adaptive-conv group per
                         keypoint regressing a 2-vector toward that joint).

An adaptive convolution displaces the nine taps of a 3x3 kernel per pixel;
the displacements come from a 1x1 predictor emitting a 2x2 matrix and a
translation applied to the canonical tap grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import FeaturePyramid

S1 = T.ConvSpec(1, 1)

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
    """Widths for the whole head; every kernel shape follows from these
    fields alone."""

    level_widths: tuple = (32, 64, 128, 256)
    low_level_width: int = 32
    dilations: tuple = (1, 6, 12, 18)
    branch_width: int = 128
    out_width: int | None = None       # width after the waterfall 1x1, default fused
    final_width: int | None = None     # width entering the heads, default fused // 4
    keypoints: int = 17
    group_width: int = 15

    def __post_init__(self):
        if len(self.level_widths) != 4 or any(c < 0 for c in self.level_widths):
            raise ValueError(f"need 4 non-negative level widths, got {self.level_widths}")
        if self.fused_width < 1:
            raise ValueError("at least one pyramid level must have channels")
        if len(self.dilations) != 4 or any(d < 1 for d in self.dilations):
            raise ValueError(f"need 4 positive dilation rates, got {self.dilations}")
        if self.branch_width < 1 or self.low_level_width < 1:
            raise ValueError("branch and low-level widths must be positive")
        if self.keypoints < 1:
            raise ValueError("need at least one keypoint")
        if self.group_width < 1:
            raise ValueError("regression group width must be positive")
        if self.head_width < self.keypoints:
            raise ValueError(
                f"final width {self.head_width} cannot support {self.keypoints} "
                "regression groups")

    @property
    def fused_width(self) -> int:
        return sum(self.level_widths)

    @property
    def waterfall_width(self) -> int:
        return self.out_width if self.out_width is not None else self.fused_width

    @property
    def head_width(self) -> int:
        return self.final_width if self.final_width is not None else self.fused_width // 4

    @property
    def heatmap_channels(self) -> int:
        return self.keypoints + 1

    @property
    def offset_channels(self) -> int:
        return 2 * self.keypoints


@dataclass
class PoseMaps:
    """Network output: per-joint (plus center) score maps in (0,1), and the
    per-keypoint (dx, dy) offset field, both at base resolution."""

    heatmaps: np.ndarray
    offsets: np.ndarray


def init_waterfall_weights(cfg: WaterfallConfig, rng: np.random.Generator,
                           dtype=np.float32, offset_init="canonical") -> dict:
    """Build every kernel of the head.

    offset_init "canonical" zeroes the tap predictors and biases them to the
    identity affine, so training starts from plain 3x3 convolutions;
    "random" draws them like any other layer (used by gradient checks).
    """
    weights = {}

    def conv(name, cout, cin, k=1):
        std = np.sqrt(2.0 / (cin * k * k))
        weights[name + ".w"] = (rng.standard_normal((cout, cin, k, k)) * std).astype(dtype)
        weights[name + ".b"] = np.zeros(cout, dtype=dtype)

    def predictor(name, cin):
        conv(name, 6, cin)
        if offset_init == "canonical":
            weights[name + ".w"][:] = 0.0
            weights[name + ".b"][:] = IDENTITY_AFFINE.astype(dtype)
        elif offset_init == "random":
            weights[name + ".b"][:] = (rng.standard_normal(6) * 0.3).astype(dtype)
        else:
            raise ValueError(f"unknown offset_init {offset_init!r}")

    def adaptive(name, cout, cin):
        std = np.sqrt(2.0 / (cin * 9))
        weights[name + ".w"] = (rng.standard_normal((cout, cin, 3, 3)) * std).astype(dtype)

    prev = cfg.fused_width
    for i, d in enumerate(cfg.dilations):
        conv(f"wf.branch{i}", cfg.branch_width, prev, k=3)
        prev = cfg.branch_width
    conv("wf.pool", cfg.branch_width, cfg.fused_width)
    conv("wf.out", cfg.waterfall_width, 5 * cfg.branch_width)
    conv("llf.proj", cfg.waterfall_width, cfg.low_level_width)
    conv("llf.mid", cfg.waterfall_width, cfg.waterfall_width)
    conv("llf.out", cfg.head_width, cfg.waterfall_width)

    f = cfg.head_width
    predictor("head.kp.taps", f)
    adaptive("head.kp.adapt", f, f)
    conv("head.kp.out", cfg.heatmap_channels, f)
    g = cfg.group_width
    conv("head.off.expand", cfg.keypoints * g, f)
    for k in range(cfg.keypoints):
        predictor(f"head.off.g{k}.taps", g)
        adaptive(f"head.off.g{k}.adapt", g, g)
        conv(f"head.off.g{k}.out", 2, g)
    return weights


# ---------------------------------------------------------------------------
# stage 1: pyramid fusion

def fuse_pyramid(p: FeaturePyramid, tape):
    """Resize levels 1..3 to level-0 extents and concatenate in level order.

    A zero-width level adds no channels but stays in the concat, so the
    replay still reaches its (empty) weights. Returns g0.
    """
    h, w = p.base_extents()
    return tape.concat([f if lv == 0 else tape.resize(f, h, w)
                        for lv, f in enumerate(p.levels)])


# ---------------------------------------------------------------------------
# stage 2: waterfall cascade

def waterfall_forward(g0: np.ndarray, weights: dict, cfg: WaterfallConfig, tape):
    """Cascade of dilated 3x3 convolutions plus a pooled branch.

    Each branch output feeds the next branch; the four branch outputs and the
    pooled branch are concatenated and a 1x1 brings the width to
    cfg.waterfall_width. Returns f_waterfall.
    """
    if g0.shape[1] != cfg.fused_width:
        raise T.ShapeError(
            f"fused input has {g0.shape[1]} channels, config says {cfg.fused_width}")
    x = g0
    outs = []
    for i, d in enumerate(cfg.dilations):
        spec = T.ConvSpec(3, 3, pad_h=d, pad_w=d, dilation=d)
        x = tape.relu(tape.conv(x, weights, f"wf.branch{i}", spec))
        outs.append(x)
    pooled = tape.conv(tape.pool(g0), weights, "wf.pool", S1)
    outs.append(tape.resize(pooled, g0.shape[2], g0.shape[3]))
    return tape.conv(tape.concat(outs), weights, "wf.out", S1)


# ---------------------------------------------------------------------------
# stage 3: low-level fusion and reduction

def fuse_low_level(low_level: np.ndarray, f_waterfall: np.ndarray,
                   weights: dict, cfg: WaterfallConfig, tape):
    """Project the low-level map to the waterfall width, add, then two 1x1
    stages, the last reducing to cfg.head_width. Returns f_maps."""
    if low_level.shape[2:] != f_waterfall.shape[2:]:
        raise T.ShapeError(
            f"low-level extents {low_level.shape[2:]} do not match waterfall "
            f"extents {f_waterfall.shape[2:]}")
    s = tape.add(tape.conv(low_level, weights, "llf.proj", S1), f_waterfall)
    mid = tape.conv(s, weights, "llf.mid", S1)
    return tape.conv(mid, weights, "llf.out", S1)


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
    params = tape.conv(features, weights, name, S1)
    return tape.record(affine_to_offsets(params), (params,),
                       lambda g: (affine_to_offsets_backward(g),))


def canonical_offsets(n: int, h: int, w: int, dtype=np.float32) -> np.ndarray:
    """Tap displacements that make adaptive_conv read the regular 3x3 grid:
    the identity affine expanded, exact since every product is of 0 or +-1."""
    identity = IDENTITY_AFFINE.astype(dtype).reshape(1, 6, 1, 1)
    return affine_to_offsets(np.broadcast_to(identity, (n, 6, h, w)))


def adaptive_conv(x: np.ndarray, w9: np.ndarray, offsets: np.ndarray):
    """3x3 convolution whose nine taps are displaced per pixel.

    y(c) = sum_i  w_i @ x(c + g_i(c)), with x read bilinearly and zero
    outside. w9 is (Cout, Cin, 3, 3); offsets is (N, 18, h, w) holding the
    per-tap (row, col) displacements. Returns (y, cache).
    """
    n, cin, h, w = x.shape
    if offsets.shape != (n, 18, h, w):
        raise T.ShapeError(
            f"offsets must be (N, 18, {h}, {w}), got {offsets.shape}")
    if w9.shape[1] != cin or w9.shape[2:] != (3, 3):
        raise T.ShapeError(f"tap weights {w9.shape} do not match input {x.shape}")
    base_r = np.arange(h, dtype=np.float64).reshape(1, 1, h, 1)
    base_c = np.arange(w, dtype=np.float64).reshape(1, 1, 1, w)
    rows = base_r + offsets[:, 0::2].astype(np.float64)   # (N, 9, h, w)
    cols = base_c + offsets[:, 1::2].astype(np.float64)
    sampled, scache = T.bilinear_sample(x, rows, cols)
    # one GEMM over the (N, Cin*9, h*w) column matrix of sampled taps
    sampled = sampled.reshape(n, cin * 9, h * w)
    y = np.matmul(w9.reshape(w9.shape[0], cin * 9), sampled)
    return y.reshape(n, w9.shape[0], h, w), (x.shape, w9, sampled, scache)


def adaptive_conv_backward(cache, gy):
    """Gradients w.r.t. the input, the tap weights, and the offset field."""
    (n, cin, h, w), w9, sampled, scache = cache
    gy3 = gy.reshape(n, w9.shape[0], h * w)
    gw9 = T.column_gradient(gy3, sampled).reshape(w9.shape)
    g_sampled = np.matmul(w9.reshape(w9.shape[0], cin * 9).T, gy3)
    gx, grows, gcols = T.bilinear_sample_backward(
        scache, g_sampled.reshape(n, cin, 9, h, w))
    g_off = np.empty((n, 18, h, w), dtype=gy.dtype)
    g_off[:, 0::2] = grows.astype(gy.dtype)
    g_off[:, 1::2] = gcols.astype(gy.dtype)
    return gx, gw9, g_off


# ---------------------------------------------------------------------------
# stage 4: heads

def _adaptive_branch(tape, x: np.ndarray, weights: dict, prefix: str) -> np.ndarray:
    """Tap predictor, adaptive conv over x, ReLU, 1x1 out: one head branch,
    with the adaptive conv recorded on the tape like any other kernel."""
    offsets = predict_offsets(x, weights, prefix + ".taps", tape)
    name = prefix + ".adapt.w"
    y, cache = adaptive_conv(x, T.weight(weights, name), offsets)
    y = tape.record(y, (x, name, offsets), lambda gy: adaptive_conv_backward(cache, gy))
    return tape.conv(tape.relu(y), weights, prefix + ".out", S1)


def heads_forward(f_maps: np.ndarray, weights: dict, cfg: WaterfallConfig, tape):
    """Keypoint and offset heads over the fused feature map.

    Keypoint head: offset-predicted adaptive conv, ReLU, 1x1 to the score
    channels, sigmoid. Offset head: 1x1 expansion into per-keypoint groups,
    each with its own adaptive conv and 1x1 down to a (dx, dy) pair.
    Returns the PoseMaps.
    """
    if f_maps.shape[1] != cfg.head_width:
        raise T.ShapeError(
            f"head input has {f_maps.shape[1]} channels, config says {cfg.head_width}")
    heat = tape.sigmoid(_adaptive_branch(tape, f_maps, weights, "head.kp"))
    expanded = tape.conv(f_maps, weights, "head.off.expand", S1)
    groups = tape.split(expanded, [cfg.group_width] * cfg.keypoints)
    offsets = tape.concat(_adaptive_branch(tape, feat, weights, f"head.off.g{k}")
                          for k, feat in enumerate(groups))
    return PoseMaps(heat, offsets)


# ---------------------------------------------------------------------------
# full module

def waterfall_module_forward(p: FeaturePyramid, weights: dict, cfg: WaterfallConfig,
                             tape):
    """fuse_pyramid -> waterfall -> low-level fusion -> heads.
    Returns the PoseMaps."""
    g0 = fuse_pyramid(p, tape)
    f_wf = waterfall_forward(g0, weights, cfg, tape)
    f_maps = fuse_low_level(p.low_level, f_wf, weights, cfg, tape)
    return heads_forward(f_maps, weights, cfg, tape)
