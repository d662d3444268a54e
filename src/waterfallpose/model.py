"""Full network: image -> feature pyramid -> waterfall head -> pose maps.

weight_entries lists the weights the configs imply, by name, shape and draw
order, and weight_shapes is its table: init draws from it, the config's size
budget counts it and infer holds a checkpoint to it. Weights live in one dict
keyed by layer name, which the checkpoint writer and the gradients share;
training copies them into the optimizer's flat arena and trains its views
(train.init_optim_state). The layers are written forward only: each kernel
they run is recorded on a tensor.Tape with its analytic backward, and the
backward pass is one replay of that tape (tensor.Tape.backward).
"""

from __future__ import annotations

import math

import numpy as np

from .backbone import PyramidConfig, backbone_forward
from .tensor import Tape
from .waterfall import IDENTITY_AFFINE, PoseMaps, WaterfallConfig, full_map_heads, \
    fused_features, offset_head


def weight_entries(pyr: PyramidConfig, wf: WaterfallConfig):
    """(name, shape) of every weight, in draw order, one at a time, so that a
    bound can read a prefix. A layer is a kernel (Cout, Cin, k, k) and a bias
    (Cout,); an adaptive conv has no bias. The head reads the pyramid levels'
    and low-level widths."""
    def layer(name, cout, cin, k=1, bias=True):
        yield name + ".w", (cout, cin, k, k)
        if bias:
            yield name + ".b", (cout,)

    for i in range(pyr.stem_convs):
        yield from layer(f"backbone.stem.{i}", pyr.stem_width, pyr.stem_width if i else 3, 3)
    for lv, width in enumerate(pyr.widths):
        for j in range(lv + pyr.num_blocks):
            yield from layer(f"backbone.level{lv}.{j}", width,
                             width if j else pyr.low_level_width, 3)
    fused, branch, out, f, g = (sum(pyr.widths), wf.branch_width, wf.out_width,
                                wf.final_width, wf.group_width)
    for i in range(len(wf.dilations)):
        yield from layer(f"wf.branch{i}", branch, branch if i else fused, 3)
    yield from layer("wf.pool", branch, fused)
    yield from layer("wf.out", out, 5 * branch)
    yield from layer("llf.proj", out, pyr.low_level_width)
    yield from layer("llf.mid", out, out)
    yield from layer("llf.out", f, out)
    yield from layer("head.kp.taps", 6, f)
    yield from layer("head.kp.adapt", f, f, 3, bias=False)
    yield from layer("head.kp.out", wf.heatmap_channels, f)
    yield from layer("head.off.expand", wf.keypoints * g, f)
    for k in range(wf.keypoints):
        yield from layer(f"head.off.g{k}.taps", 6, g)
        yield from layer(f"head.off.g{k}.adapt", g, g, 3, bias=False)
        yield from layer(f"head.off.g{k}.out", 2, g)


def weight_shapes(pyr: PyramidConfig, wf: WaterfallConfig) -> dict:
    """{name: shape} of every weight, in draw order; allocates no weight."""
    return dict(weight_entries(pyr, wf))


def draw_weights(shapes: dict, rng: np.random.Generator, dtype=np.float32,
                 offset_init="canonical") -> dict:
    """Weights for a shape table, drawn from rng in its order: He-scaled
    kernels (zero with no fan-in) and zero biases. A tap predictor (".taps")
    under offset_init "canonical" has its drawn kernel zeroed and the identity
    affine as bias, so training starts from plain 3x3 convolutions; "random"
    keeps the kernel and draws the bias too (used by gradient checks)."""
    if offset_init not in ("canonical", "random"):
        raise ValueError(f"unknown offset_init {offset_init!r}")
    weights = {}
    for name, shape in shapes.items():
        if len(shape) == 4:
            fan_in = math.prod(shape[1:])
            std = np.sqrt(2.0 / fan_in) if fan_in else 0.0
            w = (rng.standard_normal(shape) * std).astype(dtype)
            if offset_init == "canonical" and name.endswith(".taps.w"):
                w[:] = 0.0
        elif not name.endswith(".taps.b"):
            w = np.zeros(shape, dtype=dtype)
        elif offset_init == "canonical":
            w = IDENTITY_AFFINE.astype(dtype)
        else:
            w = (rng.standard_normal(shape) * 0.3).astype(dtype)
        weights[name] = w
    return weights


def init_model_weights(pyr: PyramidConfig, wf: WaterfallConfig, seed: int,
                       dtype=np.float32, offset_init="canonical") -> dict:
    return draw_weights(weight_shapes(pyr, wf), np.random.default_rng(seed), dtype,
                        offset_init)


def model_forward(image: np.ndarray, weights: dict, pyr: PyramidConfig,
                  wf: WaterfallConfig, tape=None):
    """The one forward: backbone, waterfall stages 1 to 3 and the full-map
    heads on one tape, a new recording tensor.Tape by default, or a
    tensor.ForwardTape for a pass never replayed (infer), which keeps no
    kernel cache. Returns (PoseMaps, tape); the maps' offsets_at(ys, xs)
    runs waterfall.offset_head at those pixels on the same tape and returns
    its recorded (N, 2K, P) node, at which a replay is seeded."""
    tape = Tape() if tape is None else tape
    f_maps = fused_features(backbone_forward(image, weights, pyr, tape), weights, wf, tape)
    heat, expanded = full_map_heads(f_maps, weights, tape)
    return PoseMaps(heat, lambda ys, xs: offset_head(expanded, weights, wf, tape, ys, xs)), tape
