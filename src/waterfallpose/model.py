"""Full network: image -> feature pyramid -> waterfall head -> pose maps.

Weights live in one flat dict keyed by layer name, which keeps the optimizer,
the checkpoint writer, and gradient bookkeeping trivial.
"""

from __future__ import annotations

import numpy as np

from .backbone import PyramidConfig, init_backbone_weights, backbone_forward, \
    backbone_backward
from .waterfall import WaterfallConfig, init_waterfall_weights, \
    waterfall_module_forward, waterfall_module_backward


def check_widths(pyr: PyramidConfig, wf: WaterfallConfig):
    if tuple(wf.level_widths) != tuple(pyr.widths):
        raise ValueError(
            f"head expects level widths {wf.level_widths}, backbone provides {pyr.widths}")
    if wf.low_level_width != pyr.low_level_width:
        raise ValueError(
            f"head expects a {wf.low_level_width}-channel low-level map, backbone "
            f"provides {pyr.low_level_width}")


def init_model_weights(pyr: PyramidConfig, wf: WaterfallConfig, seed: int,
                       dtype=np.float32, offset_init="canonical") -> dict:
    check_widths(pyr, wf)
    rng = np.random.default_rng(seed)
    weights = init_backbone_weights(pyr, rng, dtype=dtype)
    weights.update(init_waterfall_weights(wf, rng, dtype=dtype, offset_init=offset_init))
    return weights


def model_forward(image: np.ndarray, weights: dict, pyr: PyramidConfig,
                  wf: WaterfallConfig):
    pyramid, bb_cache = backbone_forward(image, weights, pyr)
    maps, wf_cache = waterfall_module_forward(pyramid, weights, wf)
    return maps, {"bb": bb_cache, "wf": wf_cache}


def model_backward(cache, g_heat, g_offsets, weights, pyr: PyramidConfig,
                   wf: WaterfallConfig):
    """Returns (grads dict covering every weight, gradient on the image)."""
    grads = {k: np.zeros_like(v) for k, v in weights.items()
             if not k.startswith("backbone.")}
    g_levels, g_low = waterfall_module_backward(cache["wf"], g_heat, g_offsets,
                                                weights, wf, grads)
    bb_grads, g_image = backbone_backward(cache["bb"], g_levels, g_low, weights)
    grads.update(bb_grads)
    return grads, g_image
