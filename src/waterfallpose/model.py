"""Full network: image -> feature pyramid -> waterfall head -> pose maps.

Weights live in one flat dict keyed by layer name, which keeps the optimizer,
the checkpoint writer, and gradient bookkeeping trivial. The layers are
written forward only: each kernel they run is recorded on a tensor.Tape with
its analytic backward, and the backward pass is one replay of that tape.
"""

from __future__ import annotations

import numpy as np

from .backbone import PyramidConfig, init_backbone_weights, backbone_forward
from .tensor import Tape
from .waterfall import WaterfallConfig, init_waterfall_weights, waterfall_module_forward


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
                  wf: WaterfallConfig, tape=None):
    """Returns (PoseMaps, tape); the tape feeds model_backward.

    tape defaults to a new recording tensor.Tape; pass a tensor.ForwardTape
    for a pass that is never replayed, so no kernel cache outlives its kernel.
    """
    tape = Tape() if tape is None else tape
    pyramid = backbone_forward(image, weights, pyr, tape)
    return waterfall_module_forward(pyramid, weights, wf, tape), tape


def model_backward(tape, maps, g_heat, g_offsets):
    """Replay the tape model_forward returned from the gradients on its maps.
    Returns the gradient of every weight, by name."""
    grads, _ = tape.backward([(maps.heatmaps, g_heat), (maps.offsets, g_offsets)])
    return grads
