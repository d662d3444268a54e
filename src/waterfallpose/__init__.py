"""Bottom-up multi-person pose estimation, written from scratch on numpy.

The pipeline: a miniature multi-resolution backbone feeds a waterfall module
of cascaded dilated convolutions whose fused features drive adaptive-conv
keypoint and offset heads; Gaussian target rendering, pose decoding, an
OKS-based AP/AR evaluator, and a deterministic training loop complete it.
"""

from .backbone import FeaturePyramid, PyramidConfig
from .config import RunConfig, default_config, parse_config
from .decode import DecodeConfig, PoseInstance, decode_poses, nms_peaks
from .metrics import EvalResult, OksParams, evaluate, oks
from .model import init_model_weights, model_forward
from .targets import PersonAnnotation, render_keypoint_heatmaps, \
    render_offset_targets
from .train import TrainConfig, lr_at_epoch, train_loop
from .waterfall import PoseMaps, WaterfallConfig

__version__ = "0.1.0"

__all__ = [
    "FeaturePyramid", "PyramidConfig", "RunConfig", "default_config",
    "parse_config", "DecodeConfig", "PoseInstance", "decode_poses", "nms_peaks",
    "EvalResult", "OksParams", "evaluate", "oks", "init_model_weights",
    "model_forward", "PersonAnnotation",
    "render_keypoint_heatmaps", "render_offset_targets", "TrainConfig",
    "lr_at_epoch", "train_loop", "PoseMaps", "WaterfallConfig",
]
