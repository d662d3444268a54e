"""Losses, affine augmentation, the step learning-rate schedule, the
adaptive-moment optimizer, and the deterministic training loop."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import PyramidConfig
from .model import model_forward, model_backward
from .targets import PersonAnnotation, scale_annotations, \
    render_keypoint_heatmaps, render_offset_targets
from .waterfall import WaterfallConfig


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 140
    base_lr: float = 1e-3
    lr_steps: tuple = (90, 120)
    lr_factor: float = 0.1
    rotation_deg: float = 30.0
    scale_range: tuple = (0.75, 1.5)
    translate_px: float = 40.0
    heatmap_weight: float = 1.0
    offset_weight: float = 0.03
    seed: int = 0
    sigma: float = 3.0
    offset_radius: float = 4.0
    checkpoint_every: int = 50

    def __post_init__(self):
        if self.epochs < 0 or self.base_lr <= 0:
            raise ValueError("epochs must be non-negative and base_lr positive")
        if list(self.lr_steps) != sorted(self.lr_steps):
            raise ValueError("lr steps must be increasing")
        if self.scale_range[0] > self.scale_range[1] or self.scale_range[0] <= 0:
            raise ValueError(f"bad scale range {self.scale_range}")


def lr_at_epoch(epoch: int, cfg: TrainConfig) -> float:
    """Piecewise-constant schedule: base rate cut by lr_factor at each step."""
    lr = cfg.base_lr
    for step in cfg.lr_steps:
        if epoch >= step:
            lr *= cfg.lr_factor
    return lr


# ---------------------------------------------------------------------------
# losses

def heatmap_loss(pred: np.ndarray, target: np.ndarray):
    """Mean squared error over every heatmap entry; returns (loss, grad)."""
    if pred.shape != target.shape:
        raise T.ShapeError(f"heatmap shapes differ: {pred.shape} vs {target.shape}")
    diff = pred - target
    n = diff.size
    loss = float((diff.astype(np.float64) ** 2).sum() / n)
    return loss, (2.0 / n) * diff


def offset_loss(pred: np.ndarray, target: np.ndarray, mask: np.ndarray,
                scale_norm: np.ndarray):
    """Smooth-L1 on scale-normalized offset errors over masked entries.

    The error e = (pred - target) / scale_norm costs e^2 / 2 below 1 and
    |e| - 1/2 above, averaged over active mask entries. All-zero masks cost 0.
    Returns (loss, grad).
    """
    active = float(mask.sum())
    if active == 0:
        return 0.0, np.zeros_like(pred)
    e = (pred - target) / scale_norm * mask
    e64 = e.astype(np.float64)
    quad = np.abs(e64) < 1.0
    per_entry = np.where(quad, 0.5 * e64 * e64, np.abs(e64) - 0.5)
    loss = float(per_entry.sum() / active)
    de = np.where(quad, e64, np.sign(e64)) / active
    grad = (de / scale_norm * mask).astype(pred.dtype)
    return loss, grad


def total_loss(maps, heat_target, off_target, off_mask, off_scale, cfg: TrainConfig):
    """Weighted sum; returns (total, heat part, offset part, grads on maps)."""
    lh, gh = heatmap_loss(maps.heatmaps, heat_target)
    lo, go = offset_loss(maps.offsets, off_target, off_mask, off_scale)
    total = cfg.heatmap_weight * lh + cfg.offset_weight * lo
    return total, lh, lo, cfg.heatmap_weight * gh, cfg.offset_weight * go


# ---------------------------------------------------------------------------
# augmentation

def sample_affine_params(rng: np.random.Generator, cfg: TrainConfig):
    theta = rng.uniform(-cfg.rotation_deg, cfg.rotation_deg)
    scale = rng.uniform(cfg.scale_range[0], cfg.scale_range[1])
    tx = rng.uniform(-cfg.translate_px, cfg.translate_px)
    ty = rng.uniform(-cfg.translate_px, cfg.translate_px)
    return theta, scale, tx, ty


def affine_matrix(theta_deg: float, scale: float, tx: float, ty: float,
                  cx: float, cy: float) -> np.ndarray:
    """Forward map: rotate by theta and scale about (cx, cy), then translate.

    Returns a 3x3 homogeneous matrix acting on (x, y, 1) column vectors.
    """
    t = np.deg2rad(theta_deg)
    rs = np.array([[np.cos(t) * scale, -np.sin(t) * scale, 0.0],
                   [np.sin(t) * scale, np.cos(t) * scale, 0.0],
                   [0.0, 0.0, 1.0]])
    to_origin = np.array([[1.0, 0.0, -cx], [0.0, 1.0, -cy], [0.0, 0.0, 1.0]])
    back = np.array([[1.0, 0.0, cx + tx], [0.0, 1.0, cy + ty], [0.0, 0.0, 1.0]])
    return back @ rs @ to_origin


def warp_image(image: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Inverse-map bilinear warp; source reads outside the canvas give zero."""
    n, c, h, w = image.shape
    inv = np.linalg.inv(matrix)
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    src_x = inv[0, 0] * xs + inv[0, 1] * ys + inv[0, 2]
    src_y = inv[1, 0] * xs + inv[1, 1] * ys + inv[1, 2]
    rows = np.broadcast_to(src_y[None, None], (n, 1, h, w))
    cols = np.broadcast_to(src_x[None, None], (n, 1, h, w))
    out, _ = T._sample_planes(image, rows, cols)
    return np.ascontiguousarray(out[:, :, 0])


def augment_sample(image: np.ndarray, anns, rng: np.random.Generator,
                   cfg: TrainConfig):
    """One random rotation/scale/translation applied to image and keypoints.

    Keypoints are mapped by the forward matrix; any that land outside the
    canvas are marked unlabeled so they never supervise the losses.
    """
    h, w = image.shape[2], image.shape[3]
    theta, scale, tx, ty = sample_affine_params(rng, cfg)
    m = affine_matrix(theta, scale, tx, ty, (w - 1) / 2.0, (h - 1) / 2.0)
    if (theta, scale, tx, ty) == (0.0, 1.0, 0.0, 0.0):
        warped = image.copy()
    else:
        warped = warp_image(image, m)
    out_anns = []
    for ann in anns:
        x, y, v = ann.keypoints.T
        nx = m[0, 0] * x + m[0, 1] * y + m[0, 2]
        ny = m[1, 0] * x + m[1, 1] * y + m[1, 2]
        inside = (0.0 <= nx) & (nx <= w - 1) & (0.0 <= ny) & (ny <= h - 1)
        kps = np.stack([nx, ny, np.where(inside, v, 0.0)], axis=1)
        bx, by, bw, bh = ann.bbox
        corners = np.array([[bx, by, 1], [bx + bw, by, 1],
                            [bx, by + bh, 1], [bx + bw, by + bh, 1]]).T
        moved = m @ corners
        nbx, nby = moved[0].min(), moved[1].min()
        out_anns.append(PersonAnnotation(
            kps, ann.area * scale * scale,
            (float(nbx), float(nby), float(moved[0].max() - nbx),
             float(moved[1].max() - nby)),
            ann.crowd_index))
    return warped, out_anns


# ---------------------------------------------------------------------------
# optimizer

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def init_optim_state(weights: dict) -> dict:
    return {"step": 0,
            "m": {k: np.zeros_like(v) for k, v in weights.items()},
            "v": {k: np.zeros_like(v) for k, v in weights.items()}}


def optim_step(weights: dict, grads: dict, state: dict, lr: float):
    """One adaptive-moment update, in place; returns (weights, state)."""
    state["step"] += 1
    t = state["step"]
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name in sorted(weights):
        g = grads[name]
        m = state["m"][name]
        v = state["v"][name]
        m += (1.0 - ADAM_BETA1) * (g - m)
        v += (1.0 - ADAM_BETA2) * (g * g - v)
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        weights[name] -= np.asarray(lr * update, dtype=weights[name].dtype)
    return weights, state


# ---------------------------------------------------------------------------
# loop

def train_loop(samples, weights: dict, pyr: PyramidConfig, wf: WaterfallConfig,
               cfg: TrainConfig, on_checkpoint=None):
    """Seeded, single-image training loop.

    samples is a list of (image tensor, [PersonAnnotation in image coords]).
    Per epoch: shuffle, and for each image augment, render targets at heatmap
    resolution, run forward/backward, and apply one optimizer step at the
    scheduled rate. Returns (weights, optim state, log lines); log lines are
    "epoch<TAB>lr<TAB>heat<TAB>off<TAB>total" with per-epoch means.
    """
    rng = np.random.default_rng(cfg.seed)
    state = init_optim_state(weights)
    k = wf.keypoints
    stride = pyr.base_stride
    log = []
    for epoch in range(cfg.epochs):
        lr = lr_at_epoch(epoch, cfg)
        order = rng.permutation(len(samples)) if samples else []
        sums = np.zeros(3, dtype=np.float64)
        for idx in order:
            image, anns = samples[idx]
            image_a, anns_a = augment_sample(image, anns, rng, cfg)
            hh, hw = image.shape[2] // stride, image.shape[3] // stride
            heat_anns = scale_annotations(anns_a, 1.0 / stride)
            heat_t = render_keypoint_heatmaps(heat_anns, k, hh, hw, cfg.sigma)
            off_t, off_m, off_s = render_offset_targets(
                heat_anns, k, hh, hw, cfg.offset_radius)
            maps, tape = model_forward(image_a, weights, pyr, wf)
            total, lh, lo, gh, go = total_loss(maps, heat_t, off_t, off_m,
                                               off_s, cfg)
            if not np.isfinite(total):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, sample {int(idx)}")
            grads = model_backward(tape, maps, gh, go)
            # a finite loss can still carry a NaN or inf gradient into Adam
            bad = next((name for name in sorted(grads)
                        if not np.isfinite(grads[name]).all()), None)
            if bad is not None:
                raise TrainingError(
                    f"non-finite gradient at epoch {epoch}, sample {int(idx)}: {bad}")
            optim_step(weights, grads, state, lr)
            sums += (lh, lo, total)
        n = max(len(samples), 1)
        log.append(f"{epoch}\t{lr:.6g}\t{sums[0] / n:.8g}\t{sums[1] / n:.8g}"
                   f"\t{sums[2] / n:.8g}")
        if on_checkpoint is not None and cfg.checkpoint_every > 0 \
                and (epoch + 1) % cfg.checkpoint_every == 0:
            on_checkpoint(epoch, weights, state)
    return weights, state, log
