"""Losses, affine augmentation, the step learning-rate schedule, the
adaptive-moment optimizer, and the deterministic training loop."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import tensor as T
from .backbone import PyramidConfig
from .model import model_forward
from .targets import PersonAnnotation, scale_annotations, \
    render_keypoint_heatmaps, render_offset_targets
from .waterfall import WaterfallConfig


class TrainingError(RuntimeError):
    pass


# heatmap Gaussians divide by 2·sigma², which over this range lies in
# [2e-6, 2e6], a normal float64; a typical sigma is 1-4 heatmap pixels
SIGMA_RANGE = (1e-3, 1e3)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 140
    base_lr: float = 1e-3
    lr_steps: tuple = (90, 120)
    lr_factor: float = 0.1
    rotation_deg: float = 30.0
    scale_min: float = 0.75
    scale_max: float = 1.5
    translate_px: float = 40.0
    heatmap_weight: float = 1.0
    offset_weight: float = 0.03
    seed: int = 0
    sigma: float = 3.0
    offset_radius: float = 4.0
    checkpoint_every: int = 50

    def __post_init__(self):
        for name in ("epochs", "checkpoint_every"):   # checkpoint_every 0: none
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.seed < 0:   # numpy's generators take non-negative seeds only
            raise ValueError(f"train.seed must be non-negative, got {self.seed}")
        for name in ("base_lr", "lr_factor", "offset_radius"):
            if not 0.0 < getattr(self, name) < math.inf:   # also false for nan
                raise ValueError(f"{name} must be finite and positive")
        lo, hi = SIGMA_RANGE
        if not lo <= self.sigma <= hi:
            raise ValueError(f"train.sigma must be finite and lie in [{lo:g}, {hi:g}], "
                             f"got {self.sigma!r}")
        for name in ("heatmap_weight", "offset_weight"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        # augmentation draws uniform(-v, v), whose width 2v must be finite too
        for name in ("rotation_deg", "translate_px"):
            if not 0.0 <= 2.0 * getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"with 2 * {name} finite")
        steps = list(self.lr_steps)
        if steps != sorted(steps) or min(steps, default=0) < 0:
            raise ValueError(f"lr steps must be non-negative and increasing, "
                             f"got {self.lr_steps}")
        if not 0.0 < self.scale_min <= self.scale_max < math.inf:
            raise ValueError(f"scale range must be finite and positive with "
                             f"min <= max, got {(self.scale_min, self.scale_max)}")


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


def total_loss(heatmaps, offsets, heat_target, off_target, off_mask, off_scale,
               cfg: TrainConfig):
    """Weighted sum; returns (total, heat part, offset part, grads on both inputs)."""
    lh, gh = heatmap_loss(heatmaps, heat_target)
    lo, go = offset_loss(offsets, off_target, off_mask, off_scale)
    total = cfg.heatmap_weight * lh + cfg.offset_weight * lo
    return total, lh, lo, cfg.heatmap_weight * gh, cfg.offset_weight * go


# ---------------------------------------------------------------------------
# augmentation

def sample_affine_params(rng: np.random.Generator, cfg: TrainConfig):
    theta = rng.uniform(-cfg.rotation_deg, cfg.rotation_deg)
    scale = rng.uniform(cfg.scale_min, cfg.scale_max)
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
    out, _ = T.bilinear_sample(image, rows, cols)
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
# Elements per optimizer block: the block's slices of the weight, moment,
# gradient and two scratch buffers (6 x 128 KB at float32) stay in L2.
BLOCK = 32768


def init_optim_state(weights: dict) -> dict:
    """Adam state over one flat arena per quantity.

    The weights are copied into one flat arena in sorted-name order, and
    state["weights"] holds each one's view of it: the weights that training
    reads and the update writes. The dict given is left as it is.
    state["m"] and state["v"] are dicts of views of the same layout into two
    zeroed arenas. Every weight must share one dtype.
    """
    names = sorted(weights)
    dtypes = {weights[k].dtype for k in names}
    if len(dtypes) > 1:
        raise TypeError(f"weights mix dtypes {sorted(map(str, dtypes))}; "
                        "the optimizer arena holds one")
    sizes = [weights[k].size for k in names]
    ends = list(accumulate(sizes))
    starts = [e - n for e, n in zip(ends, sizes)]
    flat = np.concatenate([weights[k].reshape(-1) for k in names])
    arenas = {"w": flat, "m": np.zeros(flat.size, flat.dtype),
              "v": np.zeros(flat.size, flat.dtype)}
    views = {group: {k: arena[s:e].reshape(weights[k].shape)
                     for k, s, e in zip(names, starts, ends)}
             for group, arena in arenas.items()}
    # each block as (start, stop, [(name, lo, hi) of every tensor it covers])
    blocks = []
    for b0 in range(0, flat.size, BLOCK):
        b1 = min(b0 + BLOCK, flat.size)
        blocks.append((b0, b1, [
            (names[i], max(starts[i], b0) - starts[i], min(ends[i], b1) - starts[i])
            for i in range(bisect_right(ends, b0), bisect_left(starts, b1)) if sizes[i]]))
    return {"step": 0, "m": views["m"], "v": views["v"],
            "weights": views["w"], "arenas": arenas, "blocks": blocks,
            "scratch": np.empty((2, min(BLOCK, flat.size)), dtype=flat.dtype)}


def optim_step(grads: dict, state: dict, lr: float):
    """One adaptive-moment update of state["weights"], in place, over the
    arena block by block.

    Each element sees the same float operations in the same order as a
    per-tensor update, so the result does not depend on the block size.
    """
    flat_grads = {}
    for name, view in state["weights"].items():
        g = grads[name]
        if g.shape != view.shape or g.dtype != view.dtype:
            raise TrainingError(f"gradient {name!r} is {g.dtype}{list(g.shape)}, "
                                f"weight is {view.dtype}{list(view.shape)}")
        flat_grads[name] = g.reshape(-1)

    state["step"] += 1
    t = state["step"]
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    arenas = state["arenas"]
    scratch = state["scratch"]
    for b0, b1, pieces in state["blocks"]:
        n = b1 - b0
        w, m, v = arenas["w"][b0:b1], arenas["m"][b0:b1], arenas["v"][b0:b1]
        a, gg = scratch[0, :n], scratch[1, :n]
        if len(pieces) == 1:
            name, lo, hi = pieces[0]
            g = flat_grads[name][lo:hi]
        else:
            g = np.concatenate([flat_grads[k][lo:hi] for k, lo, hi in pieces], out=gg)
        np.subtract(g, m, out=a)                 # m += (1 - beta1) * (g - m)
        a *= 1.0 - ADAM_BETA1
        m += a
        np.multiply(g, g, out=gg)                # v += (1 - beta2) * (g * g - v)
        gg -= v
        gg *= 1.0 - ADAM_BETA2
        v += gg
        np.divide(m, bc1, out=a)                 # w -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(v, bc2, out=gg)
        np.sqrt(gg, out=gg)
        gg += ADAM_EPS
        a /= gg
        a *= lr
        w -= a


# ---------------------------------------------------------------------------
# loop

def supervised_pixels(mask: np.ndarray):
    """Rows and columns, in row-major order, of the pixels where a (1, 2K,
    h, w) offset mask supervises any channel. With none, pixel (0, 0) alone,
    where the mask reads zero: the offset head still runs there, so each of
    its weights gets a gradient, a zero one."""
    _, ys, xs = np.nonzero(mask.max(axis=1))
    if not ys.size:
        ys = xs = np.zeros(1, dtype=np.intp)
    return ys, xs


def train_loop(samples, weights: dict, pyr: PyramidConfig, wf: WaterfallConfig,
               cfg: TrainConfig, on_checkpoint=None):
    """Seeded, single-image training loop.

    samples is a list of (image tensor, [PersonAnnotation in image coords]).
    Per epoch: shuffle, and for each image augment, render targets at heatmap
    resolution, run forward/backward, and apply one optimizer step at the
    scheduled rate. The offset head runs only at the pixels the offset loss
    supervises (supervised_pixels), where the loss reads its target, mask
    and scale. The optimizer state copies the weights into one flat arena
    and trains its views of it, state["weights"]; the dict passed in is left
    as it is. Every cfg.checkpoint_every epochs, on_checkpoint(epoch, state)
    is called. Returns (state["weights"], optim state, log lines); log lines
    are "epoch<TAB>lr<TAB>heat<TAB>off<TAB>total" with per-epoch means.
    """
    rng = np.random.default_rng(cfg.seed)
    state = init_optim_state(weights)
    weights = state["weights"]
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
            ys, xs = supervised_pixels(off_m)
            # weights, loss weights or rates that overflow float32 on the way
            # are reported by the finite checks, so the warnings are not wanted
            with np.errstate(all="ignore"):
                maps, tape = model_forward(image_a, weights, pyr, wf)
                off = maps.offsets_at(ys, xs)
                total, lh, lo, gh, go = total_loss(
                    maps.heatmaps, off, heat_t, *(a[:, :, ys, xs] for a in (off_t, off_m, off_s)),
                    cfg)
                if not np.isfinite(total):
                    raise TrainingError(
                        f"non-finite loss at epoch {epoch}, sample {int(idx)}")
                grads, _ = tape.backward([(maps.heatmaps, gh), (off, go)])
                # a finite loss can still carry a NaN or inf gradient into Adam
                bad = next((name for name in sorted(grads)
                            if not np.isfinite(grads[name]).all()), None)
                if bad is not None:
                    raise TrainingError(
                        f"non-finite gradient at epoch {epoch}, sample {int(idx)}: {bad}")
                optim_step(grads, state, lr)
            sums += (lh, lo, total)
        # a finite gradient can still step a weight to inf or NaN (a rate
        # whose float32 cast overflows), and no forward follows the epoch's
        # last step before its checkpoint; min and max see every non-finite
        # value without a temporary
        arena = state["arenas"]["w"]
        if not (np.isfinite(arena.min(initial=0.0)) and np.isfinite(arena.max(initial=0.0))):
            bad = next(name for name, view in weights.items()
                       if not np.isfinite(view).all())
            raise TrainingError(f"non-finite weight after epoch {epoch}: {bad}")
        n = max(len(samples), 1)
        log.append(f"{epoch}\t{lr:.6g}\t{sums[0] / n:.8g}\t{sums[1] / n:.8g}"
                   f"\t{sums[2] / n:.8g}")
        if on_checkpoint is not None and cfg.checkpoint_every > 0 \
                and (epoch + 1) % cfg.checkpoint_every == 0:
            on_checkpoint(epoch, state)
    return weights, state, log
