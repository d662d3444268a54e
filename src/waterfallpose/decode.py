"""Decoding multi-person pose instances from network output maps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .metrics import OksParams, oks_matrix
from .waterfall import PoseMaps


@dataclass
class PoseInstance:
    """Decoded person: its own (K, 3) float64 (x, y, score) array and a score."""

    keypoints: np.ndarray
    score: float

    def __post_init__(self):
        self.keypoints = np.array(self.keypoints, dtype=np.float64).reshape(-1, 3)


@dataclass(frozen=True)
class DecodeConfig:
    center_threshold: float = 0.1
    nms_window: int = 3
    max_instances: int = 30
    duplicate_oks: float = 0.9
    # per-keypoint falloffs for duplicate suppression; None means uniform 0.1
    falloffs: tuple | None = None

    def __post_init__(self):
        if not 0.0 <= self.center_threshold <= 1.0:
            raise ValueError("center threshold must lie in [0, 1]")
        if self.nms_window < 1 or self.nms_window % 2 == 0:
            raise ValueError("NMS window must be a positive odd extent")
        if self.max_instances < 1:
            raise ValueError("max_instances must be positive")
        if not 0.0 < self.duplicate_oks <= 1.0:
            raise ValueError("duplicate OKS threshold must lie in (0, 1]")


def nms_peaks(plane: np.ndarray, cfg: DecodeConfig):
    """Strict local maxima of a 2-d score plane.

    A pixel is a peak iff it strictly beats every other pixel of its window
    (a flat plateau has no peak) and its score reaches the center threshold.
    Returns (x, y, score) tuples sorted by descending score, equal scores
    ordered by smaller row then column, at most cfg.max_instances of them.
    """
    if plane.ndim != 2:
        raise T.ShapeError(f"expected a 2-d plane, got shape {plane.shape}")
    h, w = plane.shape
    # a window past the plane adds only -inf padding, so the peaks are those
    # of the window that just covers it
    r = min(cfg.nms_window // 2, max(h, w, 1) - 1)
    is_peak = plane >= cfg.center_threshold
    if r:
        # the window less its centre is four arms: the r pixels left and
        # right in the centre's row, and the r whole window rows above and
        # below; a NaN in any arm carries into their max, so it beats none
        left, right = _arm_maxima(plane, r)
        arms = np.maximum(left, right)
        up, down = _arm_maxima(np.maximum(arms, plane).T, r)
        np.maximum(arms, up.T, out=arms)
        np.maximum(arms, down.T, out=arms)
        is_peak &= plane > arms
    ys, xs = np.nonzero(is_peak)
    peaks = sorted(((float(plane[y, x]), int(y), int(x)) for y, x in zip(ys, xs)),
                   key=lambda t: (-t[0], t[1], t[2]))
    return [(x, y, s) for s, y, x in peaks[: cfg.max_instances]]


def _arm_maxima(a, r):
    """Per element of the 2-d array a, the max of the r >= 1 elements
    before it and of the r elements after it in its row, -inf past the ends
    (NaN if one is NaN).

    Over the row padded by r on each side, max(padded[i: i + k]) for k
    doubling up to the largest power of two k <= r, then each r-wide window
    as the max of two k-wide ones that overlap: log2(r) + 1 passes.
    """
    n, w = a.shape
    m = np.full((n, w + 2 * r), -np.inf)
    m[:, r: r + w] = a
    k = 1
    while 2 * k <= r:
        m = np.maximum(m[:, :-k], m[:, k:])
        k *= 2
    # window[:, i] is the max of padded[:, i: i + r]
    window = np.maximum(m[:, : w + r + 1], m[:, r - k: w + 2 * r - k + 1])
    return window[:, :w], window[:, r + 1:]


def decode_poses(maps: PoseMaps, cfg: DecodeConfig):
    """Turn heatmaps and offsets into scored pose instances.

    For every center peak c, joint k sits at c + offsets(2k:2k+1, c), scored
    by sampling heatmap channel k there; the instance score is the center
    score times the mean joint score. Instances that duplicate a
    higher-scored one (OKS against it, as the reference pose, above
    cfg.duplicate_oks) are dropped.
    """
    heat = maps.heatmaps
    offs = maps.offsets
    if heat.shape[0] != 1 or offs.shape[0] != 1:
        raise T.ShapeError("decode_poses works on single-image maps")
    if offs.shape[1] % 2:
        raise T.ShapeError(f"offset field needs 2K channels, got {offs.shape[1]}")
    k = offs.shape[1] // 2
    if heat.shape[1] != k + 1:
        raise T.ShapeError(
            f"expected {k + 1} heatmap channels (K joints + center), got {heat.shape[1]}")

    peaks = nms_peaks(heat[0, k].astype(np.float64), cfg)
    if not peaks:
        return []
    cx = np.array([x for x, _, _ in peaks])
    cy = np.array([y for _, y, _ in peaks])
    at_center = offs[0][:, cy, cx].astype(np.float64)          # (2K, P)
    xs = (cx + at_center[0::2]).T                               # (P, K)
    ys = (cy + at_center[1::2]).T
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("joint coordinates must be finite")
    # one read of all K heatmap channels at every joint point; joint j of
    # peak p is point p*K + j, read from channel j
    sampled, _ = T.bilinear_sample(heat[:, :k], ys.reshape(1, -1), xs.reshape(1, -1))
    joint = np.tile(np.arange(k), len(peaks))
    scores = sampled[0, joint, np.arange(len(joint))].reshape(len(peaks), k).astype(np.float64)

    # the mean joint score sums the joints in order
    inst_scores = [cs * (sum(ps) / k) for (_, _, cs), ps in zip(peaks, scores.tolist())]
    order = sorted(range(len(peaks)), key=lambda i: -inst_scores[i])
    kps = np.stack([xs, ys, scores], axis=2)[order]

    params = OksParams(cfg.falloffs if cfg.falloffs is not None else (0.1,) * k)
    if len(params.falloffs) != k:
        raise ValueError(f"need {k} falloffs, got {len(params.falloffs)}")
    # every candidate taken as a reference pose: all joints labeled visible,
    # area from the keypoint bounding box, each side at least 1 px
    refs = kps.copy()
    refs[:, :, 2] = 2.0
    span = np.maximum(kps[:, :, :2].max(axis=1) - kps[:, :, :2].min(axis=1), 1.0)
    sims = oks_matrix(kps, refs, span[:, 0] * span[:, 1], params).tolist()
    kept = []
    for i in range(len(kps)):
        if all(sims[i][j] <= cfg.duplicate_oks for j in kept):
            kept.append(i)
    return [PoseInstance(kps[i], inst_scores[order[i]]) for i in kept]
