"""Ground-truth rendering: Gaussian keypoint/center heatmaps and the masked
offset field that supervises the regression head.

A person's keypoints are one (K, 3) float64 array of (x, y, v) rows.
Coordinates here are heatmap pixels (the caller rescales image-space
annotations first, see scale_annotations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class PersonAnnotation:
    """keypoints: a (K, 3) float64 array of (x, y, v) rows; v is 0 unlabeled
    (any coordinate, NaN included), 1 labeled but occluded, 2 labeled and visible."""

    keypoints: np.ndarray
    area: float
    bbox: tuple = (0.0, 0.0, 0.0, 0.0)
    crowd_index: float | None = None

    def __post_init__(self):
        self.keypoints = np.array(self.keypoints, dtype=np.float64).reshape(-1, 3)
        for x, y, v in self.keypoints.tolist():   # scalar: cheaper than numpy at K = 17
            if v not in (0, 1, 2):
                raise ValueError(f"visibility must be 0, 1 or 2, got {v:g}")
            if v > 0 and not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("labeled keypoints need finite coordinates")
        if not self.area > 0 and self.num_labeled():
            raise ValueError("annotations with labeled keypoints need a positive area")

    def labeled_centroid(self):
        pts = self.keypoints[self.keypoints[:, 2] > 0, :2].tolist()
        if not pts:
            return None
        xs, ys = zip(*pts)     # builtin sums, in joint order
        return sum(xs) / len(pts), sum(ys) / len(pts)

    def num_labeled(self) -> int:
        return int(np.count_nonzero(self.keypoints[:, 2] > 0))


def scale_annotations(anns, factor: float):
    """Map annotations between coordinate systems (area scales quadratically)."""
    out = []
    for ann in anns:
        x, y, w, h = ann.bbox
        out.append(PersonAnnotation(ann.keypoints * (factor, factor, 1.0),
                                    ann.area * factor * factor,
                                    (x * factor, y * factor, w * factor, h * factor),
                                    ann.crowd_index))
    return out


def _rounded(v: float) -> int:
    return int(np.floor(v + 0.5))


def render_keypoint_heatmaps(anns, k: int, h: int, w: int, sigma: float = 3.0):
    """Render per-joint Gaussians plus a person-center channel, (1, K+1, h, w).

    Each labeled keypoint contributes a Gaussian centered at its rounded
    pixel, so the peak value is exactly 1 there; overlapping people combine by
    pixelwise maximum. Channel K holds the same rendering for the centroid of
    each person's labeled keypoints.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    maps = np.zeros((1, k + 1, h, w), dtype=np.float32)
    rows = np.arange(h, dtype=np.float64)[:, None]
    cols = np.arange(w, dtype=np.float64)[None, :]

    def splat(channel, cx, cy):
        px, py = _rounded(cx), _rounded(cy)
        if not (0 <= px < w and 0 <= py < h):
            return
        g = np.exp(-((rows - py) ** 2 + (cols - px) ** 2) / (2.0 * sigma * sigma))
        np.maximum(maps[0, channel], g.astype(np.float32), out=maps[0, channel])

    for ann in anns:
        if len(ann.keypoints) != k:
            raise ValueError(f"annotation has {len(ann.keypoints)} keypoints, expected {k}")
        for j, (x, y, v) in enumerate(ann.keypoints.tolist()):
            if v > 0:
                splat(j, x, y)
        center = ann.labeled_centroid()
        if center is not None:
            splat(k, center[0], center[1])
    return maps


def render_offset_targets(anns, k: int, h: int, w: int, radius: float = 4.0):
    """Offset supervision around each person center.

    For pixels within `radius` of a person's labeled-keypoint centroid, the
    (2j, 2j+1) channels hold (x_j - px, y_j - py) for that person's labeled
    joint j and the mask is 1 there. When centers overlap the nearest one
    wins, ties going to the earlier annotation. Returns (offsets, mask,
    scale_norm) where scale_norm is a (1, 1, h, w) map holding sqrt(area)/2 of
    the owning instance at supervised pixels and 1 elsewhere.
    """
    offsets = np.zeros((1, 2 * k, h, w), dtype=np.float32)
    mask = np.zeros((1, 2 * k, h, w), dtype=np.float32)
    scale = np.ones((1, 1, h, w), dtype=np.float32)

    rows = np.arange(h, dtype=np.float64)[:, None]
    cols = np.arange(w, dtype=np.float64)[None, :]
    best = np.full((h, w), np.inf)
    owner = np.full((h, w), -1, dtype=np.intp)
    centers = []
    for idx, ann in enumerate(anns):
        center = ann.labeled_centroid()
        centers.append(center)
        if center is None:
            continue
        cx, cy = center
        d2 = (cols - cx) ** 2 + (rows - cy) ** 2
        take = (d2 <= radius * radius) & (d2 < best)
        best[take] = d2[take]
        owner[take] = idx

    for idx, ann in enumerate(anns):
        if centers[idx] is None:
            continue
        sel = owner == idx
        if not sel.any():
            continue
        py, px = np.nonzero(sel)
        labeled = ann.keypoints[:, 2] > 0
        ch = 2 * np.nonzero(labeled)[0][:, None]      # (J, 1) x-channels
        offsets[0, ch, py, px] = ann.keypoints[labeled, :1] - px
        offsets[0, ch + 1, py, px] = ann.keypoints[labeled, 1:2] - py
        mask[0, ch, py, px] = 1.0
        mask[0, ch + 1, py, px] = 1.0
        scale[0, 0, py, px] = np.sqrt(ann.area) / 2.0
    return offsets, mask, scale
