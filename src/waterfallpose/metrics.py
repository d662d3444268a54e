"""Keypoint-similarity scoring and the AP/AR evaluator.

The similarity between a predicted and a ground-truth pose is

    OKS = sum_i exp(-d_i^2 / (2 s^2 k_i^2)) [v_i > 0]  /  sum_i [v_i > 0]

with d_i the Euclidean distance between matching keypoints, s = sqrt(area)
of the target, and k_i a per-keypoint falloff constant. Falloffs are held to
FALLOFF_RANGE and ground-truth areas to AREA_RANGE, so every variance term
2 s^2 k_i^2 is a normal float64; a value outside is a ValueError. oks_matrix
computes the formula on keypoint arrays for every (prediction, ground truth)
pair of an image at once; oks() is its 1x1 case.

Average precision follows the standard keypoint protocol: greedy
highest-similarity matching at each threshold, then a 101-point interpolated
precision-recall integral over score-ranked detections; AP averages the
thresholds 0.50:0.05:0.95 and AR averages the final recalls.
The evaluator works on whole-set arrays: one OKS pass over every same-image
(prediction, ground truth) pair, then greedy_match steps through the
within-image ranks once for all images and thresholds together. At each
threshold a ranked detection is one number, the index of the ground truth it
claims or -1, and every figure, bucketed ones included, is read off that array.

Undefined buckets (no ground truths) are reported as None, never as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .targets import PersonAnnotation

DEFAULT_THRESHOLDS = tuple(0.5 + 0.05 * i for i in range(10))
RECALL_POINTS = tuple(i / 100.0 for i in range(101))
_RECALL_LEVELS = np.array(RECALL_POINTS)
# pairs per block of evaluate's OKS pass, whatever the size of the set: at
# K = 17 each float temporary is about 70 KB, under glibc's default 128 KB
# mmap threshold, so it is reused from the heap; 1024-pair blocks doubled an
# eval request's page faults
PAIR_BLOCK = 512
# every variance term 2·area·f² formed from these lies in [2e-12, 2e102]; a
# pose dataset's falloffs are about 0.025-0.107, and decode's reference areas
# are at least 1 and, from float32 offsets, below about 5e77
FALLOFF_RANGE = (1e-3, 10.0)
AREA_RANGE = (1e-6, 1e100)


@dataclass(frozen=True)
class OksParams:
    """Per-keypoint falloff constants, each in FALLOFF_RANGE; supply the table
    for your dataset."""

    falloffs: tuple

    def __post_init__(self):
        if not self.falloffs:
            raise ValueError("no falloff constant given")
        lo, hi = FALLOFF_RANGE
        for f in self.falloffs:
            if not lo <= f <= hi:
                raise ValueError(f"falloff constant {f!r} must lie in [{lo:g}, {hi:g}]")

    @classmethod
    def uniform(cls, k: int, value: float = 0.1):
        return cls((value,) * k)


@dataclass
class EvalResult:
    ap: float
    ap50: float
    ap75: float
    ap_buckets: dict
    ar: float
    ar_medium: float | None
    ar_large: float | None

    def as_row(self):
        cells = {"AP": self.ap, "AP50": self.ap50, "AP75": self.ap75}
        for name, v in self.ap_buckets.items():
            cells["AP_" + name] = v
        cells["AR"] = self.ar
        cells["AR_M"] = self.ar_medium
        cells["AR_L"] = self.ar_large
        return cells


class UndefinedOksError(ValueError):
    """OKS is undefined for a ground truth with no labeled keypoints."""


def _check_keypoint_counts(k, pred_counts, gt_counts):
    for kind, counts in (("prediction", pred_counts), ("ground truth", gt_counts)):
        for n in counts:
            if n != k:
                raise ValueError(
                    f"keypoint count mismatch: {kind} has {n} keypoints, {k} falloffs given")


def _variance(area, falloffs):
    """The variance term 2·area·f² of every (ground truth, joint), from an
    area column and the falloffs; raises ValueError for an area outside
    AREA_RANGE."""
    lo, hi = AREA_RANGE
    if not (lo <= area.min(initial=hi) and area.max(initial=lo) <= hi):
        raise ValueError(f"ground-truth area must lie in [{lo:g}, {hi:g}]")
    falloff = np.asarray(falloffs, dtype=np.float64)
    return 2.0 * area * falloff * falloff


def _oks(pred_x, pred_y, gt_x, gt_y, var, labeled, count):
    """The OKS formula over broadcastable arrays whose last axis is the
    joint: prediction and ground-truth coordinates (unlabeled ground-truth
    joints read as 0), the variance term, the labeled flags and each ground
    truth's labeled count (one axis fewer). The per-joint terms are summed
    in joint order, as a scalar loop would."""
    # a joint far from its ground truth overflows d2, or d2 / var, to inf;
    # its term is then exp(-inf) = 0, the score it should get
    with np.errstate(over="ignore"):
        d2 = (pred_x - gt_x) ** 2 + (pred_y - gt_y) ** 2
        near = np.exp(-d2 / var)
    terms = np.where(labeled, near, 0.0)
    # add.accumulate runs strictly left to right; sum() would pair the terms
    total = np.add.accumulate(terms, axis=-1)[..., -1]
    return total / count


def oks_matrix(pred_kps, gt_kps, gt_area, params: OksParams) -> np.ndarray:
    """OKS of every prediction against every ground truth, as a (P, G)
    float64 array, from (P, K, 3) predicted (x, y, score) rows, (G, K, 3)
    ground-truth (x, y, v) rows and the (G,) ground-truth areas.

    One numpy pass over the keypoints: unlabeled ground-truth joints add
    nothing to a pair's sum or to its count. Raises UndefinedOksError when a
    ground truth has no labeled joint.
    """
    pred_kps = np.asarray(pred_kps, dtype=np.float64)
    gt_kps = np.asarray(gt_kps, dtype=np.float64)
    _check_keypoint_counts(len(params.falloffs), pred_kps.shape[1:2], gt_kps.shape[1:2])
    labeled = gt_kps[:, :, 2] > 0
    count = labeled.sum(axis=1)
    if not count.all():
        raise UndefinedOksError("ground truth has no labeled keypoints")
    # unlabeled joints may hold any coordinate; read them as 0 so no inf or
    # nan enters the masked-out terms
    gt_xy = np.where(labeled[..., None], gt_kps[..., :2], 0.0)
    var = _variance(np.asarray(gt_area, dtype=np.float64)[:, None], params.falloffs)
    return _oks(pred_kps[:, None, :, 0], pred_kps[:, None, :, 1], gt_xy[..., 0], gt_xy[..., 1],
                var, labeled, count)


def oks(pred, gt: PersonAnnotation, params: OksParams) -> float:
    """Similarity of one prediction (anything with (K, 3) (x, y, score)
    keypoints) to one ground-truth person, in [0, 1]: the 1x1 case of
    oks_matrix."""
    return float(oks_matrix([pred.keypoints], [gt.keypoints], [gt.area], params)[0, 0])


def greedy_match(sims, pred_counts, gt_counts, thresholds):
    """Greedy matching in every image at every threshold at once.

    sims is flat: image by image, each image's predictions in descending
    score order, each prediction's OKS against the image's ground truths in
    order. pred_counts and gt_counts give each image's numbers of
    predictions and ground truths. Within one image at one threshold, each
    prediction in rank order picks the unclaimed ground truth with the
    highest OKS (equal similarities go to the earlier ground truth; a NaN is
    never picked) and claims it if that OKS reaches the threshold.

    Returns a (thresholds, predictions) int64 array for finite thresholds:
    per threshold and prediction, the index of the ground truth it claims
    within its image, or -1. A prediction whose best OKS is below the lowest
    threshold, or NaN, claims nothing and takes nothing from the others, so
    it gets -1 and the steps skip it. One step per remaining within-image
    rank covers every image and threshold, over arrays (images, thresholds,
    most ground truths in an image) wide.
    """
    sims = np.asarray(sims, dtype=np.float64)
    pred_counts = np.asarray(pred_counts, dtype=np.int64)
    gt_counts = np.asarray(gt_counts, dtype=np.int64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    # each prediction's best OKS; a prediction in an image with no ground
    # truth has an empty row, which reduceat cannot take
    row_len = np.repeat(gt_counts, pred_counts)
    best = np.full(len(row_len), -np.inf)
    has_row = row_len > 0
    if has_row.any():
        best[has_row] = np.fmax.reduceat(sims, (np.cumsum(row_len) - row_len)[has_row])
    kept = best >= thresholds.min(initial=np.inf)
    if kept.all():
        return _claims_by_rank(sims, pred_counts, gt_counts, thresholds)
    image = np.repeat(np.arange(len(pred_counts)), pred_counts)
    claims = np.full((len(thresholds), len(row_len)), -1, dtype=np.int64)
    claims[:, kept] = _claims_by_rank(sims[np.repeat(kept, row_len)],
                                      np.bincount(image[kept], minlength=len(pred_counts)),
                                      gt_counts, thresholds)
    return claims


def _claims_by_rank(sims, pred_counts, gt_counts, thresholds):
    """greedy_match's steps over every prediction in sims, one per
    within-image rank."""
    row_counts = pred_counts * gt_counts
    claims = np.full((len(thresholds), int(pred_counts.sum())), -1, dtype=np.int64)
    # only images with both sides can claim; most predictions first, so the
    # images that still have a prediction at rank r are a prefix
    live = np.flatnonzero(row_counts)
    live = live[np.argsort(-pred_counts[live], kind="stable")]
    if not live.size:
        return claims
    n_gt = gt_counts[live, None]
    cols = np.arange(n_gt.max())
    pad = cols >= n_gt
    # each live image's current row of sims and current prediction, moved on
    # in place after every step; columns past an image's ground truths read a
    # trailing -inf, as does a NaN, so argmax never picks either
    table = np.append(sims, -np.inf)
    table[np.isnan(table)] = -np.inf
    at_row = np.where(pad, len(sims), (np.cumsum(row_counts) - row_counts)[live, None] + cols)
    row_step = np.where(pad, 0, n_gt)
    at_pred = (np.cumsum(pred_counts) - pred_counts)[live]
    taken = np.zeros((len(live), len(thresholds), len(cols)), dtype=bool)
    steps = pred_counts[live]
    for n in np.searchsorted(-steps, -np.arange(steps[0]), side="left").tolist():
        sims_left = np.where(taken[:n], -np.inf, table[at_row[:n, None, :]])
        best = sims_left.argmax(axis=2)
        hit = sims_left.max(axis=2) >= thresholds
        img, t = np.nonzero(hit)
        taken[img, t, best[img, t]] = True
        claims[:, at_pred[:n]] = np.where(hit, best, -1).T
        at_row += row_step
        at_pred += 1
    return claims


def interpolated_ap(recall, precision):
    """101-point interpolated AP over a precision-recall curve in rank order
    (so recall never decreases along it).

    At each recall level r in {0.00, 0.01, ..., 1.00} the interpolated
    precision is the best precision at recall >= r (0 when no point reaches
    r); AP is their mean, summed in recall order.
    """
    # best precision from each point to the end; the appended 0 answers the
    # levels that no point reaches
    suffix_best = np.maximum.accumulate(np.append(precision, 0.0)[::-1])[::-1]
    at_level = suffix_best[np.searchsorted(recall, _RECALL_LEVELS, side="left")]
    return float(np.add.accumulate(at_level)[-1]) / len(RECALL_POINTS)


def pr_curve(flags, n_gt):
    """Recall and precision arrays after each detection of a score-ranked
    TP/FP list."""
    tp = np.cumsum(flags, dtype=np.int64)
    return tp / n_gt, tp / np.arange(1, len(tp) + 1)


def _bucket_masks(style, area, crowd, area_edges, crowd_edges):
    """Per bucket, an in-bucket flag per ground truth (from their area and
    crowd-index arrays, NaN for no crowd index) and a trailing False that
    index -1 (no claim) reads; bucket "all" holds every ground truth."""
    if style == "coco":
        lo, hi = area_edges
        masks = {"medium": (lo <= area) & (area < hi), "large": area >= hi}
    elif style == "crowdpose":
        lo, hi = crowd_edges
        masks = {name: (a <= crowd) & (crowd < b) for name, (a, b) in
                 (("easy", (0.0, lo)), ("medium", (lo, hi)), ("hard", (hi, 1.0 + 1e-9)))}
    else:
        raise ValueError(f"unknown evaluation style {style!r}")
    masks = {"all": np.ones(len(area), dtype=bool), **masks}
    return {name: np.append(inside, False) for name, inside in masks.items()}


def evaluate(preds_by_image: dict, gts_by_image: dict, params: OksParams, style: str = "coco",
             area_edges=(32.0 ** 2, 96.0 ** 2), crowd_edges=(0.1, 0.8)) -> EvalResult:
    """Dataset-level AP/AR.

    preds_by_image maps image id to PoseInstance lists, gts_by_image to
    PersonAnnotation lists. Ground truths with no labeled keypoints are
    excluded up front. Bucketed figures keep only the bucket's ground truths
    and the detections matched to them; unmatched detections count as false
    positives everywhere.
    """
    images = sorted(gts_by_image.keys() | preds_by_image.keys())
    preds = [p for img in images for p in preds_by_image.get(img, [])]
    gts = [g for img in images for g in gts_by_image.get(img, [])]
    k = len(params.falloffs)
    _check_keypoint_counts(k, (len(p.keypoints) for p in preds), (len(g.keypoints) for g in gts))
    gt_kps = np.array([g.keypoints for g in gts]).reshape(len(gts), k, 3)
    labeled = gt_kps[:, :, 2] > 0
    valid = labeled.any(axis=1)
    gt_kps, labeled = gt_kps[valid], labeled[valid]
    area = np.array([g.area for g in gts], dtype=np.float64)[valid]
    crowd = np.array([math.nan if g.crowd_index is None else g.crowd_index for g in gts],
                     dtype=np.float64)[valid]
    ap_masks = _bucket_masks(style, area, crowd, area_edges, crowd_edges)
    ar_masks = _bucket_masks("coco", area, crowd, area_edges, crowd_edges)

    image_of = np.arange(len(images))
    pred_image = np.repeat(image_of, [len(preds_by_image.get(img, [])) for img in images])
    gt_image = np.repeat(image_of, [len(gts_by_image.get(img, [])) for img in images])[valid]
    pred_counts = np.bincount(pred_image, minlength=len(images))
    gt_counts = np.bincount(gt_image, minlength=len(images))
    score = np.array([p.score for p in preds], dtype=np.float64)
    # image by image, score descending, ties in input order
    ranked = np.lexsort((-score, pred_image))
    ranked_image = pred_image[ranked]
    gt_start = np.cumsum(gt_counts) - gt_counts
    # every same-image (prediction, ground truth) pair, in greedy_match's layout
    row_len = gt_counts[ranked_image]
    pair_pred = np.repeat(ranked, row_len)
    pair_gt = np.arange(int(row_len.sum())) - np.repeat(
        np.cumsum(row_len) - row_len - gt_start[ranked_image], row_len)
    pred_kps = np.array([p.keypoints for p in preds]).reshape(len(preds), k, 3)
    # unlabeled joints may hold any coordinate; read them as 0
    gt_x = np.where(labeled, gt_kps[..., 0], 0.0)
    gt_y = np.where(labeled, gt_kps[..., 1], 0.0)
    var = _variance(area[:, None], params.falloffs)
    count = labeled.sum(axis=1)
    sims = np.empty(len(pair_pred))
    for at in range(0, len(sims), PAIR_BLOCK):
        p, g = pair_pred[at:at + PAIR_BLOCK], pair_gt[at:at + PAIR_BLOCK]
        sims[at:at + PAIR_BLOCK] = _oks(pred_kps[p, :, 0], pred_kps[p, :, 1], gt_x[g], gt_y[g],
                                        var[g], labeled[g], count[g])
    claims = greedy_match(sims, pred_counts, gt_counts, DEFAULT_THRESHOLDS)
    # global rank: score descending, ties by (image id, within-image rank)
    order = np.argsort(-score[ranked], kind="stable")
    first_gt = gt_start[ranked_image[order]]

    ap = {name: [] for name in ap_masks}
    ar = {name: [] for name in ar_masks}
    for claimed in claims[:, order]:
        # per ranked detection, the flat index of the ground truth it claims, or -1
        gt = np.where(claimed >= 0, claimed + first_gt, -1)
        tp = gt >= 0
        for name, inside in ap_masks.items():
            if inside.any():
                # keep the bucket's gts and their matches; everything
                # unmatched stays a false positive
                ap[name].append(interpolated_ap(*pr_curve(tp[~tp | inside[gt]],
                                                          int(inside.sum()))))
        for name, inside in ar_masks.items():
            if inside.any():
                ar[name].append(int(inside[gt].sum()) / int(inside.sum()))

    def mean(vals):
        return sum(vals) / len(vals) if vals else None

    ap_per_t = ap.pop("all")
    return EvalResult(
        ap=mean(ap_per_t) or 0.0,
        ap50=ap_per_t[DEFAULT_THRESHOLDS.index(0.5)] if ap_per_t else 0.0,
        ap75=ap_per_t[DEFAULT_THRESHOLDS.index(0.75)] if ap_per_t else 0.0,
        ap_buckets={name: mean(vals) for name, vals in ap.items()},
        ar=mean(ar["all"]) or 0.0,
        ar_medium=mean(ar["medium"]),
        ar_large=mean(ar["large"]),
    )
