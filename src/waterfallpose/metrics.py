"""Keypoint-similarity scoring and the AP/AR evaluator.

The similarity between a predicted and a ground-truth pose is

    OKS = sum_i exp(-d_i^2 / (2 s^2 k_i^2)) [v_i > 0]  /  sum_i [v_i > 0]

with d_i the Euclidean distance between matching keypoints, s = sqrt(area)
of the target, and k_i a per-keypoint falloff constant. oks_matrix computes
it for every (prediction, ground truth) pair of an image at once; oks() is
its 1x1 case. Average precision follows the standard keypoint protocol: the
image's similarity matrix is built once, greedy highest-similarity matching
runs over it at each threshold, then a 101-point interpolated
precision-recall integral over score-ranked detections; AP averages the
thresholds 0.50:0.05:0.95 and AR averages the final recalls. At each
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


@dataclass(frozen=True)
class OksParams:
    """Per-keypoint falloff constants; supply the table for your dataset."""

    falloffs: tuple

    def __post_init__(self):
        if not self.falloffs or any(not (f > 0) for f in self.falloffs):
            raise ValueError("every falloff constant must be positive")
        for f in self.falloffs:
            # the OKS divides by the variance term (2f)^2; Python float
            # products overflow to inf and underflow to 0 without a warning
            if not 0.0 < (2.0 * f) * (2.0 * f) < math.inf:
                raise ValueError(f"falloff constant {f!r} must be finite, with "
                                 f"(2f)^2 non-zero and finite in float64")

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


def oks_matrix(preds, gts, params: OksParams) -> np.ndarray:
    """OKS of every prediction (anything with (K, 3) (x, y, score) keypoints)
    against every ground-truth person, as a (P, G) float64 array.

    One numpy pass over the keypoints: unlabeled ground-truth joints add
    nothing to a pair's sum or to its count. The per-joint terms are summed
    in joint order, as a scalar loop would. Raises UndefinedOksError when a
    ground truth has no labeled joint.
    """
    k = len(params.falloffs)
    for kind, people in (("prediction", preds), ("ground truth", gts)):
        for person in people:
            if len(person.keypoints) != k:
                raise ValueError(
                    f"keypoint count mismatch: {kind} has {len(person.keypoints)} "
                    f"keypoints, {k} falloffs given")
    n_pred, n_gt = len(preds), len(gts)
    pred_kps = np.array([p.keypoints for p in preds]).reshape(n_pred, 1, k, 3)
    gt_kps = np.array([g.keypoints for g in gts]).reshape(1, n_gt, k, 3)
    labeled = gt_kps[0, :, :, 2] > 0
    count = labeled.sum(axis=1)
    if not count.all():
        raise UndefinedOksError("ground truth has no labeled keypoints")
    # unlabeled joints may hold any coordinate; read them as 0 so no inf or
    # nan enters the masked-out terms
    gt_xy = np.where(labeled[..., None], gt_kps[..., :2], 0.0)
    area = np.array([g.area for g in gts], dtype=np.float64).reshape(n_gt, 1)
    falloff = np.asarray(params.falloffs, dtype=np.float64)
    var = 2.0 * area * falloff * falloff
    zero = var == 0.0
    # a joint far from its ground truth overflows d2, or d2 / var, to inf; its
    # term is then exp(-inf) = 0, the score it should get
    with np.errstate(over="ignore"):
        d2 = (pred_kps[..., 0] - gt_xy[..., 0]) ** 2 + (pred_kps[..., 1] - gt_xy[..., 1]) ** 2
        near = np.exp(-d2 / np.where(zero, 1.0, var))
    # area is data, so the variance term can underflow to 0; such a joint
    # scores the limit, 1 at distance 0 and 0 elsewhere. Guarded so that the
    # common case allocates nothing more: one more temporary per decode made
    # infer processes land more often in glibc's re-fault heap mode
    if zero.any():
        np.copyto(near, d2 == 0.0, where=zero)
    terms = np.where(labeled, near, 0.0)
    # add.accumulate runs strictly left to right; sum() would pair the terms
    total = np.add.accumulate(terms, axis=2)[..., -1]
    return total / count


def oks(pred, gt: PersonAnnotation, params: OksParams) -> float:
    """Similarity of one prediction to one ground-truth person, in [0, 1]:
    the 1x1 case of oks_matrix."""
    return float(oks_matrix([pred], [gt], params)[0, 0])


def match_and_score(sims, threshold: float):
    """Greedy matching over a (P, G) OKS matrix, or its rows as lists, whose
    rows are the predictions in descending score order.

    Each prediction, in row order, picks the unclaimed ground truth with the
    highest OKS (equal similarities go to the earlier ground truth) and
    claims it if that OKS reaches the threshold. Returns, per prediction, the
    index of the ground truth it claims, or -1.
    """
    taken = set()
    claims = []
    for row in sims:
        best, best_gt = -1.0, -1
        for gi, sim in enumerate(row):
            if sim > best and gi not in taken:
                best, best_gt = sim, gi
        if best_gt >= 0 and best >= threshold:
            taken.add(best_gt)
        else:
            best_gt = -1
        claims.append(best_gt)
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


def _bucket_predicates(style, area_edges, crowd_edges):
    if style == "coco":
        lo, hi = area_edges
        return {
            "medium": lambda ann: lo <= ann.area < hi,
            "large": lambda ann: ann.area >= hi,
        }
    if style == "crowdpose":
        lo, hi = crowd_edges
        def by_crowd(a, b):
            return lambda ann: (ann.crowd_index is not None
                                and a <= ann.crowd_index < b)
        return {
            "easy": by_crowd(0.0, lo),
            "medium": by_crowd(lo, hi),
            "hard": by_crowd(hi, 1.0 + 1e-9),
        }
    raise ValueError(f"unknown evaluation style {style!r}")


def evaluate(preds_by_image: dict, gts_by_image: dict, params: OksParams, style: str = "coco",
             area_edges=(32.0 ** 2, 96.0 ** 2), crowd_edges=(0.1, 0.8)) -> EvalResult:
    """Dataset-level AP/AR.

    preds_by_image maps image id to PoseInstance lists, gts_by_image to
    PersonAnnotation lists. Ground truths with no labeled keypoints are
    excluded up front. Bucketed figures keep only the bucket's ground truths
    and the detections matched to them; unmatched detections count as false
    positives everywhere.
    """
    gts, scores, rows, first_gt = [], [], [], []
    for img in sorted(gts_by_image.keys() | preds_by_image.keys()):
        valid = [g for g in gts_by_image.get(img, []) if g.num_labeled() > 0]
        ranked = sorted(preds_by_image.get(img, []), key=lambda p: -p.score)
        rows.append(oks_matrix(ranked, valid, params).tolist())
        # per prediction, the flat index of its image's first ground truth
        first_gt += [len(gts)] * len(ranked)
        gts += valid
        scores += [-p.score for p in ranked]
    # global rank: score descending, ties by (image id, within-image rank)
    order = np.argsort(scores, kind="stable")
    first_gt = np.array(first_gt, dtype=np.int64)[order]

    def buckets(kind):
        """Per bucket, an in-bucket flag per ground truth and a trailing False
        that index -1 (no claim) reads; bucket "all" holds every ground truth."""
        predicates = {"all": lambda g: True,
                      **_bucket_predicates(kind, area_edges, crowd_edges)}
        return {name: np.array([inside(g) for g in gts] + [False])
                for name, inside in predicates.items()}

    ap_masks, ar_masks = buckets(style), buckets("coco")
    ap = {name: [] for name in ap_masks}
    ar = {name: [] for name in ar_masks}
    for t in DEFAULT_THRESHOLDS:
        claims = []
        for sims in rows:
            claims += match_and_score(sims, t)
        claims = np.array(claims, dtype=np.int64)[order]
        # per ranked detection, the flat index of the ground truth it claims, or -1
        gt = np.where(claims >= 0, claims + first_gt, -1)
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
