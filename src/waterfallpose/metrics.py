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
thresholds 0.50:0.05:0.95 and AR averages the final recalls.

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
    d2 = (pred_kps[..., 0] - gt_xy[..., 0]) ** 2 + (pred_kps[..., 1] - gt_xy[..., 1]) ** 2
    terms = np.where(labeled, np.exp(-d2 / (2.0 * area * falloff * falloff)), 0.0)
    # add.accumulate runs strictly left to right; sum() would pair the terms
    total = np.add.accumulate(terms, axis=2)[..., -1]
    return total / count


def oks(pred, gt: PersonAnnotation, params: OksParams) -> float:
    """Similarity of one prediction to one ground-truth person, in [0, 1]:
    the 1x1 case of oks_matrix."""
    return float(oks_matrix([pred], [gt], params)[0, 0])


def match_and_score(sims, threshold: float):
    """Greedy matching over a (P, G) OKS matrix whose rows are the
    predictions in descending score order.

    Each prediction, in row order, picks the unclaimed ground truth with the
    highest OKS (equal similarities go to the earlier ground truth) and
    claims it if that OKS reaches the threshold. Returns one
    (is_tp, matched_gt_index_or_None) pair per prediction.
    """
    taken = [False] * sims.shape[1]
    labels = []
    for row in sims.tolist():
        best, best_gt = -1.0, None
        for gi, sim in enumerate(row):
            if sim > best and not taken[gi]:
                best, best_gt = sim, gi
        if best_gt is not None and best >= threshold:
            taken[best_gt] = True
            labels.append((True, best_gt))
        else:
            labels.append((False, None))
    return labels


def interpolated_ap(curve):
    """101-point interpolated AP over (recall, precision) pairs in rank order
    (so recall never decreases along the curve).

    At each recall level r in {0.00, 0.01, ..., 1.00} the interpolated
    precision is the best precision at recall >= r (0 when no point reaches
    r); AP is their mean, summed in recall order.
    """
    if not len(curve):
        return 0.0
    recall, precision = np.asarray(curve, dtype=np.float64).reshape(-1, 2).T
    # best precision from each point to the end; the appended 0 answers the
    # levels that no point reaches
    suffix_best = np.maximum.accumulate(np.append(precision, 0.0)[::-1])[::-1]
    at_level = suffix_best[np.searchsorted(recall, _RECALL_LEVELS, side="left")]
    return float(np.add.accumulate(at_level)[-1]) / len(RECALL_POINTS)


def pr_curve(flags, n_gt):
    """(recall, precision) after each detection of a score-ranked TP/FP list."""
    tp = np.cumsum(np.asarray(flags, dtype=np.int64))
    rank = np.arange(1, len(tp) + 1)
    return list(zip((tp / n_gt).tolist(), (tp / rank).tolist()))


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


def evaluate(preds_by_image: dict, gts_by_image: dict, params: OksParams,
             style: str = "coco", thresholds=DEFAULT_THRESHOLDS,
             area_edges=(32.0 ** 2, 96.0 ** 2), crowd_edges=(0.1, 0.8)) -> EvalResult:
    """Dataset-level AP/AR.

    preds_by_image maps image id to PoseInstance lists, gts_by_image to
    PersonAnnotation lists. Ground truths with no labeled keypoints are
    excluded up front. Bucketed figures keep only the bucket's ground truths
    and the detections matched to them; unmatched detections count as false
    positives everywhere.
    """
    image_ids = sorted(gts_by_image.keys() | preds_by_image.keys())
    valid_gts = {
        img: [g for g in gts_by_image.get(img, []) if g.num_labeled() > 0]
        for img in image_ids
    }
    ordered_preds = {}
    for img in image_ids:
        preds = list(preds_by_image.get(img, []))
        order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))
        ordered_preds[img] = [preds[i] for i in order]

    # global rank: score descending, ties by (image id, within-image rank)
    pool = [(-p.score, img, i) for img in image_ids
            for i, p in enumerate(ordered_preds[img])]
    pool.sort()

    def membership(predicates):
        """Per bucket: (count, per image one in-bucket flag per ground truth)."""
        out = {}
        for name, predicate in predicates.items():
            inside = {img: [predicate(g) for g in valid_gts[img]] for img in image_ids}
            out[name] = (sum(sum(v) for v in inside.values()), inside)
        return out

    ap_buckets = membership(_bucket_predicates(style, area_edges, crowd_edges))
    ar_buckets = membership(_bucket_predicates("coco", area_edges, crowd_edges))
    n_gt = sum(len(v) for v in valid_gts.values())

    ap_per_t = []
    ar_per_t = []
    bucket_ap = {name: [] for name in ap_buckets}
    bucket_ar = {name: [] for name in ar_buckets}
    sims = {img: oks_matrix(ordered_preds[img], valid_gts[img], params)
            for img in image_ids}
    for t in thresholds:
        matches = {img: match_and_score(sims[img], t) for img in image_ids}
        ranked = [matches[img][i] + (img,) for _, img, i in pool]
        if n_gt > 0:
            flags = [is_tp for is_tp, _, _ in ranked]
            ap_per_t.append(interpolated_ap(pr_curve(flags, n_gt)))
            ar_per_t.append(sum(flags) / n_gt)
        for name, (count, inside) in ap_buckets.items():
            if count == 0:
                continue
            # keep the bucket's gts and their matches; everything unmatched
            # stays a false positive
            flags = [is_tp for is_tp, gi, img in ranked if not is_tp or inside[img][gi]]
            bucket_ap[name].append(interpolated_ap(pr_curve(flags, count)))
        for name, (count, inside) in ar_buckets.items():
            if count == 0:
                continue
            hits = sum(1 for is_tp, gi, img in ranked if is_tp and inside[img][gi])
            bucket_ar[name].append(hits / count)

    def mean(vals):
        return sum(vals) / len(vals) if vals else None

    t_list = list(thresholds)
    return EvalResult(
        ap=mean(ap_per_t) or 0.0,
        ap50=ap_per_t[t_list.index(0.5)] if ap_per_t and 0.5 in t_list else 0.0,
        ap75=ap_per_t[t_list.index(0.75)] if ap_per_t and 0.75 in t_list else 0.0,
        ap_buckets={name: mean(vals) for name, vals in bucket_ap.items()},
        ar=mean(ar_per_t) or 0.0,
        ar_medium=mean(bucket_ar["medium"]),
        ar_large=mean(bucket_ar["large"]),
    )
