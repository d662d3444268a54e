"""Keypoint-similarity scoring and the AP/AR evaluator.

The similarity between a predicted and a ground-truth pose is

    OKS = sum_i exp(-d_i^2 / (2 s^2 k_i^2)) [v_i > 0]  /  sum_i [v_i > 0]

with d_i the Euclidean distance between matching keypoints, s = sqrt(area)
of the target, and k_i a per-keypoint falloff constant. Average precision
follows the standard keypoint protocol: greedy highest-similarity matching
per image at each threshold, then a 101-point interpolated precision-recall
integral over score-ranked detections; AP averages the thresholds
0.50:0.05:0.95 and AR averages the final recalls.

Undefined buckets (no ground truths) are reported as None, never as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .targets import PersonAnnotation

DEFAULT_THRESHOLDS = tuple(0.5 + 0.05 * i for i in range(10))
RECALL_POINTS = tuple(i / 100.0 for i in range(101))


@dataclass(frozen=True)
class OksParams:
    """Per-keypoint falloff constants; supply the table for your dataset."""

    falloffs: tuple

    def __post_init__(self):
        if not self.falloffs or any(not (f > 0) for f in self.falloffs):
            raise ValueError("every falloff constant must be positive")

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


def oks(pred, gt: PersonAnnotation, params: OksParams) -> float:
    """Similarity of a prediction (a decode.PoseInstance, or anything with
    (x, y, score) keypoints) to one ground-truth person, in [0, 1]."""
    if len(gt.keypoints) != len(pred.keypoints):
        raise ValueError(
            f"keypoint count mismatch: prediction {len(pred.keypoints)}, "
            f"ground truth {len(gt.keypoints)}")
    if len(params.falloffs) != len(gt.keypoints):
        raise ValueError(f"need {len(gt.keypoints)} falloffs, got {len(params.falloffs)}")
    s2 = gt.area
    total = 0.0
    visible = 0
    for (px, py, _), kp, kf in zip(pred.keypoints, gt.keypoints, params.falloffs):
        if kp.v == 0:
            continue
        d2 = (px - kp.x) ** 2 + (py - kp.y) ** 2
        total += float(np.exp(-d2 / (2.0 * s2 * kf * kf)))
        visible += 1
    if visible == 0:
        raise UndefinedOksError("ground truth has no labeled keypoints")
    return total / visible


def match_and_score(preds, gts, threshold: float, params: OksParams):
    """Greedy matching of score-sorted predictions to ground truths.

    Each prediction, taken in the given (descending score) order, claims the
    unmatched ground truth with the highest OKS if that OKS reaches the
    threshold; equal similarities go to the earlier ground truth. Returns one
    (is_tp, matched_gt_index_or_None) pair per prediction.
    """
    taken = [False] * len(gts)
    labels = []
    for pred in preds:
        best, best_gt = -1.0, None
        for gi, gt in enumerate(gts):
            if taken[gi]:
                continue
            sim = oks(pred, gt, params)
            if sim > best:
                best, best_gt = sim, gi
        if best_gt is not None and best >= threshold:
            taken[best_gt] = True
            labels.append((True, best_gt))
        else:
            labels.append((False, None))
    return labels


def interpolated_ap(curve):
    """101-point interpolated AP over (recall, precision) pairs in rank order.

    At each recall level r in {0.00, 0.01, ..., 1.00} the interpolated
    precision is the best precision at recall >= r; AP is their mean.
    """
    if not curve:
        return 0.0
    total = 0.0
    for r in RECALL_POINTS:
        best = 0.0
        for rec, prec in curve:
            if rec >= r and prec > best:
                best = prec
        total += best
    return total / len(RECALL_POINTS)


def pr_curve(flags, n_gt):
    """(recall, precision) after each detection of a score-ranked TP/FP list."""
    tp = 0
    curve = []
    for fi, is_tp in enumerate(flags):
        tp += 1 if is_tp else 0
        curve.append((tp / n_gt, tp / (fi + 1)))
    return curve


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

    ap_preds = _bucket_predicates(style, area_edges, crowd_edges)
    area_preds = _bucket_predicates("coco", area_edges, crowd_edges)
    n_gt = sum(len(v) for v in valid_gts.values())

    def bucket_count(predicate):
        return sum(1 for v in valid_gts.values() for g in v if predicate(g))

    ap_per_t = []
    ar_per_t = []
    bucket_ap = {name: [] for name in ap_preds}
    bucket_ar = {name: [] for name in area_preds}
    for t in thresholds:
        matches = {img: match_and_score(ordered_preds[img], valid_gts[img], t, params)
                   for img in image_ids}
        ranked = [(matches[img][i], img) for _, img, i in pool]
        if n_gt > 0:
            flags = [is_tp for (is_tp, _), _ in ranked]
            ap_per_t.append(interpolated_ap(pr_curve(flags, n_gt)))
            ar_per_t.append(sum(flags) / n_gt)
        for name, predicate in ap_preds.items():
            count = bucket_count(predicate)
            if count == 0:
                continue
            # keep the bucket's gts and their matches; everything unmatched
            # stays a false positive
            flags = [is_tp for (is_tp, gi), img in ranked
                     if not (is_tp and not predicate(valid_gts[img][gi]))]
            bucket_ap[name].append(interpolated_ap(pr_curve(flags, count)))
        for name, predicate in area_preds.items():
            count = bucket_count(predicate)
            if count == 0:
                continue
            hits = sum(1 for (is_tp, gi), img in ranked
                       if is_tp and predicate(valid_gts[img][gi]))
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
