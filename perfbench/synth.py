"""Seeded synthetic inputs for the benchmark workloads.

Everything here is written from the seed alone: binary PPM images of
stick-figure people, the JSON annotation file describing them, a JSON
results file, and (for inference) a run configuration. The program under
test only ever sees these files.

The evaluation inputs are built so that their AP/AR row is known without
running the evaluator: every detection is a copy of one ground-truth person
shifted sideways by a distance chosen to give a designed OKS, people sit far
enough apart that a detection's OKS to anyone else is negligible, and
`expected_eval_row` scores that design with its own short implementation of
the keypoint AP protocol.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

KEYPOINT_NAMES = (
    "nose", "left_eye", "right_eye", "left_ear", "right_ear",
    "left_shoulder", "right_shoulder", "left_elbow", "right_elbow",
    "left_wrist", "right_wrist", "left_hip", "right_hip",
    "left_knee", "right_knee", "left_ankle", "right_ankle",
)

# A unit-height upright person centred on the origin, image axes (y down).
SKELETON = np.array([
    (0.00, -0.42), (-0.03, -0.45), (0.03, -0.45), (-0.06, -0.43), (0.06, -0.43),
    (-0.12, -0.30), (0.12, -0.30), (-0.18, -0.12), (0.18, -0.12),
    (-0.20, 0.03), (0.20, 0.03), (-0.08, 0.05), (0.08, 0.05),
    (-0.09, 0.27), (0.09, 0.27), (-0.10, 0.50), (0.10, 0.50),
])
LIMBS = ((5, 7), (7, 9), (6, 8), (8, 10), (5, 6), (5, 11), (6, 12), (11, 12),
         (11, 13), (13, 15), (12, 14), (14, 16), (0, 5), (0, 6))

# evaluation design; the falloff matches the config written next to it
EVAL_FALLOFF = 0.1
EVAL_CELL = 200          # horizontal spacing of people in an eval image
EVAL_HEIGHT = 240
EVAL_PEOPLE = 5
EVAL_DETS = 10
# designed OKS levels: one far below 0.5, the ten midpoints between the
# thresholds 0.50:0.05:0.95, and an exact copy
EVAL_LEVELS = (0.3,) + tuple(0.525 + 0.05 * i for i in range(10)) + (1.0,)
THRESHOLDS = tuple(0.5 + 0.05 * i for i in range(10))
AREA_EDGES = (32.0 ** 2, 96.0 ** 2)


def joint_subset(k: int):
    """Indices into the 17-joint skeleton used for a K-keypoint model."""
    if k == len(KEYPOINT_NAMES):
        return list(range(k))
    return [int(round(v)) for v in np.linspace(0, len(KEYPOINT_NAMES) - 1, k)]


def _person(rng, cx, cy, height):
    """(17, 2) joint positions of one jittered, slightly rotated person."""
    theta = math.radians(rng.uniform(-15.0, 15.0))
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    pts = (SKELETON * [rng.uniform(0.85, 1.15), 1.0]) @ rot.T * height
    pts += rng.normal(0.0, 0.02 * height, size=pts.shape)
    return pts + [cx, cy]


def _annotation(rng, pts, joints, w, h):
    """Annotation record fields for the chosen joints of one person."""
    kps, labeled = [], []
    for j in joints:
        x = float(np.clip(pts[j, 0], 0.5, w - 1.5))
        y = float(np.clip(pts[j, 1], 0.5, h - 1.5))
        r = rng.random()
        v = 0 if r < 0.05 else (1 if r < 0.15 else 2)
        if v == 0:
            kps += [0.0, 0.0, 0]
        else:
            kps += [x, y, v]
            labeled.append((x, y))
    if not labeled:  # keep every person supervised
        kps[0:3] = [float(np.clip(pts[joints[0], 0], 0.5, w - 1.5)),
                    float(np.clip(pts[joints[0], 1], 0.5, h - 1.5)), 2]
        labeled.append((kps[0], kps[1]))
    xs, ys = zip(*labeled)
    bw, bh = max(xs) - min(xs), max(ys) - min(ys)
    return {"keypoints": kps, "bbox": [min(xs), min(ys), bw, bh],
            "area": max(bw * bh, 4.0)}


def _render(rng, people, h, w):
    """Noisy background with each person drawn as limbs plus joint discs."""
    img = rng.uniform(0.0, 0.15, size=(h, w, 3))
    ys, xs = np.mgrid[0:h, 0:w]
    for pts in people:
        colour = rng.uniform(0.4, 0.9, size=3)
        for a, b in LIMBS:
            for t in np.linspace(0.0, 1.0, 12):
                x, y = pts[a] + t * (pts[b] - pts[a])
                xi, yi = int(round(x)), int(round(y))
                if 0 <= xi < w and 0 <= yi < h:
                    img[yi, xi] = colour
        for j, (x, y) in enumerate(pts):
            disc = (xs - x) ** 2 + (ys - y) ** 2 <= 2.25
            img[disc] = [(j * 37 % 17) / 17.0, 1.0 - (j % 5) / 5.0, (j % 3) / 3.0]
    return np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)


def _write_ppm(path, pixels):
    h, w, _ = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode() + pixels.tobytes())


def _dataset_doc(images, annotations, k):
    names = [KEYPOINT_NAMES[j] for j in joint_subset(k)]
    return {"source": "coco", "images": images, "annotations": annotations,
            "categories": [{"id": 1, "name": "person", "keypoints": names}]}


def write_people_images(rng, out_dir, n_images, size, k, people_range,
                        height_range, slots):
    """PPM images of people placed in distinct slots, plus their annotations.

    Returns (annotation file path, list of image paths).
    """
    joints = joint_subset(k)
    images, anns, paths = [], [], []
    for i in range(n_images):
        n_people = int(rng.integers(people_range[0], people_range[1] + 1))
        chosen = rng.choice(len(slots), size=n_people, replace=False)
        people = []
        for s in sorted(chosen):
            cx, cy = slots[s]
            pts = _person(rng, cx + rng.uniform(-2, 2), cy + rng.uniform(-2, 2),
                          rng.uniform(*height_range))
            people.append(pts)
            rec = _annotation(rng, pts, joints, size, size)
            rec.update(id=len(anns) + 1, image_id=i)
            anns.append(rec)
        name = f"img_{i:03d}.ppm"
        path = os.path.join(out_dir, name)
        _write_ppm(path, _render(rng, people, size, size))
        images.append({"id": i, "file_name": name, "height": size, "width": size})
        paths.append(path)
    ann_path = os.path.join(out_dir, "annotations.json")
    with open(ann_path, "w") as f:
        json.dump(_dataset_doc(images, anns, k), f)
    return ann_path, paths


def grid_slots(size, cols, rows):
    return [((c + 0.5) * size / cols, (r + 0.5) * size / rows)
            for r in range(rows) for c in range(cols)]


def write_config(path, overrides: dict):
    """A run configuration file: the published defaults plus overrides."""
    lines = ["# synthetic benchmark configuration"]
    lines += [f"{key} = {value}" for key, value in sorted(overrides.items())]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# evaluation inputs with a known AP/AR row

def write_eval_inputs(rng, out_dir, n_images):
    """COCO-style annotations (5 people per image) and results (10 detections
    per image). Returns (annotation path, results path, design) where design
    holds, per image, the gt areas and (gt index, OKS level, score) per
    detection."""
    k = len(KEYPOINT_NAMES)
    n_dets = n_images * EVAL_DETS
    scores = (rng.permutation(n_dets) + 1) / (n_dets + 1)   # distinct
    images, anns, results, design = [], [], [], []
    for i in range(n_images):
        gts = []
        for p in range(EVAL_PEOPLE):
            area = float(np.exp(rng.uniform(np.log(500.0), np.log(20000.0))))
            pts = _person(rng, (p + 0.5) * EVAL_CELL, EVAL_HEIGHT / 2,
                          math.sqrt(area / 0.4))
            rec = {"id": len(anns) + 1, "image_id": i, "area": area,
                   "bbox": [float(pts[:, 0].min()), float(pts[:, 1].min()),
                            float(np.ptp(pts[:, 0])), float(np.ptp(pts[:, 1]))]}
            vis = np.where(rng.random(k) < 0.1, 0, 2)
            vis[0] = 2
            rec["keypoints"] = [v for j in range(k) for v in
                                ((float(pts[j, 0]), float(pts[j, 1]), int(vis[j]))
                                 if vis[j] else (0.0, 0.0, 0))]
            anns.append(rec)
            gts.append((area, pts))
        # every person gets one detection; five more repeat random people
        owners = list(range(EVAL_PEOPLE)) + list(
            rng.integers(0, EVAL_PEOPLE, size=EVAL_DETS - EVAL_PEOPLE))
        dets = []
        for d, g in enumerate(owners):
            level = float(EVAL_LEVELS[rng.integers(len(EVAL_LEVELS))])
            area, pts = gts[g]
            shift = math.sqrt(-2.0 * area * EVAL_FALLOFF ** 2 * math.log(level))
            shift *= 1.0 if rng.random() < 0.5 else -1.0
            score = float(scores[i * EVAL_DETS + d])
            flat = [v for x, y in pts for v in (float(x + shift), float(y), 1.0)]
            results.append({"image_id": i, "keypoints": flat, "score": score})
            dets.append((int(g), level, score))
        images.append({"id": i, "file_name": f"eval_{i:04d}.ppm",
                       "height": EVAL_HEIGHT, "width": EVAL_CELL * EVAL_PEOPLE})
        design.append(([a for a, _ in gts], dets))
    ann_path = os.path.join(out_dir, "eval_annotations.json")
    res_path = os.path.join(out_dir, "eval_results.json")
    with open(ann_path, "w") as f:
        json.dump(_dataset_doc(images, anns, k), f)
    with open(res_path, "w") as f:
        json.dump(results, f)
    return ann_path, res_path, design


def _interp_ap(flags, n_gt):
    rec, prec, tp = [], [], 0
    for i, hit in enumerate(flags):
        tp += hit
        rec.append(tp / n_gt)
        prec.append(tp / (i + 1))
    total = 0.0
    for r in (i / 100.0 for i in range(101)):
        total += max((p for q, p in zip(rec, prec) if q >= r), default=0.0)
    return total / 101


def expected_eval_row(design):
    """AP/AR row the evaluator must print for a write_eval_inputs design.

    A detection is a true positive at threshold t when its designed OKS
    reaches t and no higher-scored detection already claimed its person;
    OKS to other people is negligible by construction.
    """
    ranked = sorted(((score, img, g, level)
                     for img, (_, dets) in enumerate(design)
                     for g, level, score in dets), reverse=True)
    areas = {(img, g): a for img, (gts, _) in enumerate(design)
             for g, a in enumerate(gts)}
    lo, hi = AREA_EDGES
    buckets = {"medium": lambda a: lo <= a < hi, "large": lambda a: a >= hi}
    counts = {name: sum(1 for a in areas.values() if pred(a))
              for name, pred in buckets.items()}
    ap, ar = [], []
    bucket_ap = {name: [] for name in buckets}
    bucket_ar = {name: [] for name in buckets}
    for t in THRESHOLDS:
        taken = set()
        labels = []          # (is_tp, area of the matched person)
        for _, img, g, level in ranked:
            hit = level >= t and (img, g) not in taken
            if hit:
                taken.add((img, g))
            labels.append((hit, areas[(img, g)] if hit else None))
        ap.append(_interp_ap([hit for hit, _ in labels], len(areas)))
        ar.append(len(taken) / len(areas))
        for name, pred in buckets.items():
            if counts[name] == 0:
                continue
            flags = [hit for hit, a in labels if not (hit and not pred(a))]
            bucket_ap[name].append(_interp_ap(flags, counts[name]))
            bucket_ar[name].append(
                sum(1 for hit, a in labels if hit and pred(a)) / counts[name])

    def mean(vals):
        return sum(vals) / len(vals) if vals else None

    return {"AP": mean(ap), "AP50": ap[0], "AP75": ap[5],
            "AP_medium": mean(bucket_ap["medium"]),
            "AP_large": mean(bucket_ap["large"]), "AR": mean(ar),
            "AR_M": mean(bucket_ar["medium"]), "AR_L": mean(bucket_ar["large"])}
