import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from waterfallpose.decode import PoseInstance
from waterfallpose.metrics import AREA_RANGE, DEFAULT_THRESHOLDS, FALLOFF_RANGE, OksParams, \
    UndefinedOksError, RECALL_POINTS, oks, oks_matrix, greedy_match, evaluate, interpolated_ap, \
    pr_curve
from waterfallpose.targets import PersonAnnotation

from waterfallpose.checks import ap_by_loop, bruteforce_eval, pr_by_loop, \
    random_eval_scene


def gt_person(points, area=100.0, crowd_index=None):
    return PersonAnnotation([(x, y, v) for x, y, v in points],
                            area=area, crowd_index=crowd_index)


def pred_person(points, score=1.0):
    return PoseInstance([(x, y, 1.0) for x, y in points], score)


def oks_matrix_of(preds, gts, params):
    """oks_matrix over lists of people, stacked into keypoint arrays."""
    k = len(params.falloffs)
    return oks_matrix(np.array([p.keypoints for p in preds]).reshape(len(preds), k, 3),
                      np.array([g.keypoints for g in gts]).reshape(len(gts), k, 3),
                      [g.area for g in gts], params)


class TestOks:
    def test_identical_poses_give_one(self):
        gt = gt_person([(3, 4, 2), (10, 2, 2), (5, 5, 1)])
        pred = pred_person([(3, 4), (10, 2), (5, 5)])
        assert oks(pred, gt, OksParams.uniform(3)) == pytest.approx(1.0, abs=1e-12)

    def test_single_keypoint_at_s_times_k(self):
        area = 49.0
        k = 0.2
        d = np.sqrt(area) * k
        gt = gt_person([(10, 10, 2)], area=area)
        pred = pred_person([(10 + d, 10)])
        val = oks(pred, gt, OksParams((k,)))
        assert val == pytest.approx(np.exp(-0.5), abs=1e-9)

    def test_far_keypoint_halves(self):
        gt = gt_person([(5, 5, 2), (20, 20, 2)], area=25.0)
        pred = pred_person([(5, 5), (1e9, 1e9)])
        assert oks(pred, gt, OksParams.uniform(2)) == pytest.approx(0.5, abs=1e-12)

    def test_unlabeled_keypoints_excluded(self):
        gt = gt_person([(5, 5, 2), (7, 7, 0)])
        pred = pred_person([(5, 5), (999, 999)])
        assert oks(pred, gt, OksParams.uniform(2)) == pytest.approx(1.0)

    def test_no_visible_raises(self):
        gt = PersonAnnotation([(0, 0, 0)], area=10.0)
        with pytest.raises(UndefinedOksError):
            oks(pred_person([(0, 0)]), gt, OksParams.uniform(1))

    def test_translation_invariance(self, rng):
        pts = rng.uniform(0, 30, size=(4, 2))
        gt = gt_person([(x, y, 2) for x, y in pts], area=77.0)
        pred = pred_person([(x + rng.uniform(-2, 2), y + rng.uniform(-2, 2))
                            for x, y in pts])
        params = OksParams.uniform(4)
        base = oks(pred, gt, params)
        dx, dy = 13.5, -7.25
        gt2 = gt_person([(k[0] + dx, k[1] + dy, k[2]) for k in gt.keypoints], area=77.0)
        pred2 = PoseInstance([(x + dx, y + dy, s) for x, y, s in pred.keypoints], 1.0)
        assert oks(pred2, gt2, params) == pytest.approx(base, rel=1e-12)

    def test_scale_invariance_with_area(self, rng):
        pts = rng.uniform(0, 30, size=(3, 2))
        gt = gt_person([(x, y, 2) for x, y in pts], area=50.0)
        pred = pred_person([(x + 1.0, y - 0.5) for x, y in pts])
        params = OksParams.uniform(3)
        base = oks(pred, gt, params)
        c = 3.0
        gt2 = gt_person([(k[0] * c, k[1] * c, k[2]) for k in gt.keypoints],
                        area=50.0 * c * c)
        pred2 = PoseInstance([(x * c, y * c, s) for x, y, s in pred.keypoints], 1.0)
        assert oks(pred2, gt2, params) == pytest.approx(base, rel=1e-12)

    def test_monotone_in_distance(self):
        gt = gt_person([(10, 10, 2), (20, 10, 2)], area=36.0)
        params = OksParams.uniform(2)
        prev = 1.0
        for d in (0.0, 1.0, 2.0, 5.0, 11.0, 29.0):
            val = oks(pred_person([(10 + d, 10), (20, 10)]), gt, params)
            assert val <= prev
            prev = val


coords = st.floats(-500.0, 500.0)
# an unlabeled joint may carry any coordinate, non-finite ones included
unlabeled_coords = st.sampled_from([0.0, 7.5, -3.0, math.nan, math.inf, -math.inf])


def log_uniform(lo, hi):
    """Floats spread evenly in log scale over [lo, hi], both edges included."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0 ** e, lo), hi))


@st.composite
def person_lists(draw):
    """K in 1..17, up to 4 predictions and 4 ground truths (each with at
    least one labeled joint among mixed visibilities), falloffs and areas
    over their whole accepted ranges."""
    k = draw(st.integers(1, 17))
    params = OksParams(tuple(draw(st.lists(log_uniform(*FALLOFF_RANGE), min_size=k,
                                           max_size=k))))
    preds = [PoseInstance([(draw(coords), draw(coords), 1.0) for _ in range(k)], 1.0)
             for _ in range(draw(st.integers(0, 4)))]
    gts = []
    for _ in range(draw(st.integers(0, 4))):
        vis = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k).filter(any))
        kps = [(draw(coords), draw(coords), v) if v else
               (draw(unlabeled_coords), draw(unlabeled_coords), 0) for v in vis]
        gts.append(PersonAnnotation(kps, area=draw(log_uniform(*AREA_RANGE))))
    return preds, gts, params


def oks_by_loop(pred, gt, params):
    """The OKS formula term by term, in math.exp."""
    total, labeled = 0.0, 0
    for (px, py, _), kp, kf in zip(pred.keypoints, gt.keypoints, params.falloffs):
        if kp[2]:
            d2 = (px - kp[0]) ** 2 + (py - kp[1]) ** 2
            total += math.exp(-d2 / (2.0 * gt.area * kf * kf))
            labeled += 1
    return total / labeled


class TestOksMatrix:
    @settings(max_examples=300)
    @given(person_lists())
    def test_every_entry_is_the_scalar_oks(self, scene):
        preds, gts, params = scene
        sims = oks_matrix_of(preds, gts, params)
        assert sims.shape == (len(preds), len(gts)) and sims.dtype == np.float64
        for i, pred in enumerate(preds):
            for j, gt in enumerate(gts):
                assert sims[i, j] == oks(pred, gt, params)      # bitwise
                assert sims[i, j] == pytest.approx(oks_by_loop(pred, gt, params),
                                                   rel=1e-12, abs=1e-300)
                assert 0.0 <= sims[i, j] <= 1.0

    @settings(max_examples=100)
    @given(person_lists(), st.data())
    def test_gt_without_labeled_joint_raises(self, scene, data):
        preds, gts, params = scene
        k = len(params.falloffs)
        blank = PersonAnnotation([(1.0, 2.0, 0)] * k, area=10.0)
        gts.insert(data.draw(st.integers(0, len(gts))), blank)
        with pytest.raises(UndefinedOksError):
            oks_matrix_of(preds, gts, params)

    def test_empty_sides(self):
        params = OksParams.uniform(3)
        gts = [gt_person([(1, 2, 2), (3, 4, 0), (5, 6, 1)])]
        preds = [pred_person([(1, 2), (3, 4), (5, 6)])] * 2
        assert oks_matrix_of([], gts, params).shape == (0, 1)
        assert oks_matrix_of(preds, [], params).shape == (2, 0)
        assert oks_matrix_of([], [], params).shape == (0, 0)

    def test_keypoint_count_mismatch(self):
        params = OksParams.uniform(2)
        with pytest.raises(ValueError, match="keypoint count mismatch: prediction has 1"):
            oks_matrix(np.zeros((1, 1, 3)), np.full((1, 2, 3), 2.0), [1.0], params)
        with pytest.raises(ValueError, match="keypoint count mismatch: ground truth has 3"):
            oks_matrix(np.zeros((1, 2, 3)), np.full((1, 3, 3), 2.0), [1.0], params)
        with pytest.raises(ValueError, match="keypoint count"):
            oks(pred_person([(1, 2)]), gt_person([(1, 2, 2), (3, 4, 2)]), params)

    def test_underflowing_falloff_is_rejected(self):
        # 2 * area * f^2 would underflow to 0 at area 1e-5: refused up front,
        # as is anything just outside the range; its edges are accepted
        lo, hi = FALLOFF_RANGE
        for falloffs in ((1e-160,), (1e-160, 0.1), (np.nextafter(lo, 0.0),),
                         (0.1, np.nextafter(hi, math.inf))):
            with pytest.raises(ValueError, match="falloff constant"):
                OksParams(falloffs)
        assert OksParams(FALLOFF_RANGE).falloffs == FALLOFF_RANGE

    def test_far_joints_score_zero_without_overflow_warning(self):
        # (1e200)^2 and (1e308)^2 overflow float64; each such term is 0
        gt = gt_person([(5, 5, 2), (8, 8, 2), (3, 4, 2)], area=49.0)
        preds = [pred_person([(1e200, 5), (8, sign * 1e308), (4, 4)]) for sign in (1, -1)]
        want = math.exp(-1.0 / (2 * 49.0 * 0.1 * 0.1)) / 3
        for got in oks_matrix_of(preds, [gt], OksParams.uniform(3))[:, 0]:
            assert got == pytest.approx(want, rel=1e-15)

    @staticmethod
    def assert_area_rejected(area, params):
        """A labeled ground truth of this area is refused by oks, oks_matrix
        and evaluate, next to an ordinary one and before any warning."""
        huge = gt_person([(5, 5, 2)], area=area)
        small = gt_person([(6, 5, 2)], area=49.0)
        pred = pred_person([(5, 5)], score=0.9)
        with pytest.raises(ValueError, match="area must lie in"):
            oks(pred, huge, params)
        with pytest.raises(ValueError, match="area must lie in"):
            oks_matrix_of([pred], [small, huge], params)
        with pytest.raises(ValueError, match="area must lie in"):
            evaluate({1: [pred]}, {1: [small], 2: [huge]}, params)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_area_is_rejected(self):
        # 2 * 1e308 overflows float64, and so does anything just past the
        # range or just below it; the edges themselves score as the formula
        lo, hi = AREA_RANGE
        for area in (1e308, np.nextafter(hi, math.inf), np.nextafter(lo, 0.0)):
            self.assert_area_rejected(area, OksParams((0.2,)))
        pred = pred_person([(5, 5)])
        for area in AREA_RANGE:
            gt = gt_person([(6, 5, 2)], area=area)
            assert oks(pred, gt, OksParams((0.2,))) == \
                np.exp(-np.array([1.0]) / (2.0 * area * 0.2 * 0.2))[0]

    @pytest.mark.filterwarnings("error")
    def test_infinite_variance_area_is_rejected(self):
        # 2 * 1e307 * 10^2 is beyond float64 however it is formed
        self.assert_area_rejected(1e307, OksParams((10.0,)))


def pairs(recall, precision):
    return list(zip(recall.tolist(), precision.tolist()))


class TestApProperties:
    @settings(max_examples=300)
    @given(st.lists(st.booleans(), max_size=80), st.integers(0, 40))
    def test_ranked_flags(self, flags, missed):
        # empty lists, all false positives and runs of repeated recall
        # (every false positive repeats the recall before it) all occur
        n_gt = max(sum(flags) + missed, 1)
        recall, precision = pr_curve(np.array(flags, dtype=bool), n_gt)
        curve = pr_by_loop(flags, n_gt)
        assert pairs(recall, precision) == curve
        assert interpolated_ap(recall, precision) == ap_by_loop(curve)

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.sampled_from(RECALL_POINTS) | st.floats(0.0, 1.0),
                              st.floats(0.0, 1.0)), max_size=40))
    def test_any_curve_with_nondecreasing_recall(self, points):
        recall = np.sort(np.array([r for r, _ in points], dtype=np.float64))
        precision = np.array([p for _, p in points], dtype=np.float64)
        assert interpolated_ap(recall, precision) == ap_by_loop(pairs(recall, precision))

    def test_all_false_positives_and_empty(self):
        assert interpolated_ap(*pr_curve(np.zeros(7, dtype=bool), 3)) == 0.0
        assert interpolated_ap(*pr_curve(np.zeros(0, dtype=bool), 3)) == 0.0


def greedy_by_loop(rows, threshold):
    """Greedy matching of one image at one threshold, prediction by
    prediction over its OKS rows in rank order."""
    taken, claims = set(), []
    for row in rows:
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


def claims_of(preds, gts, threshold):
    sims = oks_matrix_of(preds, gts, OksParams.uniform(1))
    return greedy_match(sims.ravel(), [len(preds)], [len(gts)], (threshold,))[0].tolist()


# equal values, values on the thresholds and NaN all occur
similarities = st.sampled_from([0.0, 1.0, math.nan, *DEFAULT_THRESHOLDS]) | st.floats(0.0, 1.0)


@st.composite
def matching_sets(draw):
    """Up to 6 images of 0-6 ranked predictions by 0-4 ground truths, and
    1-10 thresholds."""
    gt_counts = draw(st.lists(st.integers(0, 4), max_size=6))
    images = [draw(st.lists(st.lists(similarities, min_size=n_gt, max_size=n_gt), max_size=6))
              for n_gt in gt_counts]
    thresholds = draw(st.sampled_from([DEFAULT_THRESHOLDS]) |
                      st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10))
    return images, gt_counts, thresholds


class TestMatching:
    def test_perfect_match(self):
        gts = [gt_person([(5, 5, 2)])]
        preds = [pred_person([(5, 5)], score=0.9)]
        assert claims_of(preds, gts, 0.75) == [0]

    def test_second_claimant_is_fp(self):
        gts = [gt_person([(5, 5, 2)])]
        preds = [pred_person([(5, 5)], score=0.9), pred_person([(5.1, 5)], score=0.5)]
        assert claims_of(preds, gts, 0.5) == [0, -1]

    def test_no_gts_all_fp(self):
        preds = [pred_person([(1, 1)], score=0.4)] * 3
        assert claims_of(preds, [], 0.5) == [-1] * 3

    def test_prefers_highest_oks(self):
        gts = [gt_person([(0, 0, 2)]), gt_person([(3, 0, 2)])]
        preds = [pred_person([(2.5, 0)], score=0.8)]
        assert claims_of(preds, gts, 0.0) == [1]

    @settings(max_examples=300)
    @given(matching_sets())
    # rows that cannot claim (best OKS below every threshold, or NaN) between
    # rows that do, which the steps skip
    @example(([[[0.9, 0.2], [0.1, 0.45], [math.nan, math.nan], [0.8, 0.6], [0.3, math.nan]],
               [], [[math.nan], [0.7], [0.49]]], [2, 3, 1], DEFAULT_THRESHOLDS))
    def test_every_image_and_threshold_is_the_loop(self, case):
        images, gt_counts, thresholds = case
        sims = np.array([v for rows in images for row in rows for v in row], dtype=np.float64)
        claims = greedy_match(sims, [len(rows) for rows in images], gt_counts, thresholds)
        assert claims.shape == (len(thresholds), sum(len(rows) for rows in images))
        for t, got in zip(thresholds, claims.tolist()):
            assert got == [gi for rows in images for gi in greedy_by_loop(rows, t)]


class TestPrIntegration:
    def test_all_hits(self):
        curve = pr_curve(np.array([True, True, True]), 3)
        assert pairs(*curve) == [(1 / 3, 1.0), (2 / 3, 1.0), (1.0, 1.0)]
        assert interpolated_ap(*curve) == 1.0

    def test_no_hits(self):
        assert interpolated_ap(*pr_curve(np.array([False, False]), 4)) == 0.0
        assert interpolated_ap(np.zeros(0), np.zeros(0)) == 0.0

    def test_interpolation_uses_best_suffix_precision(self):
        # hit, miss, hit: precision recovers to 2/3 at the second hit, so the
        # interpolated precision at recall <= 0.5 must be 1.0 (not 1/2)
        curve = pr_curve(np.array([True, False, True]), 2)
        assert pairs(*curve) == [(0.5, 1.0), (0.5, 0.5), (1.0, 2 / 3)]
        ap = interpolated_ap(*curve)
        expected = (51 * 1.0 + 50 * (2 / 3)) / 101
        assert ap == pytest.approx(expected, abs=1e-12)


def perfect_scene():
    gts = {0: [gt_person([(5, 5, 2), (9, 9, 2)]), gt_person([(20, 20, 2), (25, 25, 2)])],
           1: [gt_person([(4, 14, 2), (6, 16, 2)])]}
    preds = {0: [pred_person([(5, 5), (9, 9)], 0.9),
                 pred_person([(20, 20), (25, 25)], 0.8)],
             1: [pred_person([(4, 14), (6, 16)], 0.95)]}
    return preds, gts


def merged_eval_set(rng, **edges):
    """10-20 random_eval_scene draws in one set under shuffled image ids, plus
    an image with 30-40 predictions on its ground truths (with tied scores),
    one with ground truths and no predictions and one with predictions and
    no ground truths."""
    preds, gts, params = {}, {}, None
    ids = iter(rng.permutation(10_000).tolist())
    for _ in range(int(rng.integers(10, 21))):
        p, g, params = random_eval_scene(rng, **edges)
        for img in sorted(g):
            key = next(ids)
            preds[key], gts[key] = p[img], g[img]
    crowd = []
    while len(crowd) < 2:
        crowd = max(random_eval_scene(rng, **edges)[1].values(), key=len)
    crowded = []
    for _ in range(int(rng.integers(30, 41))):
        gt = crowd[int(rng.integers(len(crowd)))]
        spread = np.sqrt(gt.area) * params.falloffs[0] * rng.uniform(0, 1.5)
        xy = gt.keypoints[:, :2] + spread * rng.standard_normal((2, 2))
        crowded.append(PoseInstance(np.hstack([xy, np.ones((2, 1))]),
                                    float(rng.choice([0.25, 0.5, 0.75]))))
    key = next(ids)
    preds[key], gts[key] = crowded, crowd
    gts[next(ids)] = crowd
    preds[next(ids)] = crowded[:5]
    return preds, gts, params


class TestEvaluator:
    def test_perfect_detection_ap1(self):
        preds, gts = perfect_scene()
        res = evaluate(preds, gts, OksParams.uniform(2))
        assert res.ap == 1.0 and res.ar == 1.0
        assert res.ap50 == 1.0 and res.ap75 == 1.0

    def test_no_detections_ap0(self):
        _, gts = perfect_scene()
        res = evaluate({}, gts, OksParams.uniform(2))
        assert res.ap == 0.0 and res.ar == 0.0

    def test_score_monotone_transform_invariance(self, rng):
        preds, gts = perfect_scene()
        res_a = evaluate(preds, gts, OksParams.uniform(2))
        squashed = {i: [PoseInstance(p.keypoints, p.score ** 3 * 0.5) for p in ps]
                    for i, ps in preds.items()}
        res_b = evaluate(squashed, gts, OksParams.uniform(2))
        assert res_a.ap == res_b.ap and res_a.ar == res_b.ar

    def test_empty_bucket_is_none_not_zero(self):
        gts = {0: [gt_person([(5, 5, 2)], area=50.0 ** 2)]}  # large only
        preds = {0: [pred_person([(5, 5)], 0.9)]}
        res = evaluate(preds, gts, OksParams.uniform(1),
                       area_edges=(32.0 ** 2, 48.0 ** 2))
        assert res.ap_buckets["medium"] is None
        assert res.ap_buckets["large"] == 1.0
        assert res.ar_medium is None and res.ar_large == 1.0

    def test_crowdpose_buckets(self):
        gts = {0: [gt_person([(5, 5, 2)], crowd_index=0.05)],
               1: [gt_person([(5, 5, 2)], crowd_index=0.5)],
               2: [gt_person([(5, 5, 2)], crowd_index=0.9)]}
        preds = {0: [pred_person([(5, 5)], 0.9)],
                 1: [pred_person([(5, 5)], 0.9)],
                 2: [pred_person([(99, 99)], 0.9)]}
        res = evaluate(preds, gts, OksParams.uniform(1), style="crowdpose")
        assert res.ap_buckets["easy"] == 1.0
        assert res.ap_buckets["medium"] == 1.0
        assert res.ap_buckets["hard"] == 0.0

    def test_fuzzed_scenes_hold_ties(self, rng):
        # the orderings the evaluator must keep: equal scores within and
        # across images, and equal OKS at or above 0.5 to two ground truths
        within = across = equal_oks = 0
        for _ in range(120):
            preds, gts, params = random_eval_scene(rng)
            scores = [{p.score for p in ps} for ps in preds.values()]
            within += any(len(s) < len(ps) for s, ps in zip(scores, preds.values()))
            across += any(a & b for i, a in enumerate(scores) for b in scores[i + 1:])
            for img, ps in preds.items():
                for row in oks_matrix_of(ps, gts[img], params).tolist():
                    high = [v for v in row if v >= 0.5]
                    equal_oks += len(set(high)) < len(high)
        assert min(within, across, equal_oks) >= 20

    def test_matches_bruteforce_oracle_on_fuzzed_scenes(self, rng):
        for _ in range(120):
            preds, gts, params = random_eval_scene(rng)
            assert evaluate(preds, gts, params).as_row() == \
                bruteforce_eval(preds, gts, params).as_row()

    @pytest.mark.parametrize("style", ["coco", "crowdpose"])
    def test_merged_sets_match_oracle(self, rng, style):
        # many images at once: the batched OKS pass and matcher must keep
        # every image's pairs, ranks and ground-truth offsets apart
        edges = {"area_edges": (30.0, 80.0), "crowd_edges": (0.3, 0.7)}
        for _ in range(6):
            preds, gts, params = merged_eval_set(rng, **edges)
            assert evaluate(preds, gts, params, style=style, **edges).as_row() == \
                bruteforce_eval(preds, gts, params, style=style, **edges).as_row()

    @pytest.mark.parametrize("style", ["coco", "crowdpose"])
    def test_bucketed_rows_match_oracle(self, rng, style):
        # areas on both sides of the area edges and crowd indices on and
        # between the crowd edges, so every bucket is populated in some scenes
        edges = {"area_edges": (30.0, 80.0), "crowd_edges": (0.3, 0.7)}
        defined = {}
        for _ in range(50):
            preds, gts, params = random_eval_scene(rng, **edges)
            res = evaluate(preds, gts, params, style=style, **edges)
            assert res.as_row() == \
                bruteforce_eval(preds, gts, params, style=style, **edges).as_row()
            for name, value in res.as_row().items():
                defined[name] = defined.get(name, 0) + (value is not None)
        assert min(defined.values()) >= 10
