import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from waterfallpose.decode import PoseInstance
from waterfallpose.metrics import OksParams, UndefinedOksError, RECALL_POINTS, oks, \
    oks_matrix, match_and_score, evaluate, interpolated_ap, pr_curve
from waterfallpose.targets import PersonAnnotation

from waterfallpose.checks import ap_by_loop, bruteforce_eval, pr_by_loop, \
    random_eval_scene


def gt_person(points, area=100.0, crowd_index=None):
    return PersonAnnotation([(x, y, v) for x, y, v in points],
                            area=area, crowd_index=crowd_index)


def pred_person(points, score=1.0):
    return PoseInstance([(x, y, 1.0) for x, y in points], score)


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


@st.composite
def person_lists(draw):
    """K in 1..17, up to 4 predictions and 4 ground truths (each with at
    least one labeled joint among mixed visibilities), random falloffs."""
    k = draw(st.integers(1, 17))
    params = OksParams(tuple(draw(st.lists(st.floats(0.01, 2.0), min_size=k, max_size=k))))
    preds = [PoseInstance([(draw(coords), draw(coords), 1.0) for _ in range(k)], 1.0)
             for _ in range(draw(st.integers(0, 4)))]
    gts = []
    for _ in range(draw(st.integers(0, 4))):
        vis = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k).filter(any))
        kps = [(draw(coords), draw(coords), v) if v else
               (draw(unlabeled_coords), draw(unlabeled_coords), 0) for v in vis]
        gts.append(PersonAnnotation(kps, area=draw(st.floats(0.01, 1e5))))
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
        sims = oks_matrix(preds, gts, params)
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
            oks_matrix(preds, gts, params)

    def test_empty_sides(self):
        params = OksParams.uniform(3)
        gts = [gt_person([(1, 2, 2), (3, 4, 0), (5, 6, 1)])]
        preds = [pred_person([(1, 2), (3, 4), (5, 6)])] * 2
        assert oks_matrix([], gts, params).shape == (0, 1)
        assert oks_matrix(preds, [], params).shape == (2, 0)
        assert oks_matrix([], [], params).shape == (0, 0)

    def test_keypoint_count_mismatch(self):
        with pytest.raises(ValueError, match="keypoint count"):
            oks_matrix([pred_person([(1, 2)])], [gt_person([(1, 2, 2), (3, 4, 2)])],
                       OksParams.uniform(2))

    @pytest.mark.filterwarnings("error")
    def test_underflowing_variance_scores_its_limit(self):
        # 2 * area * f^2 is 0 in float64 though the falloff alone is accepted:
        # 1 at 0 px, 0 at 1 px, and the other joint's term as before
        gt = gt_person([(5, 5, 2)], area=1e-5)
        assert oks(pred_person([(5, 5)]), gt, OksParams((1e-160,))) == 1.0
        assert oks(pred_person([(6, 5)]), gt, OksParams((1e-160,))) == 0.0
        gt = gt_person([(5, 5, 2), (8, 8, 2)], area=1e-5)
        preds = [pred_person([(5, 5), (8, 8)]), pred_person([(1e100, 5), (8, 8)]),
                 pred_person([(5, 5), (9, 8)])]
        assert oks_matrix(preds, [gt], OksParams((1e-160, 0.1))).tolist() == \
            [[1.0], [0.5], [0.5]]

    def test_far_joints_score_zero_without_overflow_warning(self):
        # (1e200)^2 and (1e308)^2 overflow float64; each such term is 0
        gt = gt_person([(5, 5, 2), (8, 8, 2), (3, 4, 2)], area=49.0)
        preds = [pred_person([(1e200, 5), (8, sign * 1e308), (4, 4)]) for sign in (1, -1)]
        want = math.exp(-1.0 / (2 * 49.0 * 0.1 * 0.1)) / 3
        for got in oks_matrix(preds, [gt], OksParams.uniform(3))[:, 0]:
            assert got == pytest.approx(want, rel=1e-15)


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


class TestMatching:
    def test_perfect_match(self):
        gts = [gt_person([(5, 5, 2)])]
        preds = [pred_person([(5, 5)], score=0.9)]
        claims = match_and_score(oks_matrix(preds, gts, OksParams.uniform(1)), 0.75)
        assert claims == [0]

    def test_second_claimant_is_fp(self):
        gts = [gt_person([(5, 5, 2)])]
        preds = [pred_person([(5, 5)], score=0.9), pred_person([(5.1, 5)], score=0.5)]
        claims = match_and_score(oks_matrix(preds, gts, OksParams.uniform(1)), 0.5)
        assert claims == [0, -1]

    def test_no_gts_all_fp(self):
        preds = [pred_person([(1, 1)], score=0.4)] * 3
        claims = match_and_score(oks_matrix(preds, [], OksParams.uniform(1)), 0.5)
        assert claims == [-1] * 3

    def test_prefers_highest_oks(self):
        gts = [gt_person([(0, 0, 2)]), gt_person([(3, 0, 2)])]
        preds = [pred_person([(2.5, 0)], score=0.8)]
        claims = match_and_score(oks_matrix(preds, gts, OksParams.uniform(1)), 0.0)
        assert claims == [1]


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
                for row in oks_matrix(ps, gts[img], params).tolist():
                    high = [v for v in row if v >= 0.5]
                    equal_oks += len(set(high)) < len(high)
        assert min(within, across, equal_oks) >= 20

    def test_matches_bruteforce_oracle_on_fuzzed_scenes(self, rng):
        for _ in range(120):
            preds, gts, params = random_eval_scene(rng)
            assert evaluate(preds, gts, params).as_row() == \
                bruteforce_eval(preds, gts, params).as_row()

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
