import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from waterfallpose import tensor as T
from waterfallpose.checks import random_pose_scene, scene_maps
from waterfallpose.decode import DecodeConfig, PoseInstance, nms_peaks, decode_poses
from waterfallpose.metrics import OksParams, oks
from waterfallpose.targets import PersonAnnotation, render_keypoint_heatmaps
from waterfallpose.waterfall import PoseMaps


CFG = DecodeConfig()


def nms_by_loop(plane, cfg):
    """The peaks of nms_peaks, one comparison per window offset over the
    plane padded with -inf (the window clamped to the plane as there)."""
    h, w = plane.shape
    r = min(cfg.nms_window // 2, max(h, w, 1) - 1)
    padded = np.full((h + 2 * r, w + 2 * r), -np.inf)
    padded[r: r + h, r: r + w] = plane
    is_peak = plane >= cfg.center_threshold
    for dr in range(-r, r + 1):
        for dc in range(-r, r + 1):
            if dr or dc:
                is_peak &= plane > padded[r + dr: r + dr + h, r + dc: r + dc + w]
    ys, xs = np.nonzero(is_peak)
    peaks = sorted(((float(plane[y, x]), int(y), int(x)) for y, x in zip(ys, xs)),
                   key=lambda t: (-t[0], t[1], t[2]))
    return [(x, y, s) for s, y, x in peaks[: cfg.max_instances]]


# plateaus, -inf and NaN all occur
scores = st.sampled_from([0.0, 0.1, 0.5, 1.0, -np.inf, np.nan]) | st.floats(0.0, 1.0)


class TestNmsPeaks:
    @settings(max_examples=300)
    @given(plane=st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
               lambda shape: arrays(np.float64, shape, elements=scores)),
           window=st.integers(0, 13).map(lambda r: 2 * r + 1) | st.just(2 ** 62 + 1),
           threshold=st.sampled_from([0.0, 0.1, 0.5]))
    def test_equals_the_offset_loop(self, plane, window, threshold):
        cfg = DecodeConfig(center_threshold=threshold, nms_window=window, max_instances=200)
        assert nms_peaks(plane, cfg) == nms_by_loop(plane, cfg)

    def test_widest_window_is_fast(self, rng):
        # the window that covers a 128x128 map (a 512x512 image): one numpy
        # pass per window offset would be 65,024 passes over the plane
        plane = rng.uniform(0, 1, size=(128, 128))
        cfg = DecodeConfig(nms_window=255)
        best = np.inf
        for _ in range(3):
            start = time.perf_counter()
            peaks = nms_peaks(plane, cfg)
            best = min(best, time.perf_counter() - start)
        assert len(peaks) == 1 and best < 0.1, best

    def test_zero_map_empty(self):
        assert nms_peaks(np.zeros((16, 16)), CFG) == []

    def test_single_gaussian_single_peak(self):
        ann = PersonAnnotation([(9, 5, 2)], area=10.0)
        maps = render_keypoint_heatmaps([ann], 1, 16, 16)
        peaks = nms_peaks(maps[0, 0].astype(np.float64), CFG)
        assert peaks == [(9, 5, 1.0)]

    def test_two_gaussians_two_peaks(self):
        anns = [PersonAnnotation([(5, 8, 2)], area=10.0),
                PersonAnnotation([(15, 8, 2)], area=10.0)]
        maps = render_keypoint_heatmaps(anns, 1, 24, 24)
        peaks = nms_peaks(maps[0, 0].astype(np.float64), CFG)
        assert sorted((x, y) for x, y, _ in peaks) == [(5, 8), (15, 8)]

    def test_flat_plateau_has_no_peak(self):
        plane = np.zeros((8, 8))
        plane[3:5, 3:5] = 0.9
        assert nms_peaks(plane, CFG) == []
        assert nms_peaks(np.full((8, 8), 0.5), CFG) == []

    def test_equal_scored_peaks_sorted_by_row_col(self):
        plane = np.zeros((12, 12))
        plane[8, 2] = 0.7
        plane[2, 8] = 0.7
        plane[5, 5] = 0.9
        assert nms_peaks(plane, CFG) == [(5, 5, 0.9), (8, 2, 0.7), (2, 8, 0.7)]

    def test_threshold_filters(self):
        plane = np.zeros((8, 8))
        plane[2, 2] = 0.05
        plane[6, 6] = 0.2
        assert nms_peaks(plane, CFG) == [(6, 6, 0.2)]

    def test_sorted_and_capped(self, rng):
        plane = np.zeros((32, 32))
        for i in range(6):
            plane[5 * i + 2, 5 * i + 2] = 0.3 + 0.1 * i
        cfg = DecodeConfig(max_instances=4)
        peaks = nms_peaks(plane, cfg)
        assert len(peaks) == 4
        scores = [s for _, _, s in peaks]
        assert scores == sorted(scores, reverse=True)

    def test_window_past_the_plane_is_clamped(self, rng):
        # every pixel's window covers the plane from 2 * max(h, w) - 1 on, so
        # a wider window, up to one that could never be allocated, finds the
        # same peaks: the plane's strict maximum when it reaches the threshold
        for h, w in ((1, 1), (1, 9), (7, 3), (16, 16), (5, 31)):
            for _ in range(4):
                plane = rng.uniform(0, 1, size=(h, w))
                covering = 2 * max(h, w) - 1
                expected = nms_peaks(plane, DecodeConfig(nms_window=covering))
                y, x = np.unravel_index(np.argmax(plane), plane.shape)
                top = [(int(x), int(y), float(plane[y, x]))] if plane.max() >= 0.1 else []
                assert expected == top
                for window in (covering + 2, 2 * max(h, w) + 1, 2 ** 62 + 1):
                    assert nms_peaks(plane, DecodeConfig(nms_window=window)) == expected

    def test_peaks_not_adjacent(self, rng):
        plane = rng.uniform(0, 1, size=(24, 24))
        peaks = nms_peaks(plane, DecodeConfig(max_instances=1000))
        spots = [(y, x) for x, y, _ in peaks]
        for i, (r1, c1) in enumerate(spots):
            for r2, c2 in spots[i + 1:]:
                assert max(abs(r1 - r2), abs(c1 - c2)) > 1


class TestDecodePoses:
    def test_empty_maps_empty_list(self):
        maps = PoseMaps(np.zeros((1, 4, 16, 16), dtype=np.float32),
                        np.zeros((1, 6, 16, 16), dtype=np.float32))
        assert decode_poses(maps, CFG) == []

    def test_non_finite_joint_is_an_error(self):
        heat = np.zeros((1, 2, 16, 16), dtype=np.float32)
        heat[0, 1, 8, 8] = 1.0
        offs = np.zeros((1, 2, 16, 16), dtype=np.float32)
        offs[0, 1, 8, 8] = np.nan
        with pytest.raises(ValueError, match="finite"):
            decode_poses(PoseMaps(heat, offs), CFG)

    def test_round_trip_single_person(self, rng):
        anns = random_pose_scene(rng, 1)
        maps = scene_maps(anns, 3)
        poses = decode_poses(maps, CFG)
        assert len(poses) == 1
        for (px, py, ps), kp in zip(poses[0].keypoints, anns[0].keypoints):
            assert abs(px - kp[0]) <= 0.5 and abs(py - kp[1]) <= 0.5
            assert ps > 0.5

    def test_round_trip_two_far_apart(self, rng):
        anns = random_pose_scene(rng, 2, min_sep=20.0)
        maps = scene_maps(anns, 3)
        poses = decode_poses(maps, CFG)
        assert len(poses) == 2
        params = OksParams.uniform(3)
        for ann in anns:
            best = max(oks(p, ann, params) for p in poses)
            assert best >= 0.99

    def test_deterministic(self, rng):
        anns = random_pose_scene(rng, 3)
        maps = scene_maps(anns, 3)
        a = decode_poses(maps, CFG)
        b = decode_poses(maps, CFG)
        assert [(p.keypoints.tolist(), p.score) for p in a] == \
            [(p.keypoints.tolist(), p.score) for p in b]

    def test_duplicate_suppression(self):
        # two identical candidate centers one pixel apart decode to
        # essentially the same pose; the lower-scored one must go
        heat = np.zeros((1, 2, 16, 16), dtype=np.float32)
        heat[0, 0, 8, 8] = 1.0
        heat[0, 1, 8, 8] = 1.0
        heat[0, 1, 8, 10] = 0.8
        offs = np.zeros((1, 2, 16, 16), dtype=np.float32)
        offs[0, 0, 8, 10] = -2.0  # second center points at the same joint
        maps = PoseMaps(heat, offs)
        poses = decode_poses(maps, DecodeConfig(nms_window=1, duplicate_oks=0.9))
        assert len(poses) == 1
        assert poses[0].score >= 0.9

    def test_matches_per_joint_reference(self, rng):
        """Batched sampling and the similarity matrix give what one sample per
        joint and one oks() per (candidate, kept instance) pair give."""
        def reference(maps, cfg):
            heat, offs = maps.heatmaps, maps.offsets
            k = offs.shape[1] // 2
            cands = []
            for cx, cy, cs in nms_peaks(heat[0, k].astype(np.float64), cfg):
                joints = []
                for j in range(k):
                    x = cx + float(offs[0, 2 * j, cy, cx])
                    y = cy + float(offs[0, 2 * j + 1, cy, cx])
                    v, _ = T.bilinear_sample(heat[:, j: j + 1], np.array([[y]]), np.array([[x]]))
                    sc = float(v[0, 0, 0])
                    joints.append((x, y, sc))
                cands.append(PoseInstance(joints, cs * (sum(s for _, _, s in joints) / k)))
            cands.sort(key=lambda inst: -inst.score)

            def as_annotation(inst):
                # all joints labeled visible, area from the keypoint
                # bounding box with each side at least 1 px
                kps = inst.keypoints
                lo, hi = kps[:, :2].min(axis=0), kps[:, :2].max(axis=0)
                area = max(float(hi[0] - lo[0]), 1.0) * max(float(hi[1] - lo[1]), 1.0)
                return PersonAnnotation(np.hstack([kps[:, :2], np.full((k, 1), 2.0)]), area)

            params = OksParams.uniform(k)
            kept = []
            for cand in cands:
                if all(oks(cand, as_annotation(other), params) <= cfg.duplicate_oks
                       for other in kept):
                    kept.append(cand)
            return kept

        suppressed = 0
        for trial in range(40):
            k = int(rng.integers(1, 18))
            h, w = (int(v) for v in rng.integers(6, 30, size=2))
            dtype = np.float32 if trial % 2 else np.float64
            heat = rng.uniform(0, 1, size=(1, k + 1, h, w)).astype(dtype)
            offs = rng.standard_normal((1, 2 * k, h, w)) * rng.uniform(0.2, 6)
            if trial % 4 < 2:   # every center points near one pose: duplicates
                rows, cols = np.mgrid[0:h, 0:w]
                for j, (ax, ay) in enumerate(rng.uniform(0, min(h, w), size=(k, 2))):
                    offs[0, 2 * j] += ax - cols
                    offs[0, 2 * j + 1] += ay - rows
            offs = offs.astype(dtype)
            cfg = DecodeConfig(center_threshold=float(rng.uniform(0, 0.8)),
                               max_instances=int(rng.integers(1, 40)),
                               duplicate_oks=float(rng.uniform(0.2, 1.0)))
            got = decode_poses(PoseMaps(heat, offs), cfg)
            want = reference(PoseMaps(heat, offs), cfg)
            assert [(p.keypoints.tolist(), p.score) for p in got] == \
                [(p.keypoints.tolist(), p.score) for p in want]
            suppressed += len(nms_peaks(heat[0, k].astype(np.float64), cfg)) - len(got)
        assert suppressed > 0
