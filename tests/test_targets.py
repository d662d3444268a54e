import math

import numpy as np
import pytest

from waterfallpose.targets import PersonAnnotation, \
    render_keypoint_heatmaps, render_offset_targets, scale_annotations


def person(points, area=100.0):
    return PersonAnnotation([(x, y, v) for x, y, v in points], area=area)


class TestHeatmapRendering:
    def test_peak_is_one(self):
        ann = person([(10, 12, 2)])
        maps = render_keypoint_heatmaps([ann], 1, 32, 32)
        assert maps.shape == (1, 2, 32, 32)
        assert maps[0, 0, 12, 10] == 1.0

    def test_three_pixels_off_axis(self):
        ann = person([(10, 12, 2)])
        maps = render_keypoint_heatmaps([ann], 1, 32, 32, sigma=3.0)
        np.testing.assert_allclose(maps[0, 0, 12, 13], np.exp(-0.5), rtol=1e-6)
        np.testing.assert_allclose(maps[0, 0, 15, 10], np.exp(-0.5), rtol=1e-6)

    def test_max_combine_not_sum(self):
        a = person([(10, 10, 2)])
        b = person([(11, 10, 2)])
        maps = render_keypoint_heatmaps([a, b], 1, 32, 32)
        only_a = render_keypoint_heatmaps([a], 1, 32, 32)
        only_b = render_keypoint_heatmaps([b], 1, 32, 32)
        np.testing.assert_array_equal(maps, np.maximum(only_a, only_b))
        assert maps.max() == 1.0

    def test_unlabeled_keypoints_skipped(self):
        ann = person([(5, 5, 0), (9, 9, 2)], area=50.0)
        maps = render_keypoint_heatmaps([ann], 2, 16, 16)
        assert not maps[0, 0].any()
        assert maps[0, 1, 9, 9] == 1.0

    def test_center_channel_uses_labeled_centroid(self):
        ann = person([(4, 4, 2), (8, 4, 1), (100, 100, 0)], area=50.0)
        maps = render_keypoint_heatmaps([ann], 3, 16, 16)
        assert maps[0, 3, 4, 6] == 1.0

    def test_no_labels_all_zero(self):
        ann = PersonAnnotation([(0, 0, 0)], area=10.0)
        maps = render_keypoint_heatmaps([ann], 1, 8, 8)
        assert not maps.any()

    def test_values_in_unit_interval(self, rng):
        anns = [person([(float(rng.uniform(0, 31)), float(rng.uniform(0, 31)), 2)
                        for _ in range(3)]) for _ in range(4)]
        maps = render_keypoint_heatmaps(anns, 3, 32, 32)
        assert maps.min() >= 0.0 and maps.max() <= 1.0


class TestOffsetTargets:
    def test_offsets_at_center(self):
        ann = person([(15, 10, 2)])
        # centroid of the single labeled keypoint is the keypoint itself; use
        # two keypoints to put the center at a chosen pixel
        ann = person([(15, 10, 2), (5, 10, 2)], area=64.0)
        offs, mask, scale = render_offset_targets([ann], 2, 32, 32)
        # center at (10, 10)
        assert mask[0, 0, 10, 10] == 1.0
        assert offs[0, 0, 10, 10] == 5.0 and offs[0, 1, 10, 10] == 0.0
        assert offs[0, 2, 10, 10] == -5.0 and offs[0, 3, 10, 10] == 0.0
        assert scale[0, 0, 10, 10] == np.sqrt(64.0) / 2.0

    def test_outside_radius_masked_out(self):
        ann = person([(10, 10, 2), (10, 14, 2)], area=16.0)
        offs, mask, scale = render_offset_targets([ann], 2, 32, 32, radius=4.0)
        assert mask[0, 0, 12, 10] == 1.0      # 0 px from center (10, 12)
        assert mask[0, 0, 12, 15] == 0.0      # 5 px away
        assert scale[0, 0, 12, 15] == 1.0

    def test_equidistant_pixel_goes_to_earlier_annotation(self):
        a = person([(8, 10, 2), (8, 10, 2)], area=25.0)
        b = person([(12, 10, 2), (12, 10, 2)], area=36.0)
        offs, mask, scale = render_offset_targets([a, b], 2, 32, 32)
        # pixel (10, 10) is 2 px from both centers
        assert offs[0, 0, 10, 10] == -2.0
        assert scale[0, 0, 10, 10] == np.sqrt(25.0) / 2.0

    def test_shared_center_goes_to_earlier_annotation(self):
        a = person([(8, 10, 2), (12, 10, 2)], area=25.0)
        b = person([(6, 9, 2), (14, 11, 2)], area=36.0)     # the same centre (10, 10)
        both = render_offset_targets([a, b], 2, 32, 32)
        for got, want in zip(both, render_offset_targets([a], 2, 32, 32)):
            np.testing.assert_array_equal(got, want)

    def test_nearest_center_wins(self):
        a = person([(8, 10, 2), (8, 10, 2)], area=25.0)
        b = person([(13, 10, 2), (13, 10, 2)], area=36.0)
        offs, _, scale = render_offset_targets([a, b], 2, 32, 32)
        assert offs[0, 0, 10, 12] == 1.0  # pixel x=12 is closer to b
        assert scale[0, 0, 10, 12] == 3.0

    def test_unlabeled_joint_not_supervised(self):
        ann = person([(10, 10, 2), (3, 3, 0)], area=16.0)
        offs, mask, _ = render_offset_targets([ann], 2, 32, 32)
        assert mask[0, 0, 10, 10] == 1.0
        assert mask[0, 2, 10, 10] == 0.0 and mask[0, 3, 10, 10] == 0.0


class TestAnnotationTypes:
    def test_bad_visibility_rejected(self):
        with pytest.raises(ValueError, match="visibility"):
            PersonAnnotation([(0, 0, 3)], area=10.0)

    def test_labeled_needs_finite_coords(self):
        with pytest.raises(ValueError, match="finite"):
            PersonAnnotation([(np.nan, 0, 2)], area=10.0)
        PersonAnnotation([(np.nan, np.nan, 0)], area=10.0)  # unlabeled may carry garbage

    def test_labeled_needs_positive_area(self):
        with pytest.raises(ValueError, match="area"):
            PersonAnnotation([(1, 1, 2)], area=0.0)

    def test_scale_annotations(self):
        ann = PersonAnnotation([(8, 4, 2)], area=64.0, bbox=(2, 2, 8, 8),
                               crowd_index=0.3)
        (scaled,) = scale_annotations([ann], 0.25)
        assert scaled.keypoints[0][0] == 2.0 and scaled.keypoints[0][1] == 1.0
        assert scaled.area == 4.0
        assert scaled.bbox == (0.5, 0.5, 2.0, 2.0)
        assert scaled.crowd_index == 0.3


def random_keypoints(rng, k):
    """Mixed visibilities over several magnitudes, non-finite unlabeled
    coordinates included, as (x, y, v) tuples."""
    scale = 10.0 ** rng.integers(-3, 4, size=(k, 1))
    pts = rng.uniform(-50, 50, size=(k, 2)) * scale
    vis = rng.integers(0, 3, size=k)
    vis[0] = 2
    garbage = (math.nan, math.inf, -math.inf, 7.5)
    return [(float(x), float(y), int(v)) if v or j % 2 else
            (garbage[j % 4], garbage[(j + 1) % 4], 0)
            for j, ((x, y), v) in enumerate(zip(pts, vis))]


class TestPerJointReference:
    """The array code against the per-joint scalar form it replaced."""

    def test_scale_annotations_equals_per_joint_loop(self, rng):
        for factor in (0.25, 1.0 / 3.0, 4.0):
            kps = random_keypoints(rng, 17)
            (scaled,) = scale_annotations([PersonAnnotation(kps, area=9.0)], factor)
            want = np.array([(x * factor, y * factor, v) for x, y, v in kps])
            assert scaled.keypoints.tobytes() == want.tobytes()

    def test_labeled_centroid_sums_in_joint_order(self, rng):
        for _ in range(200):
            kps = random_keypoints(rng, 17)
            xs = [x for x, _, v in kps if v > 0]
            ys = [y for _, y, v in kps if v > 0]
            assert PersonAnnotation(kps, area=9.0).labeled_centroid() == \
                (sum(xs) / len(xs), sum(ys) / len(ys))
