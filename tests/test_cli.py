import json

import numpy as np
import pytest

from waterfallpose import dataio
from waterfallpose.checks import overlay_reference, random_overlay_scene
from waterfallpose.cli import _draw_overlay, _line_pixels, main
from waterfallpose.config import default_config, parse_config
from waterfallpose.decode import PoseInstance
from waterfallpose.model import init_model_weights
from waterfallpose.targets import PersonAnnotation

TOY_CONFIG = """
pyramid.widths = 4,8,16,32
pyramid.stem_width = 4
pyramid.num_blocks = 2
waterfall.branch_width = 12
waterfall.out_width = 32
waterfall.keypoints = 2
waterfall.group_width = 4
train.epochs = 40
train.seed = 9
train.rotation_deg = 0
train.scale_min = 1.0
train.scale_max = 1.0
train.translate_px = 0
oks.falloffs = 0.2
"""


def _disk(img, ch, cx, cy, r, v=1.0):
    h, w = img.shape[2], img.shape[3]
    ys, xs = np.ogrid[:h, :w]
    img[0, ch][(xs - cx) ** 2 + (ys - cy) ** 2 <= r * r] = v


@pytest.fixture
def workdir(tmp_path):
    cfg_path = tmp_path / "toy.cfg"
    cfg_path.write_text(TOY_CONFIG)
    cfg = parse_config(TOY_CONFIG)

    img = np.zeros((1, 3, 64, 64), dtype=np.float32)
    anns = []
    for cx, cy in ((16, 16), (48, 48)):
        _disk(img, 0, cx - 8, cy - 6, 5)
        _disk(img, 2, cx + 8, cy + 6, 5)
        _disk(img, 1, cx, cy, 3, 0.7)
        anns.append(PersonAnnotation(
            [(cx - 8.0, cy - 6.0, 2), (cx + 8.0, cy + 6.0, 2)],
            area=676.0, bbox=(cx - 13.0, cy - 11.0, 26.0, 22.0)))
    (tmp_path / "img0.ppm").write_bytes(dataio.write_image_ppm(img))

    ds = dataio.Dataset(
        images=[dataio.ImageRecord(1, "img0.ppm", 64, 64)],
        annotations={1: anns}, keypoint_names=["a", "b"], ann_ids={1: [1, 2]})
    (tmp_path / "data.json").write_text(dataio.serialize_annotations(ds))
    return tmp_path, cfg


def zero_checkpoint(tmp_path, cfg):
    weights = init_model_weights(cfg.pyramid, cfg.waterfall, seed=0)
    weights = {k: np.zeros_like(v) for k, v in weights.items()}
    blob = dataio.save_checkpoint(weights, None, 0, cfg.fingerprint())
    path = tmp_path / "zero.bin"
    path.write_bytes(blob)
    return path


class TestExitCodes:
    @pytest.mark.parametrize("cmd", ["infer", "train", "eval", "gradcheck", "selftest"])
    def test_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as e:
            main([cmd, "--help"])
        assert e.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["infer", "--image", "x.ppm"]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_missing_file_is_data_error(self, workdir, capsys):
        tmp, cfg = workdir
        ckpt = zero_checkpoint(tmp, cfg)
        code = main(["infer", "--config", str(tmp / "toy.cfg"),
                     "--checkpoint", str(ckpt),
                     "--image", str(tmp / "nope.ppm"),
                     "--out-poses", str(tmp / "out.json")])
        assert code == 2
        assert "nope.ppm" in capsys.readouterr().err


class TestInfer:
    def test_zero_checkpoint_gives_valid_empty_results(self, workdir, capsys):
        tmp, cfg = workdir
        ckpt = zero_checkpoint(tmp, cfg)
        out = tmp / "poses.json"
        code = main(["infer", "--config", str(tmp / "toy.cfg"),
                     "--checkpoint", str(ckpt),
                     "--image", str(tmp / "img0.ppm"),
                     "--out-poses", str(out),
                     "--out-overlay", str(tmp / "overlay.ppm")])
        assert code == 0
        parsed = dataio.parse_results(out.read_text(), 2)
        assert parsed == {}
        overlay = dataio.read_image_ppm((tmp / "overlay.ppm").read_bytes())
        assert overlay.shape == (1, 3, 64, 64)

    def test_fingerprint_mismatch_rejected(self, workdir, tmp_path, capsys):
        tmp, cfg = workdir
        weights = init_model_weights(cfg.pyramid, cfg.waterfall, seed=0)
        blob = dataio.save_checkpoint(weights, None, 0, "someotherconfig")
        bad = tmp / "bad.bin"
        bad.write_bytes(blob)
        code = main(["infer", "--config", str(tmp / "toy.cfg"),
                     "--checkpoint", str(bad),
                     "--image", str(tmp / "img0.ppm"),
                     "--out-poses", str(tmp / "out.json")])
        assert code == 2
        assert "configuration" in capsys.readouterr().err


    def test_missing_weight_is_data_error(self, workdir, capsys):
        tmp, cfg = workdir
        weights = init_model_weights(cfg.pyramid, cfg.waterfall, seed=0)
        del weights["head.kp.out.b"]
        ckpt = tmp / "partial.bin"
        ckpt.write_bytes(dataio.save_checkpoint(weights, None, 0, cfg.fingerprint()))
        code = main(["infer", "--config", str(tmp / "toy.cfg"),
                     "--checkpoint", str(ckpt),
                     "--image", str(tmp / "img0.ppm"),
                     "--out-poses", str(tmp / "out.json")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "head.kp.out.b" in err[0]

    def test_non_finite_weight_is_data_error(self, workdir, capsys):
        tmp, cfg = workdir
        weights = init_model_weights(cfg.pyramid, cfg.waterfall, seed=0)
        weights["head.kp.taps.b"].flat[0] = np.nan
        ckpt = tmp / "nan.bin"
        ckpt.write_bytes(dataio.save_checkpoint(weights, None, 0, cfg.fingerprint()))
        code = main(["infer", "--config", str(tmp / "toy.cfg"),
                     "--checkpoint", str(ckpt),
                     "--image", str(tmp / "img0.ppm"),
                     "--out-poses", str(tmp / "out.json")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "weights/head.kp.taps.b" in err[0] \
            and "non-finite" in err[0]
        assert not (tmp / "out.json").exists()


    def test_overlay_is_the_reference_painting_of_the_written_poses(self, tmp_path, rng):
        # published widths with random offsets: up to 30 poses, joints on and off the canvas
        cfg = default_config()
        weights = init_model_weights(cfg.pyramid, cfg.waterfall, seed=3, offset_init="random")
        (tmp_path / "ckpt.bin").write_bytes(
            dataio.save_checkpoint(weights, None, 0, cfg.fingerprint()))
        image = rng.uniform(0, 1, size=(1, 3, 128, 128)).astype(np.float32)
        (tmp_path / "img.ppm").write_bytes(dataio.write_image_ppm(image))
        code = main(["infer", "--checkpoint", str(tmp_path / "ckpt.bin"),
                     "--image", str(tmp_path / "img.ppm"),
                     "--out-poses", str(tmp_path / "poses.json"),
                     "--out-overlay", str(tmp_path / "overlay.ppm")])
        assert code == 0
        poses = dataio.parse_results((tmp_path / "poses.json").read_text(), 17).get(0, [])
        assert poses
        unpadded = dataio.read_image_ppm((tmp_path / "img.ppm").read_bytes())
        assert (tmp_path / "overlay.ppm").read_bytes() == \
            dataio.write_image_ppm(overlay_reference(unpadded, poses))


class TestTrainEval:
    def test_train_then_infer_yields_instances(self, workdir, capsys):
        tmp, cfg = workdir
        out_dir = tmp / "run"
        code = main(["train", "--config", str(tmp / "toy.cfg"),
                     "--dataset", str(tmp / "data.json"),
                     "--images", str(tmp), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "checkpoint_final.bin").exists()
        log = (out_dir / "loss_log.tsv").read_text().strip().splitlines()
        assert len(log) == 40 and log[0].split("\t")[0] == "0"
        assert float(log[-1].split("\t")[4]) < float(log[0].split("\t")[4])

        code = main(["infer", "--config", str(tmp / "toy.cfg"),
                     "--checkpoint", str(out_dir / "checkpoint_final.bin"),
                     "--image", str(tmp / "img0.ppm"),
                     "--out-poses", str(tmp / "poses.json"),
                     "--out-overlay", str(tmp / "overlay.ppm"),
                     "--image-id", "1"])
        assert code == 0
        poses = dataio.parse_results((tmp / "poses.json").read_text(), 2)
        assert len(poses.get(1, [])) >= 1  # the trained toy model detects people
        overlay = dataio.read_image_ppm((tmp / "overlay.ppm").read_bytes())
        assert overlay.shape == (1, 3, 64, 64)

    def test_eval_perfect_predictions_ap1(self, workdir, capsys):
        tmp, cfg = workdir
        # results identical to the ground truth, in image coordinates
        insts = {1: [PoseInstance([(8.0, 10.0, 1.0), (24.0, 22.0, 1.0)], 1.0),
                     PoseInstance([(40.0, 42.0, 1.0), (56.0, 54.0, 1.0)], 0.9)]}
        (tmp / "perfect.json").write_text(dataio.write_results(insts))
        code = main(["eval", "--config", str(tmp / "toy.cfg"),
                     "--dataset", str(tmp / "data.json"),
                     "--results", str(tmp / "perfect.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "AP" in out
        assert "100.0%" in out

    def test_eval_keypoint_count_mismatch(self, workdir, capsys):
        tmp, cfg = workdir
        (tmp / "r.json").write_text("[]")
        code = main(["eval", "--dataset", str(tmp / "data.json"),
                     "--results", str(tmp / "r.json")])  # default config: K=17
        assert code == 2
        assert "keypoints" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "train.scale_max = inf", "train.rotation_deg = nan", "train.translate_px = inf",
    ])
    def test_train_bad_augmentation_is_data_error(self, workdir, capsys, line):
        tmp, cfg = workdir
        (tmp / "bad.cfg").write_text(TOY_CONFIG + line + "\n")
        code = main(["train", "--config", str(tmp / "bad.cfg"),
                     "--dataset", str(tmp / "data.json"),
                     "--images", str(tmp), "--out", str(tmp / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "must be finite" in err

    @pytest.mark.parametrize("line", [
        "oks.falloffs = inf", "oks.falloffs = 1e-320", "eval.area_large = inf",
        "eval.crowd_hard = nan", "eval.area_large = -5", "eval.area_medium = -1",
        "eval.crowd_easy = 0.9", "eval.crowd_hard = 7",
    ])
    def test_eval_bad_oks_setting_is_data_error(self, workdir, capsys, line):
        tmp, cfg = workdir
        insts = {1: [PoseInstance([(8.0, 10.0, 1.0), (24.0, 22.0, 1.0)], 1.0)]}
        (tmp / "r.json").write_text(dataio.write_results(insts))
        (tmp / "bad.cfg").write_text(TOY_CONFIG + line + "\n")
        code = main(["eval", "--config", str(tmp / "bad.cfg"),
                     "--dataset", str(tmp / "data.json"),
                     "--results", str(tmp / "r.json")])
        assert code == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and not captured.out

    def test_eval_malformed_image_record(self, workdir, capsys):
        tmp, cfg = workdir
        doc = json.loads((tmp / "data.json").read_text())
        doc["images"] = [5]
        (tmp / "bad.json").write_text(json.dumps(doc))
        (tmp / "r.json").write_text("[]")
        code = main(["eval", "--config", str(tmp / "toy.cfg"),
                     "--dataset", str(tmp / "bad.json"),
                     "--results", str(tmp / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "images[0]" in err

    def test_eval_malformed_result_record(self, workdir, capsys):
        tmp, cfg = workdir
        (tmp / "r.json").write_text('[{"image_id": 1}]')
        code = main(["eval", "--config", str(tmp / "toy.cfg"),
                     "--dataset", str(tmp / "data.json"),
                     "--results", str(tmp / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "results[0]" in err


class TestChecks:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "conv_oracle" in out and "FAIL" not in out

    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "adaptive_conv/offsets" in out and "FAIL" not in out


def _bresenham_pixels(x0, y0, x1, y1, w, h):
    """The on-canvas pixels of the whole Bresenham walk between the rounded
    ends, one pixel at a time: what the overlay drew before only the steps on
    the canvas were visited."""
    x0, y0, x1, y1 = (int(round(v)) for v in (x0, y0, x1, y1))
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx, sy = (1 if x0 < x1 else -1), (1 if y0 < y1 else -1)
    err, pixels = dx + dy, np.zeros((h, w), dtype=bool)
    while True:
        if 0 <= x0 < w and 0 <= y0 < h:
            pixels[y0, x0] = True
        if (x0, y0) == (x1, y1):
            return pixels
        e2 = 2 * err
        if e2 >= dy:
            err, x0 = err + dy, x0 + sx
        if e2 <= dx:
            err, y0 = err + dx, y0 + sy


def _drawn(segment, w=64, h=64):
    flat, edge = _line_pixels([segment], w, h)
    assert (edge == 0).all()
    pixels = np.zeros(h * w, dtype=bool)
    pixels[flat] = True
    return pixels.reshape(h, w)


class TestDrawLine:
    def test_far_end_costs_only_the_steps_on_the_canvas(self):
        want = np.zeros((64, 64), dtype=bool)
        want[10, 10:] = True
        np.testing.assert_array_equal(_drawn((10, 10, 1e30, 10)), want)

    def test_both_ends_far_across_the_canvas(self):
        want = np.zeros((64, 64), dtype=bool)
        want[5] = True
        np.testing.assert_array_equal(_drawn((-1e30, 5, 1e30, 5)), want)
        np.testing.assert_array_equal(_drawn((5, 3e38, 5, -3e38)), want.T)

    def test_segment_missing_the_canvas_draws_nothing(self):
        for segment in ((-1e30, -3, 1e30, -3), (70, -5, 200, 30), (-1, -1e30, -40, 1e30)):
            assert not _drawn(segment).any()

    @pytest.mark.parametrize("margin", [0.0, 40.0])
    def test_draws_the_pixels_of_the_whole_walk(self, rng, margin):
        # ends on the canvas, and ends up to 40 pixels off it
        w, h = 16, 12
        for _ in range(500):
            x0, x1 = rng.uniform(-0.5 - margin, w - 0.5 + margin, size=2)
            y0, y1 = rng.uniform(-0.5 - margin, h - 0.5 + margin, size=2)
            np.testing.assert_array_equal(_drawn((x0, y0, x1, y1), w, h),
                                          _bresenham_pixels(x0, y0, x1, y1, w, h))


def _pose(*xy):
    return PoseInstance([(x, y, 0.5) for x, y in xy], 0.5)


class TestOverlay:
    W, H = 32, 24

    @pytest.mark.parametrize("poses", [
        [],
        [_pose((5.0, 6.0))],
        [_pose((3, 3), (20, 15), (8, 20)), _pose((4, 3), (19, 15), (21, 2))],
        [_pose((0, 0), (31, 0), (31, 23), (0, 23), (-1, 12), (32, 12))],
        [_pose((10, 10), (1e30, 10), (3e38, -3e38), (12, 12))],
        [_pose((-1e30, 5), (1e30, 5)), _pose((5, 3e38), (5, -3e38), (6, 6))],
    ], ids=["no-pose", "one-joint", "overlapping", "edges", "far", "far-crossing"])
    def test_equals_reference(self, rng, poses):
        image = rng.uniform(0, 1, size=(1, 3, self.H, self.W)).astype(np.float32)
        assert _draw_overlay(image, poses).tobytes() == overlay_reference(image, poses).tobytes()

    def test_equals_reference_on_random_scenes(self, rng):
        for _ in range(300):
            image, poses = random_overlay_scene(rng, int(rng.integers(1, 40)),
                                                int(rng.integers(1, 40)))
            assert _draw_overlay(image, poses).tobytes() == \
                overlay_reference(image, poses).tobytes()
