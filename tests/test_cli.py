import json

import numpy as np
import pytest

from waterfallpose import dataio
from waterfallpose.cli import main
from waterfallpose.config import parse_config
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
