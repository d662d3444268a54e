import contextlib
import ctypes
import io
import json
import math
import os
import platform
import re
import shlex
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from waterfallpose import dataio
from waterfallpose import model as M
from waterfallpose import tensor as T
from waterfallpose.backbone import backbone_forward
from waterfallpose.checks import field_maps, offset_field, overlay_reference, \
    random_overlay_scene
from waterfallpose.cli import M_MMAP_THRESHOLD, M_TRIM_THRESHOLD, build_parser, main, \
    pin_heap_policy, UsageError
from waterfallpose.config import SCHEMA, ConfigError, default_config, parse_config
from waterfallpose.decode import PoseInstance, decode_poses
from waterfallpose.model import init_model_weights
from waterfallpose.overlay import draw_overlay, line_pixels
from waterfallpose.targets import PersonAnnotation
from waterfallpose.waterfall import HEAD_PROJECTION_WEIGHTS, full_map_heads, fused_features

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


def test_toy_config_fingerprint_is_pinned():
    # the toy checkpoints these tests write carry this fingerprint
    assert parse_config(TOY_CONFIG).fingerprint() == \
        "734f00ac7817876da2245ae9f7a7cf29524336ec3b10d28af34b5298c4206912"


def _disk(img, ch, cx, cy, r, v=1.0):
    h, w = img.shape[2], img.shape[3]
    ys, xs = np.ogrid[:h, :w]
    img[0, ch][(xs - cx) ** 2 + (ys - cy) ** 2 <= r * r] = v


@pytest.fixture
def workdir(tmp_path):
    return tmp_path, _write_toy_workdir(tmp_path)


def _write_toy_workdir(tmp_path):
    """toy.cfg, a 64x64 image of two people and its dataset; returns the
    parsed config."""
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
    return cfg


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

    @pytest.mark.parametrize("cmd", ["gradcheck", "selftest"])
    def test_checks_take_no_config(self, cmd):
        # both run at fixed toy widths, so a config they would not read is refused
        with pytest.raises(UsageError, match="--config"):
            build_parser().parse_args([cmd, "--config", "x"])

    def test_readme_commands_parse(self):
        # a renamed command or flag cannot leave the README's examples stale
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        text = "".join(re.findall(r"```sh\n(.*?)```", readme, re.S)).replace("\\\n", " ")
        commands = [shlex.split(line, comments=True)[1:] for line in text.splitlines()
                    if line.startswith("waterfallpose ")]
        for argv in commands:
            parsed = vars(build_parser().parse_args(argv))
            # each flag by its whole name: argparse also takes a prefix of one
            assert {a[2:].replace("-", "_") for a in argv if a.startswith("--")} <= \
                parsed.keys(), argv
        assert sorted(argv[0] for argv in commands) == \
            ["eval", "gradcheck", "infer", "selftest", "train"]

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

    def test_non_finite_output_is_data_error(self, workdir, capsys):
        # every weight is finite, so the checkpoint loads, but the forward
        # overflows float32
        tmp, cfg = workdir
        weights = init_model_weights(cfg.pyramid, cfg.waterfall, seed=0)
        weights["backbone.level0.0.b"][:] = 1e38
        ckpt = tmp / "huge.bin"
        ckpt.write_bytes(dataio.save_checkpoint(weights, None, 0, cfg.fingerprint()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["infer", "--config", str(tmp / "toy.cfg"),
                         "--checkpoint", str(ckpt),
                         "--image", str(tmp / "img0.ppm"),
                         "--out-poses", str(tmp / "out.json")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "not finite" in err[0]
        assert not (tmp / "out.json").exists()

    def test_offset_group_overflow_at_the_peaks_is_data_error(self, workdir, capsys):
        # only one offset group's weights are edited: the heatmaps stay
        # finite, and the offsets decode reads at the centre peaks overflow
        tmp, cfg = workdir
        weights = init_model_weights(cfg.pyramid, cfg.waterfall, seed=0)
        for name in ("head.off.g0.adapt.w", "head.off.g0.out.w"):
            weights[name] *= np.float32(1e30)
        ckpt = tmp / "g0.bin"
        ckpt.write_bytes(dataio.save_checkpoint(weights, None, 0, cfg.fingerprint()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["infer", "--config", str(tmp / "toy.cfg"),
                         "--checkpoint", str(ckpt),
                         "--image", str(tmp / "img0.ppm"),
                         "--out-poses", str(tmp / "out.json")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "network output" in err[0] and "not finite" in err[0]
        assert not (tmp / "out.json").exists()

    def test_out_of_memory_is_data_error(self, workdir, capsys, monkeypatch):
        tmp, cfg = workdir

        def oom(*args):
            raise MemoryError("Unable to allocate 1.12 GiB for an array")

        monkeypatch.setattr(M, "backbone_forward", oom)
        code = main(["infer", "--config", str(tmp / "toy.cfg"),
                     "--checkpoint", str(zero_checkpoint(tmp, cfg)),
                     "--image", str(tmp / "img0.ppm"), "--out-poses", str(tmp / "out.json")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "out of memory" in err[0] and "1.12 GiB" in err[0]
        assert not (tmp / "out.json").exists()

    @pytest.mark.parametrize("offset_init", ["canonical", "random"])
    def test_results_are_those_of_the_dense_forward(self, workdir, offset_init):
        # infer runs the offset head at the centre peaks alone; its results
        # file is the one the every-pixel field, built stage by stage,
        # decodes to, byte for byte
        tmp, cfg = workdir
        weights = init_model_weights(cfg.pyramid, cfg.waterfall, seed=1,
                                     offset_init=offset_init)
        ckpt = tmp / "ckpt.bin"
        ckpt.write_bytes(dataio.save_checkpoint(weights, None, 0, cfg.fingerprint()))
        code = main(["infer", "--config", str(tmp / "toy.cfg"), "--checkpoint", str(ckpt),
                     "--image", str(tmp / "img0.ppm"), "--out-poses", str(tmp / "out.json"),
                     "--image-id", "4"])
        assert code == 0
        image = dataio.read_image_ppm((tmp / "img0.ppm").read_bytes())
        tape = T.ForwardTape()
        f_maps = fused_features(backbone_forward(image, weights, cfg.pyramid, tape), weights,
                                cfg.waterfall, tape)
        heat, expanded = full_map_heads(f_maps, weights, tape)
        maps = field_maps(heat, offset_field(expanded, weights, cfg.waterfall, tape))
        stride = float(cfg.pyramid.base_stride)
        poses = [PoseInstance(p.keypoints * (stride, stride, 1.0), p.score)
                 for p in decode_poses(maps, cfg.decode)]
        assert len(poses) > 1
        assert (tmp / "out.json").read_text() == dataio.write_results({4: poses})

    def test_image_is_zero_padded_to_the_divisor(self, workdir, capsys):
        # a 56x40 image gives the results of the same image zero-padded to
        # 64x64 by hand, and its overlay keeps its own size
        tmp, cfg = workdir
        weights = init_model_weights(cfg.pyramid, cfg.waterfall, seed=1, offset_init="random")
        ckpt = tmp / "ckpt.bin"
        ckpt.write_bytes(dataio.save_checkpoint(weights, None, 0, cfg.fingerprint()))
        image = dataio.read_image_ppm((tmp / "img0.ppm").read_bytes())[:, :, :40, :56]
        padded = np.zeros((1, 3, 64, 64), dtype=np.float32)
        padded[:, :, :40, :56] = image
        for name, img in (("small", image), ("padded", padded)):
            (tmp / f"{name}.ppm").write_bytes(dataio.write_image_ppm(img))
            assert main(["infer", "--config", str(tmp / "toy.cfg"), "--checkpoint", str(ckpt),
                         "--image", str(tmp / f"{name}.ppm"),
                         "--out-poses", str(tmp / f"{name}.json"),
                         "--out-overlay", str(tmp / f"{name}_overlay.ppm")]) == 0
        results = (tmp / "small.json").read_bytes()
        assert dataio.parse_results(results, 2) and results == (tmp / "padded.json").read_bytes()
        overlay = dataio.read_image_ppm((tmp / "small_overlay.ppm").read_bytes())
        assert overlay.shape == (1, 3, 40, 56)

    @pytest.mark.parametrize("edit", ["extra", "misshapen"])
    def test_weight_outside_the_table_is_data_error(self, workdir, capsys, edit):
        tmp, cfg = workdir
        weights = init_model_weights(cfg.pyramid, cfg.waterfall, seed=0)
        if edit == "extra":
            weights["extra"] = np.zeros(3, dtype=np.float32)
        else:
            weights["backbone.level1.0.w"] = np.zeros((8, 5, 3, 3), dtype=np.float32)
        ckpt = tmp / "edited.bin"
        ckpt.write_bytes(dataio.save_checkpoint(weights, None, 0, cfg.fingerprint()))
        code = main(["infer", "--config", str(tmp / "toy.cfg"),
                     "--checkpoint", str(ckpt),
                     "--image", str(tmp / "img0.ppm"),
                     "--out-poses", str(tmp / "out.json")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        name = "extra" if edit == "extra" else "backbone.level1.0.w"
        assert len(err) == 1 and f"'weights/{name}'" in err[0]
        assert not (tmp / "out.json").exists()

    def test_too_large_base_stride_is_data_error(self, workdir, capsys):
        tmp, cfg = workdir
        (tmp / "bad.cfg").write_text(TOY_CONFIG + "pyramid.base_stride = 262144\n")
        code = main(["infer", "--config", str(tmp / "bad.cfg"),
                     "--checkpoint", str(zero_checkpoint(tmp, cfg)),
                     "--image", str(tmp / "img0.ppm"), "--out-poses", str(tmp / "p.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "base stride" in err

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

    def test_train_writes_a_checkpoint_every_so_many_epochs(self, workdir, capsys):
        tmp, _ = workdir
        (tmp / "every2.cfg").write_text(TOY_CONFIG + "train.epochs = 4\n"
                                        "train.checkpoint_every = 2\n")
        out_dir = tmp / "run"
        assert main(["train", "--config", str(tmp / "every2.cfg"),
                     "--dataset", str(tmp / "data.json"),
                     "--images", str(tmp), "--out", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "checkpoint_epoch2.bin", "checkpoint_epoch4.bin", "checkpoint_final.bin",
            "loss_log.tsv"]
        epoch2 = (out_dir / "checkpoint_epoch2.bin").read_bytes()
        assert dataio.load_checkpoint(epoch2)[2] == 2
        assert (out_dir / "checkpoint_epoch4.bin").read_bytes() == \
            (out_dir / "checkpoint_final.bin").read_bytes()
        assert main(["infer", "--config", str(tmp / "every2.cfg"),
                     "--checkpoint", str(out_dir / "checkpoint_epoch2.bin"),
                     "--image", str(tmp / "img0.ppm"),
                     "--out-poses", str(tmp / "poses.json")]) == 0

    def test_train_image_of_another_size_than_its_record_is_data_error(self, workdir,
                                                                         capsys):
        tmp, _ = workdir
        image = dataio.read_image_ppm((tmp / "img0.ppm").read_bytes())[:, :, :40, :56]
        (tmp / "img0.ppm").write_bytes(dataio.write_image_ppm(image))
        assert main(["train", "--config", str(tmp / "toy.cfg"),
                     "--dataset", str(tmp / "data.json"),
                     "--images", str(tmp), "--out", str(tmp / "run")]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {tmp / 'img0.ppm'}: file is 56x40 but the dataset says 64x64"]
        assert not (tmp / "run").exists()

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

    def test_eval_results_for_an_image_not_in_the_dataset_is_data_error(self, workdir, capsys):
        # scored, each stray record would count as a false positive; the
        # smallest stray id is named
        tmp, cfg = workdir
        perfect = [PoseInstance([(8.0, 10.0, 1.0), (24.0, 22.0, 1.0)], 1.0),
                   PoseInstance([(40.0, 42.0, 1.0), (56.0, 54.0, 1.0)], 0.9)]
        insts = {1: perfect, 9: perfect[:1], 7: perfect[1:]}
        (tmp / "stray.json").write_text(dataio.write_results(insts))
        code = main(["eval", "--config", str(tmp / "toy.cfg"),
                     "--dataset", str(tmp / "data.json"),
                     "--results", str(tmp / "stray.json")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "image 7," in captured.err

    def test_eval_far_joints_score_without_warning(self, workdir, capsys):
        tmp, cfg = workdir
        insts = {1: [PoseInstance([(1e200, 10.0, 1.0), (24.0, -1e308, 1.0)], 1.0),
                     PoseInstance([(40.0, 42.0, 1.0), (56.0, 54.0, 1.0)], 0.9)]}
        (tmp / "far.json").write_text(dataio.write_results(insts))
        code = main(["eval", "--config", str(tmp / "toy.cfg"),
                     "--dataset", str(tmp / "data.json"),
                     "--results", str(tmp / "far.json")])
        assert code == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("out", ["data.json", "data.json/run"], ids=["file", "under-a-file"])
    def test_train_out_that_cannot_be_a_directory_is_data_error(self, workdir, out):
        tmp, _ = workdir
        code, err, caught = _quiet_main(["train", "--config", str(tmp / "toy.cfg"),
                                         "--dataset", str(tmp / "data.json"),
                                         "--images", str(tmp), "--out", str(tmp / out)])
        assert (code, caught) == (2, [])
        assert len(err.splitlines()) == 1 and "cannot create output directory" in err

    @pytest.mark.parametrize("flag", ["--dataset", "--results"])
    def test_eval_json_nested_too_deep_is_data_error(self, workdir, flag):
        tmp, _ = workdir
        (tmp / "deep.json").write_text("[" * 200_000)
        (tmp / "results.json").write_text("[]")
        argv = ["eval", "--config", str(tmp / "toy.cfg")]
        for name, file in {"--dataset": "data.json", "--results": "results.json",
                           flag: "deep.json"}.items():
            argv += [name, str(tmp / file)]
        code, err, caught = _quiet_main(argv)
        assert (code, caught) == (2, [])
        assert len(err.splitlines()) == 1 and "not valid JSON" in err

    def test_eval_keypoint_count_mismatch(self, workdir, capsys):
        tmp, cfg = workdir
        (tmp / "r.json").write_text("[]")
        code = main(["eval", "--dataset", str(tmp / "data.json"),
                     "--results", str(tmp / "r.json")])  # default config: K=17
        assert code == 2
        assert "keypoints" in capsys.readouterr().err

    def test_train_over_the_size_budget_is_data_error(self, workdir, capsys):
        tmp, cfg = workdir
        (tmp / "big.cfg").write_text(TOY_CONFIG + "pyramid.widths = 1000000000000000,8,16,32\n")
        code = main(["train", "--config", str(tmp / "big.cfg"),
                     "--dataset", str(tmp / "data.json"),
                     "--images", str(tmp), "--out", str(tmp / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "over the budget" in err

    @pytest.mark.parametrize("line, message", [
        ("train.base_lr = 1e30", "non-finite loss at epoch 0"),
        ("train.heatmap_weight = 1e300", "non-finite gradient at epoch 0"),
    ])
    def test_train_overflow_is_one_line_without_warnings(self, workdir, capsys,
                                                         line, message):
        # two images, so a step with weights the first one blew up can follow
        tmp, _ = workdir
        ds = dataio.parse_annotations((tmp / "data.json").read_text())
        ds.images.append(dataio.ImageRecord(2, "img0.ppm", 64, 64))
        ds.annotations[2], ds.ann_ids[2] = ds.annotations[1], [3, 4]
        (tmp / "two.json").write_text(dataio.serialize_annotations(ds))
        (tmp / "bad.cfg").write_text(TOY_CONFIG + line + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--config", str(tmp / "bad.cfg"),
                         "--dataset", str(tmp / "two.json"),
                         "--images", str(tmp), "--out", str(tmp / "run")])
        err = capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        assert code == 2 and len(err.splitlines()) == 1 and message in err

    def test_train_overflowing_last_step_writes_no_checkpoint(self, workdir, capsys):
        # one image and one epoch: no forward follows the step that overflows
        tmp, _ = workdir
        (tmp / "bad.cfg").write_text(TOY_CONFIG + "train.epochs = 1\ntrain.base_lr = 1e300\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--config", str(tmp / "bad.cfg"),
                         "--dataset", str(tmp / "data.json"),
                         "--images", str(tmp), "--out", str(tmp / "run")])
        err = capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        assert code == 2 and len(err.splitlines()) == 1
        assert "non-finite weight after epoch 0" in err
        assert not (tmp / "run" / "checkpoint_final.bin").exists()

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
        "oks.falloffs = inf", "oks.falloffs = 1e-320", "oks.falloffs = 1e-4",
        "oks.falloffs = 11", "eval.area_large = inf",
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

    def test_eval_area_beyond_oks_range_is_data_error(self, workdir, capsys):
        # 2 * 1e308 overflows float64: the labeled area is refused, not scored
        tmp, cfg = workdir
        doc = json.loads((tmp / "data.json").read_text())
        doc["annotations"][0]["area"] = 1e308
        (tmp / "huge.json").write_text(json.dumps(doc))
        insts = {1: [PoseInstance([(8.0, 10.0, 1.0), (24.0, 22.0, 1.0)], 1.0)]}
        (tmp / "r.json").write_text(dataio.write_results(insts))
        code = main(["eval", "--config", str(tmp / "toy.cfg"),
                     "--dataset", str(tmp / "huge.json"),
                     "--results", str(tmp / "r.json")])
        assert code == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and not captured.out
        assert "area must lie in" in captured.err

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

    def test_eval_results_not_utf8_is_data_error(self, workdir, capsys):
        tmp, _ = workdir
        (tmp / "r.json").write_bytes('[{"image_id": 1, "note": "höfte"}]'.encode("latin-1"))
        code = main(["eval", "--config", str(tmp / "toy.cfg"),
                     "--dataset", str(tmp / "data.json"),
                     "--results", str(tmp / "r.json")])
        assert code == 2
        captured = capsys.readouterr()
        assert not captured.out and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: results file is not valid JSON: ")

    def test_eval_malformed_result_record(self, workdir, capsys):
        tmp, cfg = workdir
        (tmp / "r.json").write_text('[{"image_id": 1}]')
        code = main(["eval", "--config", str(tmp / "toy.cfg"),
                     "--dataset", str(tmp / "data.json"),
                     "--results", str(tmp / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "results[0]" in err


# ---------------------------------------------------------------------------
# the checkpoint contract and the config's bounds, as properties of toy infer

def _quiet_infer(tmp, cfg_path, ckpt):
    """(exit code, stderr) of one infer, with warnings raised as errors."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["infer", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--image", str(tmp / "img.ppm"), "--out-poses", str(tmp / "poses.json")])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def toy_infer(tmp_path_factory):
    """A toy config, a 64x64 image, the weights of a random-offset checkpoint
    and the poses infer writes from it."""
    tmp = tmp_path_factory.mktemp("toy_infer")
    (tmp / "toy.cfg").write_text(TOY_CONFIG)
    cfg = parse_config(TOY_CONFIG)
    image = np.random.default_rng(5).uniform(0, 1, (1, 3, 64, 64)).astype(np.float32)
    (tmp / "img.ppm").write_bytes(dataio.write_image_ppm(image))
    weights = init_model_weights(cfg.pyramid, cfg.waterfall, seed=3, offset_init="random")
    (tmp / "ckpt.bin").write_bytes(dataio.save_checkpoint(weights, None, 0, cfg.fingerprint()))
    assert _quiet_infer(tmp, tmp / "toy.cfg", tmp / "ckpt.bin") == (0, "")
    return tmp, cfg, weights, (tmp / "poses.json").read_bytes()


LIST_KEYS = {"pyramid.widths": (4, 8, 16, 32), "waterfall.dilations": (1, 6, 12, 18)}
SCALAR_KEYS = ("pyramid.stem_width", "pyramid.base_stride", "pyramid.num_blocks",
               "waterfall.branch_width", "waterfall.out_width", "waterfall.final_width",
               "waterfall.keypoints", "waterfall.group_width", "decode.center_threshold",
               "decode.nms_window", "decode.max_instances", "decode.duplicate_oks")
CONFIG_EDITS = [(key, i) for key, values in LIST_KEYS.items() for i in range(len(values))] \
    + [(key, None) for key in SCALAR_KEYS]


class TestCheckpointSource:
    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_checkpoint_from_a_pipe(self, toy_infer, tmp_path):
        tmp, _, _, poses = toy_infer
        fifo = tmp_path / "ckpt.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes,
                                  args=((tmp / "ckpt.bin").read_bytes(),), daemon=True)
        writer.start()
        try:
            assert _quiet_infer(tmp, tmp / "toy.cfg", fifo) == (0, "")
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()
        assert (tmp / "poses.json").read_bytes() == poses

    def test_shape_table_nested_too_deep_is_data_error(self, toy_infer, tmp_path):
        tmp, cfg, _, poses = toy_infer
        # the fingerprint matches, so the loader reads on into the shape table
        blob = dataio.save_checkpoint({}, None, 0, cfg.fingerprint()).replace(
            dataio._pack_str("{}"), dataio._pack_str("[" * 200_000))
        (tmp_path / "deep.bin").write_bytes(blob)
        code, err = _quiet_infer(tmp, tmp / "toy.cfg", tmp_path / "deep.bin")
        assert code == 2
        assert len(err.splitlines()) == 1 and "shape table is not valid JSON" in err
        assert (tmp / "poses.json").read_bytes() == poses

    def test_checkpoint_directory_is_data_error(self, toy_infer, tmp_path):
        tmp = toy_infer[0]
        code, err = _quiet_infer(tmp, tmp / "toy.cfg", tmp_path)
        assert code == 2
        assert len(err.splitlines()) == 1 and f"cannot read {tmp_path}" in err


class TestContractProperties:
    @settings(max_examples=80)
    @given(st.data())
    def test_weight_edit_is_refused_by_name(self, toy_infer, data):
        tmp, cfg, weights, poses = toy_infer
        name = data.draw(st.sampled_from(sorted(weights)))
        edit = data.draw(st.sampled_from(["none", "drop", "add", "rename", "rank", "grow"]))
        edited = dict(weights)
        named = name
        if edit == "drop":
            del edited[name]
        elif edit == "add":
            edited[name + "x"] = weights[name]
            named = name + "x"
        elif edit == "rename":
            edited[name + "x"] = edited.pop(name)
        elif edit == "rank":
            edited[name] = weights[name][None]
        elif edit == "grow":
            edited[name] = np.concatenate([weights[name], weights[name][:1]])
        (tmp / "edited.bin").write_bytes(
            dataio.save_checkpoint(edited, None, 0, cfg.fingerprint()))
        (tmp / "poses.json").unlink(missing_ok=True)
        code, err = _quiet_infer(tmp, tmp / "toy.cfg", tmp / "edited.bin")
        if edit == "none":
            assert (code, err) == (0, "") and (tmp / "poses.json").read_bytes() == poses
        else:
            assert code == 2 and not (tmp / "poses.json").exists()
            lines = err.splitlines()
            assert len(lines) == 1 and f"'weights/{named}'" in lines[0], (edit, err)

    @settings(max_examples=150)
    @given(st.sampled_from(CONFIG_EDITS), st.sampled_from([0, -1, 2 ** 62, 2 ** 62 + 1]))
    @example(("decode.nms_window", None), 2 ** 62 + 1)
    def test_config_edit_is_refused_or_runs(self, toy_infer, edit, value):
        tmp = toy_infer[0]
        key, i = edit
        if i is None:
            line = f"{key} = {value}"
        else:
            values = list(LIST_KEYS[key])
            values[i] = value
            line = f"{key} = {','.join(map(str, values))}"
        text = TOY_CONFIG + line + "\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                cfg = parse_config(text)
            except ConfigError:
                return
            weights = init_model_weights(cfg.pyramid, cfg.waterfall, seed=0)
        (tmp / "edited.cfg").write_text(text)
        (tmp / "edited.bin").write_bytes(
            dataio.save_checkpoint(weights, None, 0, cfg.fingerprint()))
        assert _quiet_infer(tmp, tmp / "edited.cfg", tmp / "edited.bin") == (0, ""), line


def _quiet_main(argv):
    """(exit code, stderr, warning messages) of one main call."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


@pytest.fixture(scope="module")
def toy_train_eval(tmp_path_factory):
    """The toy workdir and a results file for its image."""
    tmp = tmp_path_factory.mktemp("toy_train_eval")
    _write_toy_workdir(tmp)
    insts = {1: [PoseInstance([(8.0, 10.0, 1.0), (24.0, 22.0, 1.0)], 1.0),
                 PoseInstance([(40.0, 42.0, 0.5), (55.0, 55.0, 1.0)], 0.9)]}
    (tmp / "results.json").write_text(dataio.write_results(insts))
    return tmp


# every train.* and eval.* key, and each element of a list key
TRAIN_EVAL_EDITS = [(key, i) for key, (_, default) in SCHEMA.items()
                    if key.startswith(("train.", "eval."))
                    for i in (range(len(default)) if isinstance(default, tuple) else [None])]


@pytest.mark.parametrize("key, i", TRAIN_EVAL_EDITS)
def test_train_eval_edit_is_refused_or_runs(toy_train_eval, key, i):
    # each edit is a ConfigError, or eval and a one-epoch train each exit 0,
    # or exit 2 with one line; none warns
    tmp = toy_train_eval
    for value in (0, -1, 1e-300, 1e300, math.nan, math.inf):
        if i is None:
            line = f"{key} = {value}"
        else:
            values = list(SCHEMA[key][1])
            values[i] = value
            line = f"{key} = {','.join(map(str, values))}"
        text = TOY_CONFIG + "train.epochs = 1\n" + line + "\n"
        try:
            parse_config(text)
        except ConfigError:
            continue
        (tmp / "edited.cfg").write_text(text)
        for argv in (["eval", "--results", str(tmp / "results.json")],
                     ["train", "--images", str(tmp), "--out", str(tmp / "run")]):
            code, err, caught = _quiet_main(
                argv + ["--config", str(tmp / "edited.cfg"), "--dataset", str(tmp / "data.json")])
            assert caught == [] and (code, len(err.splitlines())) in ((0, 0), (2, 1)), \
                (line, argv[0], code, err, caught)


class _Mallopt:
    """Stands in for the C library's mallopt and records each call."""

    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


class TestHeapPolicy:
    def _infer(self, tmp, ckpt, out):
        return main(["infer", "--config", str(tmp / "toy.cfg"), "--checkpoint", str(ckpt),
                     "--image", str(tmp / "img0.ppm"), "--out-poses", str(out)])

    def test_main_pins_both_settings_once_per_process(self, workdir, monkeypatch, capsys):
        tmp, cfg = workdir
        ckpt = zero_checkpoint(tmp, cfg)
        mallopt = _Mallopt()
        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        pin_heap_policy.cache_clear()
        try:
            assert self._infer(tmp, ckpt, tmp / "a.json") == 0
            assert self._infer(tmp, ckpt, tmp / "b.json") == 0
        finally:
            pin_heap_policy.cache_clear()
        assert mallopt.calls == [(M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 1 << 30)]
        assert (tmp / "a.json").read_bytes() == (tmp / "b.json").read_bytes()

    def test_no_mallopt_is_no_error(self, workdir, monkeypatch, capsys):
        tmp, cfg = workdir
        ckpt = zero_checkpoint(tmp, cfg)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        pin_heap_policy.cache_clear()
        try:
            assert self._infer(tmp, ckpt, tmp / "a.json") == 0
            assert pin_heap_policy() is False
        finally:
            pin_heap_policy.cache_clear()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
    def test_glibc_takes_both_settings(self):
        pin_heap_policy.cache_clear()
        assert pin_heap_policy() is True


class TestChecks:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "conv_oracle" in out and "head_projection_oracle" in out
        assert "pyramid_branch_oracle" in out
        assert "FAIL" not in out

    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "adaptive_conv/offsets" in out and "FAIL" not in out
        assert "[PASS] gather_pixels " in out and "[PASS] offset_head_at_pixels/expanded " in out
        for name in ("branch0", "branch1", "branch2", "branch3", "pooled",
                     "low_level") + HEAD_PROJECTION_WEIGHTS:
            assert f"[PASS] head_projection/{name} " in out
        for name in ("level0", "level1", "level2", "level3", "w", "b"):
            assert f"[PASS] pyramid_branch/{name} " in out


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
    flat, edge = line_pixels([segment], w, h)
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
        assert draw_overlay(image, poses).tobytes() == overlay_reference(image, poses).tobytes()

    def test_equals_reference_on_random_scenes(self, rng):
        for _ in range(300):
            image, poses = random_overlay_scene(rng, int(rng.integers(1, 40)),
                                                int(rng.integers(1, 40)))
            assert draw_overlay(image, poses).tobytes() == \
                overlay_reference(image, poses).tobytes()


# ---------------------------------------------------------------------------
# the commands in a child process, where the interpreter's options and the
# locale can be chosen

def _cli(argv, *options, **env):
    """(exit code, stdout, stderr) of `python options -m waterfallpose.cli argv`,
    with the package of this checkout first on the path."""
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, *options, "-m", "waterfallpose.cli", *argv],
                          env={**os.environ, "PYTHONPATH": path, **env},
                          capture_output=True, timeout=300)
    return done.returncode, done.stdout, done.stderr


class TestFileEncoding:
    def test_eval_reads_utf8_json_whatever_the_locale(self, workdir):
        # a keypoint name outside ASCII, in a dataset written as UTF-8
        tmp, _ = workdir
        doc = json.loads((tmp / "data.json").read_bytes())
        doc["categories"][0]["keypoints"][0] = "höfte"
        (tmp / "data.json").write_bytes(json.dumps(doc, ensure_ascii=False).encode())
        insts = {1: [PoseInstance([(8.0, 10.0, 1.0), (24.0, 22.0, 1.0)], 1.0)]}
        (tmp / "r.json").write_bytes(dataio.write_results(insts).encode())
        argv = ["eval", "--config", str(tmp / "toy.cfg"), "--dataset", str(tmp / "data.json"),
                "--results", str(tmp / "r.json")]
        c_locale = _cli(argv, "-X", "utf8=0", LC_ALL="C", PYTHONCOERCECLOCALE="0")
        utf8 = _cli(argv, "-X", "utf8=1", LC_ALL="C", PYTHONCOERCECLOCALE="0")
        assert c_locale == utf8 and utf8[0] == 0 and b"AP" in utf8[1], c_locale

    def test_commands_open_no_file_in_the_locale_encoding(self, workdir):
        # an open() in text mode without an encoding warns, and here fails
        tmp, _ = workdir
        (tmp / "short.cfg").write_text(TOY_CONFIG + "train.epochs = 2\n", encoding="utf-8")
        strict = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
        common = ["--config", str(tmp / "short.cfg")]
        for argv in (["train", "--dataset", str(tmp / "data.json"), "--images", str(tmp),
                      "--out", str(tmp / "run")],
                     ["infer", "--checkpoint", str(tmp / "run" / "checkpoint_final.bin"),
                      "--image", str(tmp / "img0.ppm"), "--out-poses", str(tmp / "r.json"),
                      "--out-overlay", str(tmp / "overlay.ppm"), "--image-id", "1"],
                     ["eval", "--dataset", str(tmp / "data.json"),
                      "--results", str(tmp / "r.json")]):
            code, _, err = _cli(argv + common, *strict)
            assert (code, err) == (0, b""), (argv[0], err.decode(errors="replace"))
