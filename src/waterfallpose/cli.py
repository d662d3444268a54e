"""Command-line interface: inference, training, evaluation, gradient
checking, and the self-test suite.

Exit codes: 0 success, 1 usage error, 2 data error, 3 check failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import checks, dataio
from .config import ConfigError, RunConfig, default_config, parse_config
from .decode import PoseInstance, decode_poses
from .metrics import evaluate
from .model import init_model_weights, model_forward
from .tensor import ForwardTape
from .train import TrainingError, train_loop

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# helpers

def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return default_config()
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse_config(f.read())
    except OSError as e:
        raise DataError(f"cannot read config: {e}") from e
    except ConfigError as e:
        raise DataError(f"bad config {path}: {e}") from e


def _read_file(path: str, binary=True):
    try:
        with open(path, "rb" if binary else "r") as f:
            return f.read()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e


def _write_file(path: str, data):
    mode = "wb" if isinstance(data, bytes) else "w"
    try:
        with open(path, mode) as f:
            f.write(data)
    except OSError as e:
        raise DataError(f"cannot write {path}: {e}") from e


def _pad_to_divisor(img: np.ndarray, divisor: int) -> np.ndarray:
    h, w = img.shape[2], img.shape[3]
    ph = (-h) % divisor
    pw = (-w) % divisor
    if ph == 0 and pw == 0:
        return img
    return np.pad(img, ((0, 0), (0, 0), (0, ph), (0, pw)))


MARKER_COLORS = [
    (255, 60, 60), (60, 220, 60), (80, 120, 255), (240, 220, 60),
    (230, 80, 230), (70, 220, 220), (250, 150, 60), (160, 255, 120),
]


def _draw_dot(img: np.ndarray, x: int, y: int, color, radius=1):
    h, w = img.shape[2], img.shape[3]
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            px, py = x + dx, y + dy
            if 0 <= px < w and 0 <= py < h:
                for c in range(3):
                    img[0, c, py, px] = color[c] / 255.0

def _draw_line(img: np.ndarray, x0, y0, x1, y1, color):
    # Bresenham over the pixel grid
    x0, y0, x1, y1 = int(round(x0)), int(round(y0)), int(round(x1)), int(round(y1))
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    h, w = img.shape[2], img.shape[3]
    while True:
        if 0 <= x0 < w and 0 <= y0 < h:
            for c in range(3):
                img[0, c, y0, x0] = color[c] / 255.0
        if x0 == x1 and y0 == y1:
            return
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


def _draw_overlay(image: np.ndarray, poses) -> np.ndarray:
    """Keypoint markers plus chain edges between consecutive keypoints."""
    canvas = image.copy()
    for inst in poses:
        pts = inst.keypoints.tolist()
        for (x0, y0, _), (x1, y1, _) in zip(pts, pts[1:]):
            _draw_line(canvas, x0, y0, x1, y1, (255, 255, 255))
        for j, (x, y, _) in enumerate(pts):
            _draw_dot(canvas, int(round(x)), int(round(y)),
                      MARKER_COLORS[j % len(MARKER_COLORS)])
    return canvas


def _load_samples(cfg: RunConfig, dataset, images_dir: str):
    divisor = cfg.pyramid.divisor()
    samples = []
    for img in dataset.images:
        path = os.path.join(images_dir, img.file_name)
        tensor = dataio.read_image_ppm(_read_file(path))
        if tensor.shape[2] != img.height or tensor.shape[3] != img.width:
            raise DataError(
                f"{path}: file is {tensor.shape[3]}x{tensor.shape[2]} but the "
                f"dataset says {img.width}x{img.height}")
        samples.append((_pad_to_divisor(tensor, divisor), dataset.annotations[img.id]))
    return samples


def _check_keypoint_count(cfg: RunConfig, dataset):
    if dataset.num_keypoints != cfg.waterfall.keypoints:
        raise DataError(
            f"dataset has {dataset.num_keypoints} keypoints but the config "
            f"expects {cfg.waterfall.keypoints}")


# ---------------------------------------------------------------------------
# commands

def cmd_infer(args) -> int:
    cfg = _load_config(args.config)
    weights, _, _, _ = dataio.load_checkpoint(
        _read_file(args.checkpoint), expected_fingerprint=cfg.fingerprint())
    image = dataio.read_image_ppm(_read_file(args.image))
    padded = _pad_to_divisor(image, cfg.pyramid.divisor())
    maps, _ = model_forward(padded, weights, cfg.pyramid, cfg.waterfall, ForwardTape())
    poses = decode_poses(maps, cfg.decode)
    stride = float(cfg.pyramid.base_stride)
    poses_img = [PoseInstance(p.keypoints * (stride, stride, 1.0), p.score) for p in poses]
    _write_file(args.out_poses, dataio.write_results({args.image_id: poses_img}))
    if args.out_overlay:
        _write_file(args.out_overlay,
                    dataio.write_image_ppm(_draw_overlay(image, poses_img)))
    print(f"decoded {len(poses_img)} instance(s) -> {args.out_poses}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    dataset = dataio.parse_annotations(_read_file(args.dataset, binary=False))
    _check_keypoint_count(cfg, dataset)
    samples = _load_samples(cfg, dataset, args.images)
    os.makedirs(args.out, exist_ok=True)
    weights = init_model_weights(cfg.pyramid, cfg.waterfall, seed=cfg.train.seed)
    fingerprint = cfg.fingerprint()

    def save_every(epoch, w, state):
        blob = dataio.save_checkpoint(w, state, epoch + 1, fingerprint)
        _write_file(os.path.join(args.out, f"checkpoint_epoch{epoch + 1}.bin"), blob)

    try:
        weights, state, log = train_loop(samples, weights, cfg.pyramid,
                                         cfg.waterfall, cfg.train,
                                         on_checkpoint=save_every)
    except TrainingError as e:
        raise DataError(str(e)) from e
    _write_file(os.path.join(args.out, "checkpoint_final.bin"),
                dataio.save_checkpoint(weights, state, cfg.train.epochs, fingerprint))
    _write_file(os.path.join(args.out, "loss_log.tsv"), "\n".join(log) + "\n")
    if log:
        print(log[-1])
    print(f"trained {cfg.train.epochs} epoch(s) on {len(samples)} image(s) "
          f"-> {args.out}")
    return EXIT_OK


def _fmt_cell(v) -> str:
    return "-" if v is None else f"{100.0 * v:5.1f}%"


def cmd_eval(args) -> int:
    cfg = _load_config(args.config)
    dataset = dataio.parse_annotations(_read_file(args.dataset, binary=False))
    _check_keypoint_count(cfg, dataset)
    preds = dataio.parse_results(_read_file(args.results, binary=False),
                                 dataset.num_keypoints)
    gts = {img.id: dataset.annotations[img.id] for img in dataset.images}
    res = evaluate(preds, gts, cfg.oks, style=cfg.eval_style,
                   area_edges=cfg.area_edges, crowd_edges=cfg.crowd_edges)
    cells = res.as_row()
    names = list(cells.keys())
    widths = [max(len(n), 6) for n in names]
    print(" | ".join(n.rjust(w) for n, w in zip(names, widths)))
    print(" | ".join(_fmt_cell(cells[n]).rjust(w) for n, w in zip(names, widths)))
    return EXIT_OK


def _run_checks(title, results) -> int:
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        failed += 0 if ok else 1
    total = len(results)
    print(f"{title}: {total - failed}/{total} passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK


def cmd_gradcheck(args) -> int:
    return _run_checks("gradcheck", checks.gradient_checks())


def cmd_selftest(args) -> int:
    return _run_checks("selftest", checks.selftest_checks())


# ---------------------------------------------------------------------------

def build_parser() -> Parser:
    parser = Parser(prog="waterfallpose",
                    description="Bottom-up multi-person pose estimation "
                                "(from-scratch numpy pipeline)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", help="run the network on one image")
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--checkpoint", required=True, help="trained checkpoint")
    p.add_argument("--image", required=True, help="input image (binary PPM)")
    p.add_argument("--out-poses", required=True, help="output results file")
    p.add_argument("--out-overlay", help="optional overlay image (PPM)")
    p.add_argument("--image-id", type=int, default=0,
                   help="image id written into the results file")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("train", help="train on an annotated dataset")
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--dataset", required=True, help="annotation file")
    p.add_argument("--images", required=True, help="directory with PPM images")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a results file against annotations")
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--dataset", required=True, help="annotation file")
    p.add_argument("--results", required=True, help="results file to score")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck",
                       help="analytic vs numeric gradients, 64-bit toy widths")
    p.add_argument("--config", help="accepted for uniformity; checks run at "
                                    "fixed toy widths")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("selftest", help="run the module oracle suites")
    p.add_argument("--config", help="accepted for uniformity; checks run at "
                                    "fixed toy widths")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ValueError) as e:   # FormatError, ConfigError, ShapeError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
