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
LINE_COLOR = (255, 255, 255)


def _line_pixels(edges, w: int, h: int):
    """On-canvas pixels of Bresenham's line between the rounded ends of each
    edge (x0, y0, x1, y1), as flat indices y * w + x, with the index of the
    edge each pixel belongs to.

    A walk steps one pixel at a time along its major axis, the one with the
    longer extent. After n steps the minor coordinate has moved
    (2*d_minor*n + d_major) // (2*d_major) pixels. So each edge's state at its
    first step whose major coordinate is on the canvas is worked out in exact
    integers, and the steps up to its last such step are laid out for every
    edge at once in int64: a joint far off the canvas costs no more than one
    on it, and the pixels are those of the whole walk.
    """
    # per edge: steps, r, a, b, y, s_minor, minor extent, base, major step,
    # minor step, edge
    table = []
    for e, ends in enumerate(edges):
        x0, y0, x1, y1 = map(round, ends)   # exact ints, half to even
        by_rows = abs(y1 - y0) > abs(x1 - x0)
        if by_rows:
            x0, y0, x1, y1 = y0, x0, y1, x1
        size_major, size_minor = (h, w) if by_rows else (w, h)
        d_major, d_minor = abs(x1 - x0), abs(y1 - y0)
        s_major = 1 if x0 < x1 else -1
        s_minor = 1 if y0 < y1 else -1
        # steps n in [0, d_major] whose major coordinate x0 + s_major * n is on the canvas
        lo, hi = (-x0, size_major - 1 - x0) if s_major > 0 else (x0 - size_major + 1, x0)
        first, last = max(lo, 0), min(hi, d_major)
        steps = last - first + 1
        # after first + k steps the minor coordinate is y + s_minor * ((r + a*k) // b),
        # and it moves by at most k
        a, b = 2 * d_minor, 2 * max(d_major, 1)
        moved, r = divmod(a * first + d_major, b)
        x, y = x0 + s_major * first, y0 + s_minor * moved
        if steps <= 0 or not -steps < y < size_minor + steps:
            continue
        base, major_step, minor_step = (x * w + y, s_major * w, s_minor) if by_rows \
            else (y * w + x, s_major, s_minor * w)
        if b * steps < 2 ** 62:
            table.append((steps, r, a, b, y, s_minor, size_minor, base,
                          major_step, minor_step, e))
        else:   # ends beyond int64 range: each step laid out on its own, exactly
            for k in range(steps):
                i = (r + a * k) // b
                table.append((1, 0, 0, 1, y + s_minor * i, s_minor, size_minor,
                              base + major_step * k + minor_step * i, 0, 0, e))
    if not table:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    table = np.array(table, dtype=np.int64)
    steps = table[:, 0]
    row = np.repeat(np.arange(len(table)), steps)
    k = np.arange(len(row)) - np.repeat(np.cumsum(steps) - steps, steps)
    # column by column, to keep the overlay's temporaries small: larger ones
    # (a 0.4 MB (pixels, 11) gather here, an int64 paint-key canvas) left a
    # third to a half of infer processes in a glibc heap mode that re-faults
    # about 22 MB on every request
    r, a, b, y, s_minor, size_minor, base, major_step, minor_step, edge = \
        (table[row, j] for j in range(1, 11))
    moved = (r + a * k) // b
    minor = y + s_minor * moved
    on = (minor >= 0) & (minor < size_minor)
    flat = base + major_step * k + minor_step * moved
    return flat[on], edge[on]


def _draw_overlay(image: np.ndarray, poses) -> np.ndarray:
    """Chain edges between consecutive keypoints plus a 3x3 marker on each
    keypoint, painted pose by pose: pose p's edges, then its markers in joint
    order, then pose p+1 over them.

    Every pixel write carries a paint key that grows in that order, p * (K+1)
    for pose p's edges and p * (K+1) + 1 + j for its marker of joint j, and
    the key picks the colour. A pixel keeps the write with the largest key,
    the last one painted; edges of one pose share a key and a colour.
    """
    canvas = image.copy()
    if not poses:
        return canvas
    h, w = canvas.shape[2], canvas.shape[3]
    joints = [inst.keypoints for inst in poses]
    stride = 1 + max(len(kp) for kp in joints)
    edges, edge_keys = [], []
    for p, kp in enumerate(joints):
        pts = kp.tolist()
        edges += [(x0, y0, x1, y1) for (x0, y0, _), (x1, y1, _) in zip(pts, pts[1:])]
        edge_keys += [p * stride] * (len(pts) - 1)
    line_pix, edge = _line_pixels(edges, w, h)

    # markers: centres rounded half to even, as round() does; clipping keeps a
    # far centre off the canvas and in int64
    xy = np.concatenate(joints)[:, :2]
    cx = np.rint(np.clip(xy[:, 0], -2, w + 1)).astype(np.int64)
    cy = np.rint(np.clip(xy[:, 1], -2, h + 1)).astype(np.int64)
    px = cx[:, None, None] + np.arange(-1, 2)[None, None, :]
    py = cy[:, None, None] + np.arange(-1, 2)[None, :, None]
    on = (px >= 0) & (px < w) & (py >= 0) & (py < h)          # (joints, 3, 3)
    joint_keys = np.concatenate([p * stride + 1 + np.arange(len(kp))
                                 for p, kp in enumerate(joints)])

    # int32 keeps this temporary small, for the reason _line_pixels gives
    top = np.full(h * w, -1, dtype=np.int32)
    np.maximum.at(top, np.concatenate([line_pix, (py * w + px)[on]]),
                  np.concatenate([np.asarray(edge_keys, dtype=np.int64)[edge],
                                  np.broadcast_to(joint_keys[:, None, None], on.shape)[on]]))
    painted = np.flatnonzero(top >= 0)
    palette = np.array([LINE_COLOR] + [MARKER_COLORS[j % len(MARKER_COLORS)]
                                       for j in range(stride - 1)]) / 255.0
    ys, xs = np.divmod(painted, w)
    canvas[0][:, ys, xs] = palette[top[painted] % stride].T
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
