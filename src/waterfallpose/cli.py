"""Command-line interface: inference, training, evaluation, gradient
checking, and the self-test suite.

Exit codes: 0 success, 1 usage error, 2 data error, 3 check failure. infer
holds a checkpoint's weights to the config's shape table (model.weight_shapes).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys

import numpy as np

from . import checks, dataio, overlay
from .config import ConfigError, RunConfig, default_config, parse_config
from .decode import PoseInstance, decode_poses
from .metrics import evaluate
from .model import init_model_weights, model_forward, weight_shapes
from .tensor import ForwardTape
from .train import TrainingError, train_loop
from .waterfall import PoseMaps

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3

# glibc's mallopt parameters (malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


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


def _read_file(path: str, binary=True, read=lambda f: f.read()):
    """read(f) of the open file, by default its whole contents."""
    try:
        with open(path, "rb" if binary else "r") as f:
            return read(f)
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


def _check_weights(weights: dict, cfg: RunConfig):
    """The checkpoint contract: the weights' names and shapes are exactly the
    config's shape table. Names the first entry, in table order, that differs."""
    shapes = weight_shapes(cfg.pyramid, cfg.waterfall)
    held = {name: w.shape for name, w in weights.items()}
    for name in [*shapes, *sorted(held.keys() - shapes.keys())]:
        if held.get(name) != shapes.get(name):
            raise DataError(f"checkpoint entry 'weights/{name}': the checkpoint holds "
                            f"{held.get(name, 'no such entry')}, the config implies "
                            f"{shapes.get(name, 'no such weight')}")


# ---------------------------------------------------------------------------
# commands

def cmd_infer(args) -> int:
    cfg = _load_config(args.config)
    fingerprint = cfg.fingerprint()
    weights, _, _, _ = _read_file(
        args.checkpoint, read=lambda f: dataio.load_checkpoint(f, fingerprint))
    _check_weights(weights, cfg)
    image = dataio.read_image_ppm(_read_file(args.image))
    padded = _pad_to_divisor(image, cfg.pyramid.divisor())
    # a finite checkpoint can still overflow float32 on the way; the output
    # checks report that, so the forward's warnings are not wanted
    with np.errstate(all="ignore"):
        maps, _ = model_forward(padded, weights, cfg.pyramid, cfg.waterfall, ForwardTape())

    def checked(out):
        # min and max, unlike isfinite, make no map-sized temporary
        if not (np.isfinite(out.min()) and np.isfinite(out.max())):
            raise DataError(f"the network output on {args.image} is not finite: "
                            "the checkpoint's weights overflow float32")
        return out

    def offsets_at(ys, xs):
        with np.errstate(all="ignore"):
            return checked(maps.offsets_at(ys, xs))

    # decode runs the offset head at the centre peaks alone, and every
    # offset it reads is checked before a pose is assembled
    poses = decode_poses(PoseMaps(checked(maps.heatmaps), offsets_at), cfg.decode)
    stride = float(cfg.pyramid.base_stride)
    poses_img = [PoseInstance(p.keypoints * (stride, stride, 1.0), p.score) for p in poses]
    _write_file(args.out_poses, dataio.write_results({args.image_id: poses_img}))
    if args.out_overlay:
        _write_file(args.out_overlay,
                    dataio.write_image_ppm(overlay.draw_overlay(image, poses_img)))
    print(f"decoded {len(poses_img)} instance(s) -> {args.out_poses}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    dataset = dataio.parse_annotations(_read_file(args.dataset, binary=False))
    _check_keypoint_count(cfg, dataset)
    samples = _load_samples(cfg, dataset, args.images)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as e:                # a file in the way, or no permission
        raise DataError(f"cannot create output directory {args.out}: {e}") from e
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
    stray = preds.keys() - gts.keys()
    if stray:
        raise DataError(f"{args.results}: results for image {min(stray)}, "
                        "which the dataset does not hold")
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


@functools.lru_cache(maxsize=1)
def pin_heap_policy() -> bool:
    """Fix glibc's heap policy for this process, once: arrays below 32 MiB
    come from the heap, and freed heap memory is kept until 1 GiB of it lies
    at the top. Left dynamic, glibc raises its mmap threshold as large
    temporaries are freed, and a process that serves many infer requests
    could settle where each request trims the heap and faults its working
    set in again (12-15 ms more per request), depending on small allocation
    changes anywhere on the path. Returns whether the C library took both
    settings; where it has no mallopt, nothing is set."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    took = [mallopt(M_MMAP_THRESHOLD, 32 << 20), mallopt(M_TRIM_THRESHOLD, 1 << 30)]
    return took == [1, 1]


def main(argv=None) -> int:
    pin_heap_policy()
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
    except MemoryError as e:                # an input too large for this host
        print(f"error: out of memory: {str(e) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
