"""The benchmark workloads: each a closed loop with one client.

A workload builds its inputs from the seed (`setup`), then issues operations
back to back until its time is up (`run`), checking every output. The
operation is one training step, one `waterfallpose infer` request or one
`waterfallpose eval` request.
"""

from __future__ import annotations

import contextlib
import io
import os
import time

import numpy as np

import synth
from waterfallpose import cli, dataio
from waterfallpose import train as train_mod
from waterfallpose.config import parse_config
from waterfallpose.model import init_model_weights, model_forward
from waterfallpose.decode import decode_poses

clock = time.perf_counter

# Shared hosts drift in speed by tens of percent over seconds to minutes.
# A fixed probe (interpreter loop, a memory-bound gather, a small matmul),
# run between operations at least every PROBE_EVERY_S, measures that drift;
# each operation's time is scaled by PROBE_REF_S / probe time, which reads
# as milliseconds on a host where the probe takes PROBE_REF_S.
PROBE_REF_S = 0.004
PROBE_EVERY_S = 0.1
_PROBE_RNG = np.random.default_rng(0)
_PROBE_TABLE = _PROBE_RNG.random(1 << 20, dtype=np.float32)
_PROBE_INDEX = _PROBE_RNG.integers(0, 1 << 20, size=1 << 17)
_PROBE_MATRIX = _PROBE_RNG.random((160, 160), dtype=np.float32)


def probe_seconds():
    """Best of two runs of the fixed probe."""
    best = float("inf")
    for _ in range(2):
        start = clock()
        acc = 0
        for i in range(25000):
            acc += i * i % 7
        _PROBE_TABLE[_PROBE_INDEX].sum()
        for _ in range(6):
            _PROBE_MATRIX @ _PROBE_MATRIX
        best = min(best, clock() - start)
    return best


class Phase:
    """What one measured stretch of a workload did."""

    def __init__(self):
        self.durations = []     # seconds per operation, as measured
        self.factors = []       # host speed factor in force for each operation
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._probed_at = -float("inf")
        self._factor = 1.0

    def speed(self):
        """PROBE_REF_S / probe time, probing again when the last is stale."""
        if clock() - self._probed_at >= PROBE_EVERY_S:
            self._factor = PROBE_REF_S / probe_seconds()
            self._probed_at = clock()
        return self._factor

    def record(self, elapsed, factor):
        self.durations.append(elapsed)
        self.factors.append(factor)

    def scaled(self):
        return [d * f for d, f in zip(self.durations, self.factors)]

    def fail(self, ops, why):
        self.failed += ops
        if len(self.errors) < 5:
            self.errors.append(why)

    def merge(self, other):
        self.durations += other.durations
        self.factors += other.factors
        self.items += other.items
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors[:max(0, 5 - len(self.errors))]


def _read(path, binary=False):
    with open(path, "rb" if binary else "r") as f:
        return f.read()


# ---------------------------------------------------------------------------
# training

PUBLISHED = {}
TOY = {
    "pyramid.widths": "4,8,16,32", "pyramid.stem_width": 4, "pyramid.num_blocks": 2,
    "waterfall.branch_width": 12, "waterfall.out_width": 32,
    "waterfall.keypoints": 2, "waterfall.group_width": 4,
    "train.rotation_deg": 0.0, "train.scale_min": 1.0, "train.scale_max": 1.0,
    "train.translate_px": 0.0,
}


class Train:
    """Repeated fixed training runs of `train_loop` on 64x64 images with 2-4
    people; every run must reproduce the warm-up run's loss log exactly."""

    item = "images stepped"

    def __init__(self, overrides, keypoints, images, epochs):
        self.overrides = overrides
        self.keypoints = keypoints
        self.images = images
        self.epochs = epochs

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        ann_path, _ = synth.write_people_images(
            rng, workdir, self.images, 64, self.keypoints, (2, 4), (18.0, 28.0),
            synth.grid_slots(64, 2, 2))
        cfg_path = synth.write_config(os.path.join(workdir, "train.cfg"), dict(
            self.overrides, **{"train.epochs": self.epochs, "train.seed": seed}))
        cfg = parse_config(_read(cfg_path))
        ds = dataio.parse_annotations(_read(ann_path))
        samples = [(dataio.read_image_ppm(_read(os.path.join(workdir, img.file_name), True)),
                    ds.annotations[img.id]) for img in ds.images]
        weights = init_model_weights(cfg.pyramid, cfg.waterfall, seed=seed)
        return {"cfg": cfg, "samples": samples, "weights": weights, "log": None}

    def warm_up(self, state):
        """One untimed fixed run; its loss log is the reference."""
        state["log"] = self._fixed_run(state, self._initial_weights(state))

    @staticmethod
    def _initial_weights(state):
        return {k: v.copy() for k, v in state["weights"].items()}

    @staticmethod
    def _fixed_run(state, weights):
        cfg = state["cfg"]
        _, _, log = train_mod.train_loop(state["samples"], weights, cfg.pyramid,
                                         cfg.waterfall, cfg.train)
        return log

    def run(self, state, seconds, tracer):
        phase = Phase()
        starts, ends, factors = [], [], []
        optim_step = train_mod.optim_step

        def timed_step(*args, **kwargs):
            # the end of one step and the start of the next, so steps can be
            # timed one by one with the probe run between them
            result = optim_step(*args, **kwargs)
            ends.append(clock())
            factors.append(phase.speed())
            if tracer is not None:
                tracer.begin()
            starts.append(clock())
            return result

        train_mod.optim_step = timed_step
        try:
            end, runs = clock() + seconds, 0
            while runs == 0 or clock() < end:
                runs += 1
                weights = self._initial_weights(state)
                starts.clear()
                ends.clear()
                factors[:] = [phase.speed()]
                if tracer is not None:
                    tracer.begin()
                starts.append(clock())
                try:
                    log = self._fixed_run(state, weights)
                    why = self._check(state, log)
                except train_mod.TrainingError as e:
                    why = f"training failed: {e}"
                finally:
                    if tracer is not None:
                        tracer.end()
                for start, stop, factor in zip(starts, ends, factors):
                    phase.record(stop - start, factor)
                steps = max(len(ends), 1)
                phase.items += len(ends)
                phase.attempted += steps
                if why:
                    phase.fail(steps, why)
        finally:
            train_mod.optim_step = optim_step
        return phase

    @staticmethod
    def _check(state, log):
        for line in log:
            if not all(np.isfinite(float(v)) for v in line.split("\t")[2:]):
                return f"non-finite loss in log line {line!r}"
        if log != state["log"]:
            return "loss log differs from the warm-up run's"
        return None

    def finish(self, state):
        return {"loss_end": float(state["log"][-1].split("\t")[4])}, []


# ---------------------------------------------------------------------------
# inference

class Infer:
    """`waterfallpose infer` in-process at published widths on 128x128 images."""

    item = "images inferred"
    n_images = 3

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        _, paths = synth.write_people_images(
            rng, workdir, self.n_images, 128, 17, (3, 6), (30.0, 50.0),
            synth.grid_slots(128, 3, 2))
        cfg_path = synth.write_config(os.path.join(workdir, "infer.cfg"), {
            "pyramid.widths": "32,64,128,256", "waterfall.dilations": "1,6,12,18",
            "waterfall.keypoints": 17, "waterfall.group_width": 15})
        cfg = parse_config(_read(cfg_path))
        weights = init_model_weights(cfg.pyramid, cfg.waterfall, seed=seed)
        ckpt = os.path.join(workdir, "checkpoint.bin")
        with open(ckpt, "wb") as f:
            f.write(dataio.save_checkpoint(weights, None, 0, cfg.fingerprint()))
        return {"cfg": cfg, "cfg_path": cfg_path, "ckpt": ckpt, "images": paths,
                "weights": weights, "workdir": workdir, "outputs": []}

    def _request(self, state, i):
        out_poses = os.path.join(state["workdir"], f"poses_{i}.json")
        out_overlay = os.path.join(state["workdir"], f"overlay_{i}.ppm")
        argv = ["infer", "--config", state["cfg_path"], "--checkpoint", state["ckpt"],
                "--image", state["images"][i], "--out-poses", out_poses,
                "--out-overlay", out_overlay, "--image-id", str(i)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            start = clock()
            code = cli.main(argv)
            elapsed = clock() - start
        return elapsed, code, err.getvalue(), out_poses, out_overlay

    def warm_up(self, state):
        self._request(state, 0)

    def run(self, state, seconds, tracer):
        phase = Phase()
        end = clock() + seconds
        while not phase.durations or clock() < end:
            i = len(state["outputs"]) % self.n_images
            factor = phase.speed()
            if tracer is not None:
                tracer.begin()
            elapsed, code, err, out_poses, out_overlay = self._request(state, i)
            if tracer is not None:
                tracer.end()
            phase.record(elapsed, factor)
            phase.attempted += 1
            phase.items += 1
            poses = None
            if code != 0:
                phase.fail(1, f"infer exited {code}: {err.strip()}")
            else:
                try:
                    poses = dataio.parse_results(_read(out_poses), 17).get(i, [])
                    overlay = dataio.read_image_ppm(_read(out_overlay, True))
                except (OSError, dataio.FormatError) as e:
                    phase.fail(1, f"infer output does not parse back: {e}")
                else:
                    if overlay.shape != (1, 3, 128, 128):
                        phase.fail(1, f"overlay has shape {overlay.shape}")
            state["outputs"].append((i, poses))
        return phase

    def finish(self, state):
        """Compare every request's poses with a direct forward + decode."""
        cfg = state["cfg"]
        stride = float(cfg.pyramid.base_stride)
        expected = {}
        for i, path in enumerate(state["images"]):
            image = dataio.read_image_ppm(_read(path, True))
            maps, _ = model_forward(image, state["weights"], cfg.pyramid, cfg.waterfall)
            expected[i] = [([(x * stride, y * stride, s) for x, y, s in p.keypoints],
                            p.score) for p in decode_poses(maps, cfg.decode)]
        failures = [f"image {i}: infer poses differ from forward + decode"
                    for i, poses in state["outputs"] if poses is not None and
                    not _same_poses([(p.keypoints, p.score) for p in poses], expected[i])]
        return {}, failures


def _same_poses(got, want):
    if len(got) != len(want):
        return False
    for (kg, sg), (kw, sw) in zip(got, want):
        if not np.allclose(kg, kw, rtol=1e-6, atol=1e-5) or abs(sg - sw) > 1e-6:
            return False
    return True


# ---------------------------------------------------------------------------
# evaluation

class Eval:
    """`waterfallpose eval` in-process on a COCO-style set whose AP/AR row is
    known from its construction."""

    item = "detections scored"

    def __init__(self, n_images):
        self.n_images = n_images

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        ann, res, design = synth.write_eval_inputs(rng, workdir, self.n_images)
        cfg_path = synth.write_config(os.path.join(workdir, "eval.cfg"), {
            "eval.style": "coco", "oks.falloffs": synth.EVAL_FALLOFF})
        return {"argv": ["eval", "--config", cfg_path, "--dataset", ann, "--results", res],
                "design": design, "expected": None,
                "dets": self.n_images * synth.EVAL_DETS}

    def _request(self, state):
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            start = clock()
            code = cli.main(state["argv"])
            elapsed = clock() - start
        return elapsed, code, out.getvalue(), err.getvalue()

    def warm_up(self, state):
        state["expected"] = synth.expected_eval_row(state["design"])
        self._request(state)

    def run(self, state, seconds, tracer):
        phase = Phase()
        end = clock() + seconds
        while not phase.durations or clock() < end:
            factor = phase.speed()
            if tracer is not None:
                tracer.begin()
            elapsed, code, out, err = self._request(state)
            if tracer is not None:
                tracer.end()
            phase.record(elapsed, factor)
            phase.attempted += 1
            phase.items += state["dets"]
            why = (f"eval exited {code}: {err.strip()}" if code != 0
                   else _row_mismatch(out, state["expected"]))
            if why:
                phase.fail(1, why)
        return phase

    def finish(self, state):
        return {}, []


def _row_mismatch(printed, expected):
    """None when the printed AP/AR row equals the expected one to the printed
    precision (0.1 percentage points), else what differs."""
    lines = printed.strip().splitlines()
    if len(lines) < 2:
        return f"eval printed {printed!r}"
    names = [c.strip() for c in lines[-2].split("|")]
    cells = [c.strip() for c in lines[-1].split("|")]
    if sorted(names) != sorted(expected):
        return f"eval row has columns {names}, expected {sorted(expected)}"
    for name, cell in zip(names, cells):
        want = expected[name]
        if cell == "-" or want is None:
            if not (cell == "-" and want is None):
                return f"{name}: printed {cell}, expected {want}"
        elif abs(float(cell.rstrip("%")) - 100.0 * want) > 0.05 + 1e-9:
            return f"{name}: printed {cell}, expected {100.0 * want:.3f}%"
    return None


WORKLOADS = {
    "train-published": Train(PUBLISHED, 17, images=4, epochs=1),
    "train-toy": Train(TOY, 2, images=4, epochs=10),
    "infer-cli": Infer(),
    "eval-cli": Eval(n_images=100),
}
