"""In-memory span tracing around the package's public functions.

`Tracer.install()` replaces each traced function with a wrapper everywhere
the package looks it up: the defining module and every module that imported
the name directly (`model` holds its own `backbone_forward`, `train` its own
`model_forward`, `cli` its own `evaluate`, ...). Spans are only recorded
between `begin()` and `end()` of an operation, so the benchmark's own checks
never show up. Each span is [name, start, end, parent index, op id,
time covered by child spans]; a span's self time is its duration minus the
child time.

Counts are recorded at the same boundaries: conv multiply-accumulates and
bytes parsed or written are computed from argument and result sizes
("computed", not measured), the rest are counted outcomes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _conv_macs(x, w, out_shape):
    n, cout, oh, ow = out_shape
    return n * cout * oh * ow * x.shape[1] * w.shape[2] * w.shape[3]


def _conv2d(counts, args, result):
    counts["tensor.conv2d.gmac"] += _conv_macs(args[0], args[1], result.shape) / 1e9


def _conv2d_backward(counts, args, result):
    # gradient on the input and on the weight, each one forward's worth
    counts["tensor.conv2d_backward.gmac"] += \
        2 * _conv_macs(args[0], args[1], args[3].shape) / 1e9


def _bytes_in(key):
    def measure(counts, args, result):
        counts[key] += len(args[0]) / 1e6
    return measure


def _bytes_out(key):
    def measure(counts, args, result):
        counts[key] += len(result) / 1e6
    return measure


def _supervised_px(counts, args, result):
    mask = result[1]
    counts["targets.supervised_px"] += int(np.count_nonzero(mask.max(axis=1)))


def _peaks(counts, args, result):
    counts["decode.peaks"] += len(result)


def _kept(counts, args, result):
    counts["decode.kept"] += len(result)


def _pairs(counts, args, result):
    preds, gts = args[0], args[1]
    counts["metrics.pairs"] += sum(
        len(preds.get(img, [])) * sum(1 for g in gts.get(img, []) if g.num_labeled() > 0)
        for img in gts.keys() | preds.keys())


# (module, function, measure): every function that gets a span
SPANS = (
    ("tensor", "conv2d", _conv2d),
    ("tensor", "conv2d_backward", _conv2d_backward),
    ("tensor", "bilinear_resize", None),
    ("tensor", "bilinear_resize_backward", None),
    ("tensor", "bilinear_sample", None),
    ("waterfall", "fuse_pyramid", None),
    ("waterfall", "fuse_pyramid_backward", None),
    ("waterfall", "waterfall_forward", None),
    ("waterfall", "waterfall_backward", None),
    ("waterfall", "fuse_low_level", None),
    ("waterfall", "fuse_low_level_backward", None),
    ("waterfall", "heads_forward", None),
    ("waterfall", "heads_backward", None),
    ("waterfall", "adaptive_conv", None),
    ("waterfall", "adaptive_conv_backward", None),
    ("backbone", "backbone_forward", None),
    ("backbone", "backbone_backward", None),
    ("model", "model_forward", None),
    ("model", "model_backward", None),
    ("targets", "render_keypoint_heatmaps", None),
    ("targets", "render_offset_targets", _supervised_px),
    ("train", "augment_sample", None),
    ("train", "total_loss", None),
    ("train", "optim_step", None),
    ("decode", "nms_peaks", _peaks),
    ("decode", "decode_poses", _kept),
    ("metrics", "evaluate", _pairs),
    ("metrics", "match_and_score", None),
    ("metrics", "interpolated_ap", None),
    ("dataio", "load_checkpoint", _bytes_in("dataio.load_checkpoint.mb")),
    ("dataio", "save_checkpoint", _bytes_out("dataio.save_checkpoint.mb")),
    ("dataio", "read_image_ppm", _bytes_in("dataio.read_image_ppm.mb")),
    ("dataio", "write_results", _bytes_out("dataio.write_results.mb")),
    ("dataio", "parse_results", _bytes_in("dataio.parse_results.mb")),
    ("dataio", "parse_annotations", _bytes_in("dataio.parse_annotations.mb")),
    ("cli", "main", None),
)
# called too often for a span each; only counted
COUNTED = (("metrics", "oks"),)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)
        self.op = None
        self.missing = set()     # functions not found or not measurable
        self._patched = []
        self._next_op = 0

    def begin(self):
        """Open the next operation; later spans carry its id."""
        self.op = self._next_op
        self._next_op += 1

    def end(self):
        self.op = None

    # -- installation ------------------------------------------------------

    def install(self):
        for module, name, measure in SPANS:
            self._replace(module, name, lambda fn, key, m=measure: self._span(key, fn, m))
        for module, name in COUNTED:
            self._replace(module, name, self._counter)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _replace(self, module, name, make):
        home = sys.modules.get(f"waterfallpose.{module}")
        original = getattr(home, name, None)
        if original is None:
            self.missing.add(f"{module}.{name}")
            return
        wrapper = make(original, f"{module}.{name}")
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "waterfallpose" and not mod_name.startswith("waterfallpose."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def _span(self, key, fn, measure):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = [key, clock(), 0.0, parent, self.op, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += span[2] - span[1]
            if measure is not None:
                try:
                    measure(counts, args, result)
                except (AttributeError, IndexError, TypeError):
                    self.missing.add(f"{key} (counts: unexpected arguments)")
            return result
        return wrapper

    def _counter(self, fn, key):
        counts = self.counts
        calls = key + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is not None:
                counts[calls] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- results -----------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict:
        """Per-operation figures named <module>.<function>.<stat>."""
        self_ms = defaultdict(float)
        calls = defaultdict(int)
        for name, t0, t1, _, _, child in self.spans:
            self_ms[name] += (t1 - t0 - child) * 1e3
            calls[name] += 1
        out = {}
        for module, name, _ in SPANS:
            key = f"{module}.{name}"
            out[key + ".self_ms"] = self_ms[key] / ops
            out[key + ".calls"] = calls[key] / ops
        c = self.counts
        for key in ("tensor.conv2d", "tensor.conv2d_backward"):
            gmac = c[key + ".gmac"]
            out[key + ".gmac"] = gmac / ops
            out[key + ".gmac_per_s"] = gmac / (self_ms[key] / 1e3) if self_ms[key] else 0.0
        for module, name, _ in SPANS:
            if module == "dataio":
                out[f"dataio.{name}.mb"] = c[f"dataio.{name}.mb"] / ops
        out["targets.supervised_px"] = c["targets.supervised_px"] / ops
        out["decode.peaks"] = c["decode.peaks"] / ops
        out["decode.kept_ratio"] = c["decode.kept"] / c["decode.peaks"] if c["decode.peaks"] else 0.0
        out["metrics.oks.calls"] = c["metrics.oks.calls"] / ops
        out["metrics.oks_calls_per_pair"] = (c["metrics.oks.calls"] / c["metrics.pairs"]
                                             if c["metrics.pairs"] else 0.0)
        return out

    def dump(self, path):
        """Spans as JSON lines, times in seconds from the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for i, (name, t0, t1, parent, op, child) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "op": op, "parent": parent,
                                    "start": t0 - base, "end": t1 - base,
                                    "self": t1 - t0 - child}) + "\n")
