"""Runtime self-verification: the gradient suite and the module oracle suite
behind the gradcheck and selftest commands.

Everything runs at toy widths in 64-bit and returns (name, passed, detail)
triples so the CLI can print one line per check.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from . import waterfall as W
from .backbone import PyramidConfig
from .dataio import save_checkpoint
from .decode import DecodeConfig, PoseInstance, decode_poses
from .metrics import OksParams, EvalResult, oks, evaluate, DEFAULT_THRESHOLDS, RECALL_POINTS
from .model import draw_weights, init_model_weights, model_backward, model_forward, \
    weight_shapes
from .overlay import LINE_COLOR, MARKER_COLORS, draw_overlay
from .targets import PersonAnnotation, render_keypoint_heatmaps, \
    render_offset_targets
from .train import TrainConfig, lr_at_epoch, heatmap_loss, offset_loss, total_loss, train_loop
from .waterfall import WaterfallConfig, PoseMaps

GRAD_TOL = 1e-6
GRAD_STEP = 1e-6


def _toy_model(seed=0, dtype=np.float64):
    pyr = PyramidConfig(widths=(2, 3, 2, 2), stem_width=2)
    wf = WaterfallConfig(branch_width=2, out_width=3, final_width=2,
                         keypoints=2, group_width=2)
    weights = init_model_weights(pyr, wf, seed=seed, dtype=dtype,
                                 offset_init="random")
    rng = np.random.default_rng(seed + 1)
    for name in weights:  # keep ReLU pre-activations off the exact kink
        if name.endswith(".b") and "taps" not in name:
            weights[name] = rng.standard_normal(weights[name].shape) * 0.1
    return pyr, wf, weights


def conv2d_naive(x, w, b, spec):
    """Six-nested-loop cross-correlation oracle: float64 products, zero outside
    the input, and its own output-extent formula rather than ConvSpec's."""
    n, cin, h, wd = x.shape
    cout = w.shape[0]
    oh = (h + 2 * spec.pad_h - (spec.kh - 1) * spec.dilation - 1) // spec.stride + 1
    ow = (wd + 2 * spec.pad_w - (spec.kw - 1) * spec.dilation - 1) // spec.stride + 1
    y = np.zeros((n, cout, oh, ow), dtype=np.float64)
    for bi in range(n):
        for oc in range(cout):
            for oi in range(oh):
                for oj in range(ow):
                    acc = 0.0
                    for ic in range(cin):
                        for ki in range(spec.kh):
                            for kj in range(spec.kw):
                                ri = oi * spec.stride - spec.pad_h + ki * spec.dilation
                                cj = oj * spec.stride - spec.pad_w + kj * spec.dilation
                                if 0 <= ri < h and 0 <= cj < wd:
                                    acc += float(x[bi, ic, ri, cj]) * float(w[oc, ic, ki, kj])
                    y[bi, oc, oi, oj] = acc + float(b[oc])
    return y


def _resized(x, h, w):
    """x bilinearly resized to h x w: R_h x R_w^T."""
    rh, rw = (T.resize_matrix(n, size, 0, x.dtype) for n, size in zip(x.shape[2:], (h, w)))
    return rh @ x @ rw.T


def layered_head_projection(branches, pooled, low_level, weights):
    """Stage 3 layer by layer, the oracle for waterfall.head_projection: the
    pooled (N, C, 1, 1) branch resized to the branches' extents and
    concatenated after them, wf.out over that concat plus llf.proj over the
    low-level map, then llf.mid and llf.out, each one conv2d."""
    def conv(x, layer):
        return T.conv2d(x, weights[layer + ".w"], weights[layer + ".b"], W.S1)
    h, w = low_level.shape[2:]
    cat = T.concat_channels([*branches, _resized(pooled, h, w)])
    return conv(conv(conv(cat, "wf.out") + conv(low_level, "llf.proj"), "llf.mid"), "llf.out")


def layered_pyramid_branch(levels, weights, dilation):
    """The fused pyramid built layer by layer, the oracle for
    waterfall.pyramid_branch and the pooled branch's per-level pool: levels
    1..3 resized to level-0 extents and concatenated after level 0 into g0,
    then wf.branch0's conv2d over g0 (before its ReLU), and the pool of g0.
    Returns (conv output, pooled g0)."""
    h, w = levels[0].shape[2:]
    g0 = T.concat_channels([levels[0]] + [_resized(f, h, w) for f in levels[1:]])
    spec = T.ConvSpec(3, 3, pad_h=dilation, pad_w=dilation, dilation=dilation)
    y = T.conv2d(g0, weights["wf.branch0.w"], weights["wf.branch0.b"], spec)
    return y, T.global_avg_pool(g0)


def operand_errors(loss, operands, grads, h=1e-5):
    """Relative error of each analytic gradient in grads against central
    differences (tensor.numeric_gradient with step h) of the scalar
    loss(*operands), varying only that operand; operands may have any shape."""
    errors = []
    for i, (operand, grad) in enumerate(zip(operands, grads, strict=True)):
        def f(v, i=i):
            trial = list(operands)
            trial[i] = v
            return loss(*trial)
        errors.append(T.relative_error(grad, T.numeric_gradient(f, operand, h=h)))
    return errors


def gradient_checks():
    """Per-layer and full-model analytic-vs-numeric gradient checks."""
    rng = np.random.default_rng(42)
    results = []

    def record(names, loss, operands, grads):
        for name, err in zip(names, operand_errors(loss, operands, grads, h=GRAD_STEP),
                             strict=True):
            results.append((name, err <= GRAD_TOL, f"rel err {err:.2e}"))

    # conv2d
    spec = T.ConvSpec(3, 3, stride=2, pad_h=2, pad_w=2, dilation=2)
    x = rng.standard_normal((1, 2, 7, 7))
    w = rng.standard_normal((2, 2, 3, 3))
    b = rng.standard_normal(2)
    gy = rng.standard_normal(T.conv2d(x, w, b, spec).shape)
    record(("conv2d/input", "conv2d/weight"),
           lambda x, w: float((T.conv2d(x, w, b, spec) * gy).sum()),
           (x, w), T.conv2d_backward(x, w, spec, gy)[:2])

    # pooling
    gp = rng.standard_normal((1, 2, 1, 1))
    record(("global_avg_pool",), lambda x: float((T.global_avg_pool(x) * gp).sum()),
           (x,), (T.global_avg_pool_backward(x.shape, gp),))

    # point sampling at four (row, col) points
    pts = rng.uniform(0.3, 5.7, size=(4, 2))
    gs = rng.standard_normal((1, 2, 4))

    def sample(v, p):
        return T.bilinear_sample(v, p[None, :, 0], p[None, :, 1])

    gx, grows, gcols = T.bilinear_sample_backward(sample(x, pts)[1], gs)
    record(("bilinear_sample/input", "bilinear_sample/points"),
           lambda v, p: float((sample(v, p)[0] * gs).sum()),
           (x, pts), (gx, np.stack([grows[0], gcols[0]], axis=1)))

    # adaptive conv
    xa = rng.standard_normal((1, 2, 5, 5))
    w9 = rng.standard_normal((2, 2, 3, 3))
    off = W.canonical_offsets(1, 5, 5, dtype=np.float64)
    off += rng.uniform(0.1, 0.4, size=off.shape)
    ga = rng.standard_normal((1, 2, 5, 5))
    _, cache = W.adaptive_conv(xa, w9, off)
    record(("adaptive_conv/input", "adaptive_conv/weights", "adaptive_conv/offsets"),
           lambda *args: float((W.adaptive_conv(*args)[0] * ga).sum()),
           (xa, w9, off), W.adaptive_conv_backward(cache, ga))

    # heads
    pyr, wf, weights = _toy_model()
    fm = rng.standard_normal((1, wf.final_width, 8, 8))
    gh = rng.standard_normal((1, wf.heatmap_channels, 8, 8))
    go = rng.standard_normal((1, wf.offset_channels, 8, 8))
    tape = T.Tape()
    maps = W.heads_forward(fm, weights, wf, tape)
    grads, (g_fm,) = tape.backward([(maps.heatmaps, gh), (maps.offsets, go)], wrt=[fm])
    names = ("head.kp.adapt.w", "head.off.g0.taps.w")

    def head_loss(v, *head_weights):
        m = W.heads_forward(v, {**weights, **dict(zip(names, head_weights))}, wf,
                            T.ForwardTape())
        return float((m.heatmaps * gh).sum() + (m.offsets * go).sum())

    record(["heads/input"] + ["heads/" + name for name in names], head_loss,
           [fm] + [weights[name] for name in names], [g_fm] + [grads[name] for name in names])

    # losses
    pred = rng.uniform(0.1, 0.9, size=(1, 3, 6, 6))
    target = rng.uniform(0, 1, size=(1, 3, 6, 6))
    record(("heatmap_loss",), lambda v: heatmap_loss(v, target)[0],
           (pred,), heatmap_loss(pred, target)[1:])
    offp = rng.standard_normal((1, 4, 6, 6)) * 2
    offt = rng.standard_normal((1, 4, 6, 6))
    mask = (rng.uniform(size=offp.shape) < 0.5).astype(np.float64)
    scale = rng.uniform(0.5, 3.0, size=(1, 1, 6, 6))
    e = np.abs((offp - offt) / scale)
    offp += ((e > 0.98) & (e < 1.02)) * 0.1
    record(("offset_loss",), lambda v: offset_loss(v, offt, mask, scale)[0],
           (offp,), offset_loss(offp, offt, mask, scale)[1:])

    # full model through the losses, sampled parameter coordinates
    img = rng.uniform(0, 1, size=(1, 3, 32, 32))
    anns = [PersonAnnotation([(3.2, 4.1, 2), (5.5, 2.2, 2)],
                             area=16.0)]
    worst = full_model_gradient_error(img, anns, weights, pyr, wf, coords=6, seed=7)
    results.append(("full_model/sampled_params", worst <= GRAD_TOL,
                    f"worst rel err {worst:.2e}"))

    # stage 3's folded affine map, through each of its fourteen operands
    branches = [rng.standard_normal((2, wf.branch_width, 3, 4)) for _ in range(4)]
    pooled = rng.standard_normal((2, wf.branch_width, 1, 1))
    low = rng.standard_normal((2, pyr.low_level_width, 3, 4))
    operands = branches + [pooled, low] + [weights[name] for name in W.HEAD_PROJECTION_WEIGHTS]
    gp = rng.standard_normal((2, wf.final_width, 3, 4))
    _, cache = W.head_projection(branches, pooled, low, operands[6:])
    names = [f"branch{i}" for i in range(4)] + ["pooled", "low_level"]
    record(["head_projection/" + name for name in names + list(W.HEAD_PROJECTION_WEIGHTS)],
           lambda *ops: float((W.head_projection(ops[:4], *ops[4:6], ops[6:])[0] * gp).sum()),
           operands, W.head_projection_backward(cache, gp))

    # the first waterfall branch over the pyramid, through each level and wf.branch0
    levels = [rng.standard_normal((2, c, 8 >> lv, 16 >> lv))
              for lv, c in enumerate(pyr.widths)]
    operands = levels + [weights["wf.branch0.w"], weights["wf.branch0.b"]]
    out, cache = W.pyramid_branch(levels, *operands[4:], 2)
    gp = rng.standard_normal(out.shape)
    names = [f"level{lv}" for lv in range(4)] + ["w", "b"]
    record(["pyramid_branch/" + name for name in names],
           lambda *ops: float((W.pyramid_branch(ops[:4], *ops[4:], 2)[0] * gp).sum()),
           operands, W.pyramid_branch_backward(cache, gp))
    return results


def full_model_gradient_error(img, anns, weights, pyr, wf, coords, seed):
    """Worst relative error of the analytic gradient of total_loss (targets
    rendered from anns at base resolution) against central differences with
    step GRAD_STEP, at up to `coords` coordinates of each weight drawn with
    default_rng(seed) in sorted name order. Nudges weights in place and
    restores every coordinate it touches."""
    k = wf.keypoints
    hh, hw = img.shape[2] // pyr.base_stride, img.shape[3] // pyr.base_stride
    heat_t = render_keypoint_heatmaps(anns, k, hh, hw).astype(np.float64)
    off_t, off_m, off_s = (a.astype(np.float64)
                           for a in render_offset_targets(anns, k, hh, hw))
    tcfg = TrainConfig()

    maps, tape = model_forward(img, weights, pyr, wf)
    _, _, _, gh, go = total_loss(maps, heat_t, off_t, off_m, off_s, tcfg)
    grads = model_backward(tape, maps, gh, go)
    coord_rng = np.random.default_rng(seed)
    worst = 0.0
    for name in sorted(weights):
        flat = weights[name].reshape(-1)
        picks = np.arange(flat.size) if flat.size <= coords else \
            coord_rng.choice(flat.size, size=coords, replace=False)
        picked = flat[picks]

        def model_loss(v):
            flat[picks] = v
            m, _ = model_forward(img, weights, pyr, wf, T.ForwardTape())
            return total_loss(m, heat_t, off_t, off_m, off_s, tcfg)[0]

        num = T.numeric_gradient(model_loss, picked, h=GRAD_STEP)
        flat[picks] = picked
        for n, a in zip(num, grads[name].reshape(-1)[picks]):
            worst = max(worst, abs(n - a) / max(abs(n), abs(a), 1e-3))
    return worst


def selftest_checks():
    """Condensed module oracle suite."""
    rng = np.random.default_rng(11)
    results = []

    def record(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    # convolution vs naive oracle
    worst = 0.0
    for dilation in (1, 2, 6):
        spec = T.ConvSpec(3, 3, pad_h=dilation, pad_w=dilation, dilation=dilation)
        x = rng.standard_normal((1, 3, 9, 9)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(2).astype(np.float32)
        worst = max(worst, T.relative_error(
            T.conv2d(x, w, b, spec), conv2d_naive(x, w, b, spec)))
    record("conv_oracle", worst <= 1e-5, f"max rel err {worst:.2e}")

    # adaptive conv degeneracy
    x = rng.standard_normal((1, 3, 7, 7)).astype(np.float32)
    w9 = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
    y, _ = W.adaptive_conv(x, w9, W.canonical_offsets(1, 7, 7))
    ref = T.conv2d(x, w9, np.zeros(2, dtype=np.float32),
                   T.ConvSpec(3, 3, pad_h=1, pad_w=1))
    err = T.relative_error(y, ref)
    record("adaptive_conv_degeneracy", err <= 1e-6, f"rel err {err:.2e}")

    # a forward-only pass keeps no node and gives the recording pass's maps
    pyr, wf, weights = _toy_model(seed=4)
    img = rng.uniform(0, 1, size=(1, 3, 32, 32))
    recorded, _ = model_forward(img, weights, pyr, wf)
    maps, tape = model_forward(img, weights, pyr, wf, T.ForwardTape())
    record("forward_only_equivalence",
           not tape.nodes
           and maps.heatmaps.tobytes() == recorded.heatmaps.tobytes()
           and maps.offsets.tobytes() == recorded.offsets.tobytes())

    # render -> decode round trip
    k = 3
    ok_all = True
    params = OksParams.uniform(k)
    dcfg = DecodeConfig(falloffs=params.falloffs)
    for _ in range(10):
        anns = random_pose_scene(rng, int(rng.integers(1, 4)), k)
        poses = decode_poses(scene_maps(anns, k), dcfg)
        ok_all &= len(poses) == len(anns)
        for ann in anns:
            ok_all &= max(oks(p, ann, params) for p in poses) >= 0.99
    record("render_decode_round_trip", ok_all)

    # evaluator vs brute force
    ok_eval = True
    for _ in range(40):
        preds, gts, params2 = random_eval_scene(rng)
        ok_eval &= (evaluate(preds, gts, params2).as_row()
                    == bruteforce_eval(preds, gts, params2).as_row())
    record("evaluator_bruteforce_equivalence", ok_eval)

    # schedule
    cfg = TrainConfig()
    record("lr_schedule",
           lr_at_epoch(0, cfg) == 1e-3
           and abs(lr_at_epoch(95, cfg) - 1e-4) < 1e-12
           and abs(lr_at_epoch(125, cfg) - 1e-5) < 1e-12)

    # determinism of a tiny training run
    pyr = PyramidConfig(widths=(2, 2, 2, 2), stem_width=2)
    wf = WaterfallConfig(branch_width=2, out_width=2, final_width=2,
                         keypoints=1, group_width=1)
    img = rng.uniform(0, 1, size=(1, 3, 32, 32)).astype(np.float32)
    samples = [(img, [PersonAnnotation([(12.0, 14.0, 2)], area=36.0)])]
    tcfg = TrainConfig(epochs=2, seed=5)
    blobs = []
    for _ in range(2):
        w0 = init_model_weights(pyr, wf, seed=3)
        w1, state, _ = train_loop(samples, w0, pyr, wf, tcfg)
        blobs.append(save_checkpoint(w1, state, 2, "selftest"))
    record("training_determinism", blobs[0] == blobs[1])

    # the one-pass infer overlay against the pixel-at-a-time painter
    scenes = [random_overlay_scene(rng) for _ in range(40)]
    record("overlay_reference_equivalence",
           all(draw_overlay(img, poses).tobytes() == overlay_reference(img, poses).tobytes()
               for img, poses in scenes))

    # the folded stage 3 against its layered oracle, float32 at published widths
    pyr, wf = PyramidConfig(), WaterfallConfig()
    weights = draw_weights({name: shape for name, shape in weight_shapes(pyr, wf).items()
                            if not name.startswith("backbone.")}, rng)
    for name in W.HEAD_PROJECTION_WEIGHTS[1::2]:    # biases start at zero; give c a part
        weights[name] = rng.standard_normal(weights[name].shape).astype(np.float32)
    branches = [rng.standard_normal((1, wf.branch_width, 6, 6)).astype(np.float32)
                for _ in range(4)]
    pooled = rng.standard_normal((1, wf.branch_width, 1, 1)).astype(np.float32)
    low = rng.standard_normal((1, pyr.low_level_width, 6, 6)).astype(np.float32)
    folded, _ = W.head_projection(branches, pooled, low,
                                  [weights[n] for n in W.HEAD_PROJECTION_WEIGHTS])
    err = T.relative_error(folded, layered_head_projection(branches, pooled, low, weights))
    record("head_projection_oracle", err <= 1e-5, f"rel err {err:.2e}")

    # the first waterfall branch and the per-level pool against the fused
    # pyramid they stand for, float32 at published widths
    weights["wf.branch0.b"] = rng.standard_normal(wf.branch_width).astype(np.float32)
    levels = [rng.standard_normal((1, c, 16 >> lv, 16 >> lv)).astype(np.float32)
              for lv, c in enumerate(pyr.widths)]
    ref, ref_pooled = layered_pyramid_branch(levels, weights, wf.dilations[0])
    y, _ = W.pyramid_branch(levels, weights["wf.branch0.w"], weights["wf.branch0.b"],
                            wf.dilations[0])
    pooled = T.concat_channels([T.global_avg_pool(f) for f in levels])
    err = max(T.relative_error(y, ref), T.relative_error(pooled, ref_pooled))
    record("pyramid_branch_oracle", err <= 1e-5, f"rel err {err:.2e}")
    return results


def overlay_reference(image: np.ndarray, poses) -> np.ndarray:
    """The infer overlay painted one pixel at a time, the oracle for
    overlay.draw_overlay: pose by pose, each chain edge's Bresenham walk between
    the rounded ends, then a 3x3 marker on each rounded joint in joint order.

    A walk starts, in exact integers, at its first step whose major coordinate
    is on the canvas: after n steps the minor coordinate has moved
    (2*d_minor*n + d_major) // (2*d_major) pixels.
    """
    canvas = image.copy()
    h, w = canvas.shape[2], canvas.shape[3]

    def line(x0, y0, x1, y1):
        rgb = np.array(LINE_COLOR) / 255.0
        x0, y0, x1, y1 = int(round(x0)), int(round(y0)), int(round(x1)), int(round(y1))
        by_rows = abs(y1 - y0) > abs(x1 - x0)
        plane = canvas[0].swapaxes(1, 2) if by_rows else canvas[0]    # (3, minor, major)
        size_major, size_minor = (h, w) if by_rows else (w, h)
        if by_rows:
            x0, y0, x1, y1 = y0, x0, y1, x1
        d_major, d_minor = abs(x1 - x0), abs(y1 - y0)
        s_major = 1 if x0 < x1 else -1
        s_minor = 1 if y0 < y1 else -1
        lo, hi = (-x0, size_major - 1 - x0) if s_major > 0 else (x0 - size_major + 1, x0)
        first, last = max(lo, 0), min(hi, d_major)
        moved = (2 * d_minor * first + d_major) // (2 * max(d_major, 1))
        x, y = x0 + s_major * first, y0 + s_minor * moved
        # the minor coordinate moves on the next step when err >= 0
        err = 2 * d_minor * (first + 1) - d_major * (2 * moved + 1)
        for _ in range(last - first + 1):
            if 0 <= y < size_minor:
                plane[:, y, x] = rgb
            if err >= 0:
                y += s_minor
                err -= 2 * d_major
            err += 2 * d_minor
            x += s_major

    def dot(x, y, color):
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                px, py = x + dx, y + dy
                if 0 <= px < w and 0 <= py < h:
                    for c in range(3):
                        canvas[0, c, py, px] = color[c] / 255.0

    for inst in poses:
        pts = inst.keypoints.tolist()
        for (x0, y0, _), (x1, y1, _) in zip(pts, pts[1:]):
            line(x0, y0, x1, y1)
        for j, (x, y, _) in enumerate(pts):
            dot(int(round(x)), int(round(y)), MARKER_COLORS[j % len(MARKER_COLORS)])
    return canvas


def random_overlay_scene(rng, h=24, w=32):
    """A random image and poses for the overlay oracle: 0 to 6 overlapping
    poses of 1 to 5 joints, on the canvas or up to 4 pixels off it, some
    joints on its edges and about one coordinate in twenty at +-1e7, +-1e30
    or +-3e38."""
    image = rng.uniform(0, 1, size=(1, 3, h, w)).astype(np.float32)
    k = int(rng.integers(1, 6))
    poses = []
    for _ in range(int(rng.integers(0, 7))):
        xy = rng.uniform(-4, (w + 4, h + 4), size=(k, 2))
        edge = rng.uniform(size=(k, 2)) < 0.15
        xy[edge] = rng.choice([-1.0, 0.0, w - 1.0, w, h - 1.0, h], size=edge.sum())
        far = rng.uniform(size=(k, 2)) < 0.05
        xy[far] = rng.choice([1e7, -1e7, 1e30, -1e30, 3e38, -3e38], size=far.sum())
        poses.append(PoseInstance(np.hstack([xy, rng.uniform(size=(k, 1))]),
                                  float(rng.uniform())))
    return image, poses


def random_pose_scene(rng, n_people, k=3, h=64, w=64, min_sep=8.0):
    """Up to n_people random annotations for the render -> decode oracle: k
    visible joints around a centre at least 10 pixels inside an h x w map,
    centres at least min_sep apart, area 120; gives up after 1000 draws."""
    anns = []
    centers = []
    tries = 0
    while len(anns) < n_people and tries < 1000:
        tries += 1
        cx = float(rng.uniform(10, w - 10))
        cy = float(rng.uniform(10, h - 10))
        if any((cx - a) ** 2 + (cy - b) ** 2 < min_sep ** 2 for a, b in centers):
            continue
        deltas = rng.uniform(-5, 5, size=(k, 2))
        deltas -= deltas.mean(axis=0)  # keep the centroid at (cx, cy)
        kps = np.hstack([deltas + (cx, cy), np.full((k, 1), 2.0)])
        anns.append(PersonAnnotation(kps, area=120.0))
        centers.append((cx, cy))
    return anns


def scene_maps(anns, k, h=64, w=64):
    """The heatmaps and offsets that training would target for anns."""
    heat = render_keypoint_heatmaps(anns, k, h, w)
    offs, _, _ = render_offset_targets(anns, k, h, w)
    return PoseMaps(heat, offs)


def random_eval_scene(rng, area_edges=(32.0 ** 2, 96.0 ** 2), crowd_edges=(0.1, 0.8)):
    """A random scene for the evaluator oracle, with ties: 1 to 3 images, each
    with 0 to 5 ground truths and 0 to 8 predictions of K = 2 joints.

    Ground truths have mixed visibilities with at least one labeled joint,
    areas below, on and above each area edge, and a crowd index of None, 0,
    1, an edge or a value between. About one in four repeats the keypoints of
    an earlier one in its image, with its area or a new one. Most predictions
    sit near a ground truth, at up to 1.5 OKS scales and at times exactly on
    it; about one in four repeats an earlier prediction of its image. So equal
    OKS values occur, also between ground truths in different buckets. Half
    of the scores come from {0.25, 0.5, 0.75}, so equal scores occur within
    an image and across images. Returns (preds_by_image, gts_by_image,
    params).
    """
    k = 2
    params = OksParams.uniform(k)
    preds, gts = {}, {}
    for img in range(int(rng.integers(1, 4))):
        gts[img] = []
        for _ in range(int(rng.integers(0, 6))):
            crowd = [None, 0.0, 1.0, *crowd_edges, float(rng.uniform())][int(rng.integers(6))]
            area = float(rng.choice(area_edges)) * \
                float(rng.choice([0.5, 1.0, 2.0, rng.uniform(0.5, 2.0)]))
            if gts[img] and rng.uniform() < 0.25:
                twin = gts[img][int(rng.integers(len(gts[img])))]
                kps = twin.keypoints
                area = twin.area if rng.uniform() < 0.5 else area
            else:
                vis = rng.integers(0, 3, size=(k, 1))
                if not vis.any():
                    vis[0] = 2
                kps = np.hstack([rng.uniform(0, 40, size=(k, 2)), vis])
            gts[img].append(PersonAnnotation(kps, area=area, crowd_index=crowd))
        preds[img] = []
        for _ in range(int(rng.integers(0, 9))):
            score = float(rng.choice([0.25, 0.5, 0.75])) if rng.uniform() < 0.5 \
                else float(rng.uniform())
            if preds[img] and rng.uniform() < 0.25:
                twin = preds[img][int(rng.integers(len(preds[img])))]
                xy = twin.keypoints[:, :2]
                score = twin.score if rng.uniform() < 0.5 else score
            elif gts[img] and rng.uniform() < 0.7:
                gt = gts[img][int(rng.integers(len(gts[img])))]
                scale = np.sqrt(gt.area) * params.falloffs[0] * \
                    float(rng.choice([0.0, rng.uniform(0, 1.5)]))
                xy = gt.keypoints[:, :2] + scale * rng.standard_normal((k, 2))
            else:
                xy = rng.uniform(0, 40, size=(k, 2))
            preds[img].append(PoseInstance(np.hstack([xy, np.ones((k, 1))]), score))
    return preds, gts, params


def pr_by_loop(flags, n_gt):
    """(recall, precision) after each detection of a score-ranked TP/FP list."""
    tp, curve = 0, []
    for rank, hit in enumerate(flags, start=1):
        tp += 1 if hit else 0
        curve.append((tp / n_gt, tp / rank))
    return curve


def ap_by_loop(curve):
    """The 101-point definition: at each recall level, the best precision at
    recall >= the level (0 if none), averaged."""
    total = 0.0
    for r in RECALL_POINTS:
        best = 0.0
        for rec, prec in curve:
            if rec >= r and prec > best:
                best = prec
        total += best
    return total / len(RECALL_POINTS)


def bruteforce_eval(preds_by_image, gts_by_image, params, style="coco",
                    area_edges=(32.0 ** 2, 96.0 ** 2), crowd_edges=(0.1, 0.8)):
    """Plain-loop reference: greedy matching and direct PR integration.

    Returns the whole EvalResult: AP, AP50, AP75 and AR over all ground
    truths, AP per bucket of the style (COCO area medium/large, or CrowdPose
    crowd index easy/medium/hard) and AR per area bucket. A bucket keeps its
    own ground truths, the detections matched to them and every unmatched
    detection; an empty bucket is None. Pair similarity comes from the
    library's oks() because libm exp() is not bitwise identical across call
    paths; closed-form tests pin the OKS formula itself.
    """
    lo, hi = area_edges
    area_buckets = {"medium": lambda g: lo <= g.area < hi,
                    "large": lambda g: g.area >= hi}
    if style == "coco":
        ap_buckets = area_buckets
    elif style == "crowdpose":
        edges = {"easy": (0.0, crowd_edges[0]), "medium": crowd_edges,
                 "hard": (crowd_edges[1], 1.0 + 1e-9)}
        ap_buckets = {name: (lambda g, a=a, b=b: g.crowd_index is not None
                             and a <= g.crowd_index < b)
                      for name, (a, b) in edges.items()}
    else:
        raise ValueError(f"unknown evaluation style {style!r}")

    image_ids = sorted(set(gts_by_image) | set(preds_by_image))
    gts_of = {i: [g for g in gts_by_image.get(i, []) if g.num_labeled()]
              for i in image_ids}
    everyone = [g for i in image_ids for g in gts_of[i]]

    preds_of = {i: sorted(preds_by_image.get(i, []), key=lambda p: -p.score)
                for i in image_ids}
    sim = {i: [[oks(p, g, params) for g in gts_of[i]] for p in preds_of[i]]
           for i in image_ids}
    aps, ars = [], []
    bucket_aps = {name: [] for name in ap_buckets}
    bucket_ars = {name: [] for name in area_buckets}
    for t in DEFAULT_THRESHOLDS:
        tagged = []
        for img in image_ids:
            gts = gts_of[img]
            used = set()
            for rank, p in enumerate(preds_of[img]):
                choices = [(sim[img][rank][gi], -gi) for gi in range(len(gts))
                           if gi not in used]
                choices.sort(reverse=True)
                matched = None
                if choices and choices[0][0] >= t:
                    matched = gts[-choices[0][1]]
                    used.add(-choices[0][1])
                tagged.append((-p.score, img, rank, matched))
        tagged.sort(key=lambda e: e[:3])
        ranked = [matched for _, _, _, matched in tagged]
        if everyone:
            aps.append(ap_by_loop(pr_by_loop([m is not None for m in ranked], len(everyone))))
            ars.append(sum(1 for m in ranked if m is not None) / len(everyone))
        for name, inside in ap_buckets.items():
            n = sum(1 for g in everyone if inside(g))
            if n:
                kept = [m is not None for m in ranked if m is None or inside(m)]
                bucket_aps[name].append(ap_by_loop(pr_by_loop(kept, n)))
        for name, inside in area_buckets.items():
            n = sum(1 for g in everyone if inside(g))
            if n:
                hits = sum(1 for m in ranked if m is not None and inside(m))
                bucket_ars[name].append(hits / n)

    def mean(vals):
        return sum(vals) / len(vals) if vals else None

    return EvalResult(
        ap=mean(aps) or 0.0,
        ap50=aps[DEFAULT_THRESHOLDS.index(0.5)] if aps else 0.0,
        ap75=aps[DEFAULT_THRESHOLDS.index(0.75)] if aps else 0.0,
        ap_buckets={name: mean(v) for name, v in bucket_aps.items()},
        ar=mean(ars) or 0.0,
        ar_medium=mean(bucket_ars["medium"]),
        ar_large=mean(bucket_ars["large"]),
    )
