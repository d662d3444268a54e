"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np

from waterfallpose import dataio
from waterfallpose import tensor as T
from waterfallpose import waterfall as W
from waterfallpose.backbone import PyramidConfig
from waterfallpose.decode import DecodeConfig, decode_poses
from waterfallpose.metrics import OksParams, oks, evaluate
from waterfallpose.model import init_model_weights, model_forward
from waterfallpose.targets import PersonAnnotation
from waterfallpose.train import TrainConfig, lr_at_epoch, \
    sample_affine_params, augment_sample, train_loop
from waterfallpose.waterfall import WaterfallConfig
from waterfallpose.decode import PoseInstance

from waterfallpose.checks import bruteforce_eval, conv2d_naive
from test_decode import synth_scene, render_scene


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num}: {name}{suffix}"


def test_01_convolution_oracle():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    cases = 0
    dilations = [1, 2, 6, 12, 18]
    while cases < 200:
        d = dilations[cases % len(dilations)]
        n = int(rng.integers(1, 3))
        cin = int(rng.integers(1, 5))
        cout = int(rng.integers(1, 5))
        h = int(rng.integers(1, 10))
        wd = int(rng.integers(1, 10))
        k = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        spec = T.ConvSpec(k, k, stride=stride, pad_h=d, pad_w=d, dilation=d)
        if spec.out_extent(h, 0) < 1 or spec.out_extent(wd, 1) < 1:
            continue
        x = rng.standard_normal((n, cin, h, wd)).astype(np.float32)
        w = rng.standard_normal((cout, cin, k, k)).astype(np.float32)
        b = rng.standard_normal(cout).astype(np.float32)
        worst = max(worst, T.relative_error(
            T.conv2d(x, w, b, spec), conv2d_naive(x, w, b, spec)))
        cases += 1
    elapsed = time.monotonic() - start
    report(1, "conv2d matches the 6-loop oracle on 200 randomized cases",
           worst <= 1e-5 and elapsed < 30.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_02_adaptive_conv_degeneracy():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        cin = int(rng.integers(1, 5))
        cout = int(rng.integers(1, 5))
        h = int(rng.integers(3, 9))
        wd = int(rng.integers(3, 9))
        x = rng.standard_normal((1, cin, h, wd)).astype(np.float32)
        w9 = rng.standard_normal((cout, cin, 3, 3)).astype(np.float32)
        y, _ = W.adaptive_conv(x, w9, W.canonical_offsets(1, h, wd))
        ref = T.conv2d(x, w9, np.zeros(cout, dtype=np.float32),
                       T.ConvSpec(3, 3, pad_h=1, pad_w=1))
        worst = max(worst, T.relative_error(y, ref))
    report(2, "adaptive conv with canonical offsets equals 3x3 conv (50 cases)",
           worst <= 1e-6, f"max rel err {worst:.2e}")


def test_03_gradient_suite():
    from waterfallpose.checks import full_model_gradient_error, gradient_checks
    start = time.monotonic()
    results = gradient_checks()
    layer_ok = all(ok for _, ok, _ in results)

    # full-model check at the stated toy widths (pyramid 4/8/16/32, 8x8 base)
    rng = np.random.default_rng(303)
    pyr = PyramidConfig(widths=(4, 8, 16, 32), stem_width=4)
    wf = WaterfallConfig(level_widths=(4, 8, 16, 32), low_level_width=4,
                         branch_width=8, out_width=16, keypoints=2, group_width=3)
    weights = init_model_weights(pyr, wf, seed=4, dtype=np.float64,
                                 offset_init="random")
    for name in weights:
        if name.endswith(".b") and "taps" not in name:
            weights[name] = rng.standard_normal(weights[name].shape) * 0.1
    img = rng.uniform(0, 1, size=(1, 3, 32, 32))
    anns = [PersonAnnotation([(3.1, 4.2, 2), (5.6, 2.3, 2)],
                             area=16.0)]
    worst = full_model_gradient_error(img, anns, weights, pyr, wf, coords=4, seed=7)
    elapsed = time.monotonic() - start
    report(3, "analytic gradients match central differences (64-bit)",
           layer_ok and worst <= 1e-6 and elapsed < 300.0,
           f"full-model worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_04_channel_arithmetic_at_paper_widths():
    rng = np.random.default_rng(404)
    cfg = WaterfallConfig()  # defaults: widths 32/64/128/256, K=17
    wts = W.init_waterfall_weights(cfg, rng)
    from waterfallpose.backbone import FeaturePyramid
    levels = [rng.standard_normal((1, c, 8 >> i, 8 >> i)).astype(np.float32)
              for i, c in enumerate((32, 64, 128, 256))]
    p = FeaturePyramid(levels, rng.standard_normal((1, 32, 8, 8)).astype(np.float32))
    tape = T.Tape()
    g0 = W.fuse_pyramid(p, tape)
    f_wf = W.waterfall_forward(g0, wts, cfg, tape)
    f_maps = W.fuse_low_level(p.low_level, f_wf, wts, cfg, tape)
    maps = W.heads_forward(f_maps, wts, cfg, tape)
    ok = (g0.shape[1] == 480 and f_maps.shape[1] == 120
          and maps.heatmaps.shape[1] == 18 and maps.offsets.shape[1] == 34)
    report(4, "channel arithmetic: 480 fused, 120 final, 18+34 head channels",
           ok, f"got {g0.shape[1]}/{f_maps.shape[1]}/"
               f"{maps.heatmaps.shape[1]}+{maps.offsets.shape[1]}")


def test_05_render_decode_round_trip():
    rng = np.random.default_rng(505)
    k = 3
    params = OksParams.uniform(k)
    cfg = DecodeConfig(falloffs=params.falloffs)
    worst_oks = 1.0
    worst_px = 0.0
    ok = True
    for _ in range(100):
        anns = synth_scene(rng, int(rng.integers(1, 5)), k=k)
        maps = render_scene(anns, k)
        poses = decode_poses(maps, cfg)
        ok &= len(poses) == len(anns)
        for ann in anns:
            sims = [oks(p, ann, params) for p in poses]
            best = max(sims, default=0.0)
            worst_oks = min(worst_oks, best)
            ok &= best >= 0.99
            match = poses[int(np.argmax(sims))]
            for (px, py, _), kp in zip(match.keypoints, ann.keypoints):
                err = max(abs(px - kp[0]), abs(py - kp[1]))
                worst_px = max(worst_px, err)
                ok &= err <= 0.5
    report(5, "render->decode round trip on 100 synthetic scenes",
           ok, f"worst OKS {worst_oks:.4f}, worst keypoint err {worst_px:.3f} px")


def test_06_oks_closed_forms():
    gt = PersonAnnotation([(3.0, 4.0, 2), (8.0, 1.0, 2)], area=49.0)
    pred = PoseInstance([(3.0, 4.0, 1.0), (8.0, 1.0, 1.0)], 1.0)
    identical = oks(pred, gt, OksParams.uniform(2))
    k = 0.25
    area = 36.0
    d = np.sqrt(area) * k
    gt1 = PersonAnnotation([(10.0, 10.0, 2)], area=area)
    pred1 = PoseInstance([(10.0 + d, 10.0, 1.0)], 1.0)
    at_sk = oks(pred1, gt1, OksParams((k,)))
    ok = abs(identical - 1.0) <= 1e-12 and abs(at_sk - np.exp(-0.5)) <= 1e-9
    report(6, "OKS closed forms (identity, d = s*k)",
           ok, f"1 -> {identical:.15f}, e^-0.5 -> {at_sk:.12f}")


def test_07_evaluator_equivalence():
    rng = np.random.default_rng(707)
    params = OksParams.uniform(2)
    all_equal = True
    for _ in range(500):
        n_img = int(rng.integers(1, 3))
        preds, gts = {}, {}
        total_gts = 0
        total_preds = 0
        for img in range(n_img):
            gts[img] = []
            for _ in range(int(rng.integers(0, 6 - total_gts if total_gts < 5 else 1))):
                pts = rng.uniform(0, 40, size=(2, 2))
                vis = [int(v) for v in rng.integers(0, 3, size=2)]
                if all(v == 0 for v in vis):
                    vis[0] = 2
                gts[img].append(PersonAnnotation(
                    [(float(x), float(y), v)
                     for (x, y), v in zip(pts, vis)],
                    area=float(rng.uniform(4, 150))))
            total_gts += len(gts[img])
            preds[img] = []
            for _ in range(int(rng.integers(0, max(9 - total_preds, 1)))):
                pts = rng.uniform(0, 40, size=(2, 2)) + \
                    rng.uniform(0, 5) * rng.standard_normal((2, 2))
                preds[img].append(PoseInstance(
                    [(float(x), float(y), 1.0) for x, y in pts],
                    float(rng.uniform(0, 1))))
            total_preds += len(preds[img])
        all_equal &= (evaluate(preds, gts, params).as_row()
                      == bruteforce_eval(preds, gts, params).as_row())
    report(7, "evaluator equals the brute-force oracle on 500 fuzzed scenes",
           all_equal)


def test_08_lr_schedule():
    cfg = TrainConfig()
    vals = (lr_at_epoch(0, cfg), lr_at_epoch(95, cfg), lr_at_epoch(125, cfg))
    ok = vals[0] == 1e-3 and vals[1] == 1e-3 * 0.1 and vals[2] == 1e-3 * 0.1 * 0.1
    report(8, "learning-rate plateaus at epochs 0/95/125",
           ok, f"{vals[0]:g}/{vals[1]:g}/{vals[2]:g}")


def test_09_augmentation_ranges_and_oracle():
    cfg = TrainConfig()
    rng = np.random.default_rng(909)
    ok = True
    for _ in range(100_000):
        theta, scale, tx, ty = sample_affine_params(rng, cfg)
        if not (-30.0 <= theta <= 30.0 and 0.75 <= scale <= 1.5
                and -40.0 <= tx <= 40.0 and -40.0 <= ty <= 40.0):
            ok = False
            break
    worst = 0.0
    img = np.zeros((1, 3, 64, 64), dtype=np.float32)
    for trial in range(50):
        kps = [(float(x), float(y), 2)
               for x, y in rng.uniform(0, 63, size=(4, 2))]
        anns = [PersonAnnotation(kps, area=30.0)]
        seed = 1000 + trial
        _, out = augment_sample(img, anns, np.random.default_rng(seed), cfg)
        theta, scale, tx, ty = sample_affine_params(np.random.default_rng(seed), cfg)
        t = np.deg2rad(theta)
        c = 63 / 2.0
        for kp, kp2 in zip(kps, out[0].keypoints):
            ex = np.cos(t) * scale * (kp[0] - c) - np.sin(t) * scale * (kp[1] - c) + c + tx
            ey = np.sin(t) * scale * (kp[0] - c) + np.cos(t) * scale * (kp[1] - c) + c + ty
            worst = max(worst, abs(kp2[0] - ex), abs(kp2[1] - ey))
    ok &= worst <= 1e-6
    report(9, "10^5 augmentation draws in range; keypoint warp matches oracle",
           ok, f"worst keypoint deviation {worst:.2e}")


def _overfit_dataset(seed=123, n_images=8):
    rng = np.random.default_rng(seed)

    def draw_disk(img, ch, cx, cy, radius, value=1.0):
        ys, xs = np.ogrid[:64, :64]
        m = (xs - cx) ** 2 + (ys - cy) ** 2 <= radius ** 2
        img[0, ch][m] = value

    samples = []
    slots = [(16, 16), (48, 48), (16, 48), (48, 16)]
    for _ in range(n_images):
        img = np.zeros((1, 3, 64, 64), dtype=np.float32)
        anns = []
        for p in rng.permutation(4)[:2]:
            cx = slots[p][0] + float(rng.uniform(-4, 4))
            cy = slots[p][1] + float(rng.uniform(-4, 4))
            j0 = (cx - 8.0, cy - 6.0)
            j1 = (cx + 8.0, cy + 6.0)
            draw_disk(img, 0, j0[0], j0[1], 5)
            draw_disk(img, 2, j1[0], j1[1], 5)
            draw_disk(img, 1, cx, cy, 3, 0.7)
            w = j1[0] - j0[0] + 10.0
            h = j1[1] - j0[1] + 10.0
            anns.append(PersonAnnotation(
                [(j0[0], j0[1], 2), (j1[0], j1[1], 2)],
                area=float(w * h), bbox=(j0[0] - 5, j0[1] - 5, w, h)))
        samples.append((img, anns))
    return samples


OVERFIT_PYR = PyramidConfig(widths=(4, 8, 16, 32), stem_width=4, num_blocks=2)
OVERFIT_WF = WaterfallConfig(level_widths=(4, 8, 16, 32), low_level_width=4,
                             branch_width=12, out_width=32, keypoints=2,
                             group_width=4)
OVERFIT_TRAIN = TrainConfig(epochs=200, seed=0, rotation_deg=0.0,
                            scale_range=(1.0, 1.0), translate_px=0.0)


def test_10_toy_overfit():
    start = time.monotonic()
    samples = _overfit_dataset()
    weights = init_model_weights(OVERFIT_PYR, OVERFIT_WF, seed=1)
    weights, _, log = train_loop(samples, weights, OVERFIT_PYR, OVERFIT_WF,
                                 OVERFIT_TRAIN)
    first = float(log[0].split("\t")[4])
    last = float(log[-1].split("\t")[4])

    params = OksParams.uniform(2, 0.2)
    dcfg = DecodeConfig(falloffs=params.falloffs)
    preds, gts = {}, {}
    for i, (img, anns) in enumerate(samples):
        maps, _ = model_forward(img, weights, OVERFIT_PYR, OVERFIT_WF)
        poses = decode_poses(maps, dcfg)
        preds[i] = [PoseInstance([(x * 4.0, y * 4.0, s) for x, y, s in p.keypoints],
                                 p.score) for p in poses]
        gts[i] = anns
    res = evaluate(preds, gts, params, thresholds=(0.75,))
    elapsed = time.monotonic() - start
    ok = last <= first / 100.0 and res.ap == 1.0 and elapsed < 600.0
    report(10, "toy overfit: loss falls 100x and training-set AP@0.75 = 1.0",
           ok, f"loss {first:.4f}->{last:.5f} ({first / max(last, 1e-12):.0f}x), "
               f"AP {res.ap:.3f}, {elapsed:.0f}s")


def test_11_training_determinism():
    samples = _overfit_dataset(n_images=2)
    cfg = TrainConfig(epochs=3, seed=17)
    blobs = []
    for _ in range(2):
        weights = init_model_weights(OVERFIT_PYR, OVERFIT_WF, seed=2)
        w2, state, _ = train_loop(samples, weights, OVERFIT_PYR, OVERFIT_WF, cfg)
        blobs.append(dataio.save_checkpoint(w2, state, cfg.epochs, "acceptance"))
    report(11, "identical seed/config/data give bitwise-identical checkpoints",
           blobs[0] == blobs[1], f"{len(blobs[0])} bytes each")


def test_12_format_round_trips():
    rng = np.random.default_rng(1212)
    ok = True

    t = rng.standard_normal((2, 3, 5, 4)).astype(np.float32)
    blob = dataio.write_tensor(t)
    back, _ = dataio.read_tensor(blob)
    ok &= dataio.write_tensor(back) == blob

    weights = {"layer.w": rng.standard_normal((2, 2, 3, 3)).astype(np.float32),
               "layer.b": rng.standard_normal(2).astype(np.float32)}
    optim = {"step": 3,
             "m": {k: (v * 0.1).astype(np.float32) for k, v in weights.items()},
             "v": {k: (v * v).astype(np.float32) for k, v in weights.items()}}
    ck = dataio.save_checkpoint(weights, optim, 9, "fingerprint")
    w2, o2, ep, fp = dataio.load_checkpoint(ck)
    ok &= dataio.save_checkpoint(w2, o2, ep, fp) == ck

    ds = dataio.Dataset(
        images=[dataio.ImageRecord(1, "x.ppm", 64, 64, crowd_index=0.2)],
        annotations={1: [PersonAnnotation(
            [(3, 4, 2), (5, 6, 1)], area=30.0,
            bbox=(1, 2, 10, 12), crowd_index=0.2)]},
        keypoint_names=["a", "b"], ann_ids={1: [7]})
    text = dataio.serialize_annotations(ds)
    ok &= dataio.serialize_annotations(dataio.parse_annotations(text)) == text

    results = {4: [PoseInstance([(1.5, 2.5, 0.75), (3.0, 4.0, 0.5)], 0.66)]}
    rtext = dataio.write_results(results)
    ok &= dataio.write_results(dataio.parse_results(rtext, 2)) == rtext

    report(12, "tensor/checkpoint/annotation/results round trips are bitwise",
           ok)
