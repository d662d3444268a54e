import numpy as np
import pytest

from waterfallpose import tensor as T
from waterfallpose import waterfall as W
from waterfallpose.backbone import FeaturePyramid


def make_pyramid(rng, widths=(4, 8, 16, 32), low=4, h=8, w=8, dtype=np.float32):
    levels = [rng.standard_normal((1, c, h >> lv, w >> lv)).astype(dtype)
              for lv, c in enumerate(widths)]
    return FeaturePyramid(levels, rng.standard_normal((1, low, h, w)).astype(dtype))


def toy_cfg(**over):
    base = dict(level_widths=(4, 8, 16, 32), low_level_width=4, branch_width=8,
                out_width=16, keypoints=2, group_width=3)
    base.update(over)
    return W.WaterfallConfig(**base)


class TestFusePyramid:
    def test_paper_widths_480(self, rng):
        p = make_pyramid(rng, widths=(32, 64, 128, 256), low=32, h=8, w=8)
        g0, _ = W.fuse_pyramid(p)
        assert g0.shape == (1, 480, 8, 8)

    def test_toy_widths_60(self, rng):
        g0, _ = W.fuse_pyramid(make_pyramid(rng))
        assert g0.shape[1] == 60

    def test_degenerate_single_level(self, rng):
        p = make_pyramid(rng, widths=(4, 0, 0, 0))
        g0, _ = W.fuse_pyramid(p)
        np.testing.assert_array_equal(g0, p.levels[0])

    def test_matches_resize_concat(self, rng):
        p = make_pyramid(rng)
        g0, _ = W.fuse_pyramid(p)
        ref = T.concat_channels([p.levels[0]] + [
            T.bilinear_resize(f, 8, 8) for f in p.levels[1:]])
        np.testing.assert_array_equal(g0, ref)

    def test_backward(self, rng):
        p = make_pyramid(rng, widths=(2, 2, 2, 2), low=2, dtype=np.float64)
        g0, tape = W.fuse_pyramid(p)
        gy = rng.standard_normal(g0.shape)
        _, grads = tape.backward([(g0, gy)], wrt=p.levels)
        for lv in range(4):
            def f(v, lv=lv):
                q = FeaturePyramid(
                    [v if i == lv else p.levels[i] for i in range(4)], p.low_level)
                return float((W.fuse_pyramid(q)[0] * gy).sum())
            num = T.numeric_gradient(f, p.levels[lv])
            assert T.relative_error(grads[lv], num) <= 1e-6


def straight_line_waterfall(g0, wts, cfg):
    # independently coded composition of the published dataflow
    d1, d2, d3, d4 = cfg.dilations
    g1 = T.relu(T.conv2d(g0, wts["wf.branch0.w"], wts["wf.branch0.b"],
                         T.ConvSpec(3, 3, pad_h=d1, pad_w=d1, dilation=d1)))
    g2 = T.relu(T.conv2d(g1, wts["wf.branch1.w"], wts["wf.branch1.b"],
                         T.ConvSpec(3, 3, pad_h=d2, pad_w=d2, dilation=d2)))
    g3 = T.relu(T.conv2d(g2, wts["wf.branch2.w"], wts["wf.branch2.b"],
                         T.ConvSpec(3, 3, pad_h=d3, pad_w=d3, dilation=d3)))
    g4 = T.relu(T.conv2d(g3, wts["wf.branch3.w"], wts["wf.branch3.b"],
                         T.ConvSpec(3, 3, pad_h=d4, pad_w=d4, dilation=d4)))
    pool = T.conv2d(T.global_avg_pool(g0), wts["wf.pool.w"], wts["wf.pool.b"], W.S1)
    pool = T.bilinear_resize(pool, g0.shape[2], g0.shape[3])
    cat = T.concat_channels([g1, g2, g3, g4, pool])
    return T.conv2d(cat, wts["wf.out.w"], wts["wf.out.b"], W.S1)


class TestWaterfall:
    def test_output_width_is_wf(self, rng):
        for b in (4, 8):
            cfg = toy_cfg(branch_width=b, out_width=24)
            wts = W.init_waterfall_weights(cfg, rng)
            g0 = rng.standard_normal((1, 60, 8, 8)).astype(np.float32)
            out, _ = W.waterfall_forward(g0, wts, cfg)
            assert out.shape == (1, 24, 8, 8)

    def test_zero_weights_zero_output(self, rng):
        cfg = toy_cfg()
        wts = {k: np.zeros_like(v) for k, v in W.init_waterfall_weights(cfg, rng).items()}
        g0 = rng.standard_normal((1, 60, 8, 8)).astype(np.float32)
        out, _ = W.waterfall_forward(g0, wts, cfg)
        assert not out.any()

    def test_matches_straight_line_oracle(self, rng):
        cfg = toy_cfg()
        wts = W.init_waterfall_weights(cfg, rng, offset_init="random")
        g0 = rng.standard_normal((1, 60, 8, 8)).astype(np.float32)
        out, _ = W.waterfall_forward(g0, wts, cfg)
        assert T.relative_error(out, straight_line_waterfall(g0, wts, cfg)) <= 1e-6

    def test_dilation_order_matters(self, rng):
        g0 = rng.standard_normal((1, 60, 8, 8)).astype(np.float32)
        cfg_a = toy_cfg(dilations=(1, 6, 12, 18))
        cfg_b = toy_cfg(dilations=(18, 12, 6, 1))
        wts = W.init_waterfall_weights(cfg_a, np.random.default_rng(7))
        out_a, _ = W.waterfall_forward(g0, wts, cfg_a)
        out_b, _ = W.waterfall_forward(g0, wts, cfg_b)
        assert T.relative_error(out_a, out_b) > 1e-3

    def test_width_mismatch_rejected(self, rng):
        cfg = toy_cfg()
        wts = W.init_waterfall_weights(cfg, rng)
        with pytest.raises(T.ShapeError, match="channels"):
            W.waterfall_forward(np.zeros((1, 59, 8, 8), dtype=np.float32), wts, cfg)


class TestFuseLowLevel:
    def test_paper_reduction_480_to_120(self, rng):
        cfg = W.WaterfallConfig()
        wts = W.init_waterfall_weights(cfg, rng)
        low = rng.standard_normal((1, 32, 4, 4)).astype(np.float32)
        f_wf = rng.standard_normal((1, 480, 4, 4)).astype(np.float32)
        out, _ = W.fuse_low_level(low, f_wf, wts, cfg)
        assert out.shape == (1, 120, 4, 4)

    def test_zero_projection_isolates_waterfall_path(self, rng):
        cfg = toy_cfg()
        wts = W.init_waterfall_weights(cfg, rng)
        wts["llf.proj.w"] = np.zeros_like(wts["llf.proj.w"])
        wts["llf.proj.b"] = np.zeros_like(wts["llf.proj.b"])
        f_wf = rng.standard_normal((1, 16, 8, 8)).astype(np.float32)
        low_a = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
        low_b = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
        out_a, _ = W.fuse_low_level(low_a, f_wf, wts, cfg)
        out_b, _ = W.fuse_low_level(low_b, f_wf, wts, cfg)
        np.testing.assert_array_equal(out_a, out_b)

    def test_matches_straight_line_oracle(self, rng):
        cfg = toy_cfg()
        wts = W.init_waterfall_weights(cfg, rng)
        low = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
        f_wf = rng.standard_normal((1, 16, 8, 8)).astype(np.float32)
        out, _ = W.fuse_low_level(low, f_wf, wts, cfg)
        proj = T.conv2d(low, wts["llf.proj.w"], wts["llf.proj.b"], W.S1)
        mid = T.conv2d(proj + f_wf, wts["llf.mid.w"], wts["llf.mid.b"], W.S1)
        ref = T.conv2d(mid, wts["llf.out.w"], wts["llf.out.b"], W.S1)
        assert T.relative_error(out, ref) <= 1e-6

    def test_extent_mismatch_rejected(self, rng):
        cfg = toy_cfg()
        wts = W.init_waterfall_weights(cfg, rng)
        with pytest.raises(T.ShapeError, match="extents"):
            W.fuse_low_level(np.zeros((1, 4, 8, 8), dtype=np.float32),
                             np.zeros((1, 16, 4, 4), dtype=np.float32), wts, cfg)


class TestAdaptiveConv:
    def test_canonical_offsets_degenerate_to_conv(self, rng):
        for _ in range(6):
            cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            h, w = int(rng.integers(3, 8)), int(rng.integers(3, 8))
            x = rng.standard_normal((1, cin, h, w)).astype(np.float32)
            w9 = rng.standard_normal((cout, cin, 3, 3)).astype(np.float32)
            off = W.canonical_offsets(1, h, w)
            y, _ = W.adaptive_conv(x, w9, off)
            ref = T.conv2d(x, w9, np.zeros(cout, dtype=np.float32),
                           T.ConvSpec(3, 3, pad_h=1, pad_w=1))
            assert T.relative_error(y, ref) <= 1e-6

    def test_integer_shift_equivalence(self, rng):
        # shifting every tap one column right equals convolving the
        # column-shifted input
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        w9 = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        off = W.canonical_offsets(1, 6, 6)
        off[:, 1::2] += 1.0
        y, _ = W.adaptive_conv(x, w9, off)
        x_shift = np.zeros_like(x)
        x_shift[:, :, :, :-1] = x[:, :, :, 1:]
        ref = T.conv2d(x_shift, w9, np.zeros(3, dtype=np.float32),
                       T.ConvSpec(3, 3, pad_h=1, pad_w=1))
        # at output column 0 the shifted input has lost x[..., 0], which the
        # displaced taps can still reach; equivalence holds from column 1 on
        assert T.relative_error(y[:, :, :, 1:], ref[:, :, :, 1:]) <= 1e-6
        assert T.relative_error(y, ref) > 1e-3

    def test_gradients_match_numeric(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        w9 = rng.standard_normal((2, 2, 3, 3))
        off = W.canonical_offsets(1, 5, 5, dtype=np.float64)
        off += rng.uniform(0.1, 0.4, size=off.shape)  # keep taps off the lattice
        gy = rng.standard_normal((1, 2, 5, 5))
        y, cache = W.adaptive_conv(x, w9, off)
        gx, gw9, goff = W.adaptive_conv_backward(cache, gy)
        num = T.numeric_gradient(lambda v: float((W.adaptive_conv(v, w9, off)[0] * gy).sum()), x)
        assert T.relative_error(gx, num) <= 1e-6
        num = T.numeric_gradient(
            lambda v: float((W.adaptive_conv(x, v.reshape(w9.shape), off)[0] * gy).sum()),
            w9.reshape(1, 2, 6, 3)).reshape(w9.shape)
        assert T.relative_error(gw9, num) <= 1e-6
        num = T.numeric_gradient(lambda v: float((W.adaptive_conv(x, w9, v)[0] * gy).sum()), off)
        assert T.relative_error(goff, num) <= 1e-6

    def test_bad_offset_channels_rejected(self, rng):
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        w9 = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        with pytest.raises(T.ShapeError, match="18"):
            W.adaptive_conv(x, w9, np.zeros((1, 12, 4, 4), dtype=np.float32))


class TestPredictOffsets:
    def test_canonical_bias_gives_canonical_grid(self, rng):
        cfg = toy_cfg()
        wts = W.init_waterfall_weights(cfg, rng, offset_init="canonical")
        feat = rng.standard_normal((1, cfg.head_width, 6, 6)).astype(np.float32)
        off, _ = W.predict_offsets(feat, wts, "head.kp.taps")
        np.testing.assert_allclose(off, W.canonical_offsets(1, 6, 6), atol=1e-7)

    def test_scale_two_spans_5x5(self):
        # A = 2I doubles every tap displacement: probe with one-hot input
        params = np.zeros((1, 6, 7, 7), dtype=np.float64)
        params[:, 0] = 2.0
        params[:, 3] = 2.0
        off = W.affine_to_offsets(params)
        x = np.zeros((1, 1, 7, 7))
        w9 = np.ones((1, 1, 3, 3))
        hits = []
        for r in range(7):
            for c in range(7):
                x[:] = 0.0
                x[0, 0, r, c] = 1.0
                y, _ = W.adaptive_conv(x, w9, off)
                if y[0, 0, 3, 3] != 0.0:
                    hits.append((r, c))
        rows = [r for r, _ in hits]
        cols = [c for _, c in hits]
        assert max(rows) - min(rows) == 4 and max(cols) - min(cols) == 4
        assert set(hits) == {(3 + 2 * dr, 3 + 2 * dc)
                             for dr in (-1, 0, 1) for dc in (-1, 0, 1)}

    def test_collapse_to_center_acts_as_1x1(self, rng):
        # A = 0, t = 0: all nine taps read the center, so the layer equals a
        # 1x1 convolution with the summed tap weights
        x = rng.standard_normal((1, 3, 5, 5)).astype(np.float32)
        w9 = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        off = np.zeros((1, 18, 5, 5), dtype=np.float32)
        y, _ = W.adaptive_conv(x, w9, off)
        w1 = w9.sum(axis=(2, 3))[:, :, None, None]
        ref = T.conv2d(x, w1, np.zeros(2, dtype=np.float32), T.ConvSpec(1, 1))
        assert T.relative_error(y, ref) <= 1e-6

    def test_backward(self, rng):
        cfg = toy_cfg()
        wts = {k: v.astype(np.float64) for k, v in
               W.init_waterfall_weights(cfg, rng, offset_init="random").items()}
        feat = rng.standard_normal((1, cfg.head_width, 4, 4))
        gy = rng.standard_normal((1, 18, 4, 4))
        off, tape = W.predict_offsets(feat, wts, "head.kp.taps")
        grads, (gx,) = tape.backward([(off, gy)], wrt=[feat])
        num = T.numeric_gradient(
            lambda v: float((W.predict_offsets(v, wts, "head.kp.taps")[0] * gy).sum()), feat)
        assert T.relative_error(gx, num) <= 1e-6
        name = "head.kp.taps.w"
        def f(v):
            trial = dict(wts)
            trial[name] = v.reshape(wts[name].shape)
            return float((W.predict_offsets(feat, trial, "head.kp.taps")[0] * gy).sum())
        num = T.numeric_gradient(f, wts[name].reshape(1, 1, 6, -1))
        assert T.relative_error(grads[name], num.reshape(wts[name].shape)) <= 1e-6


class TestHeads:
    def test_channel_counts_k17(self, rng):
        cfg = W.WaterfallConfig(level_widths=(8, 8, 8, 8), low_level_width=4,
                                branch_width=4, out_width=8, final_width=20,
                                keypoints=17, group_width=2)
        wts = W.init_waterfall_weights(cfg, rng)
        f = rng.standard_normal((1, 20, 4, 4)).astype(np.float32)
        maps, _ = W.heads_forward(f, wts, cfg)
        assert maps.heatmaps.shape == (1, 18, 4, 4)
        assert maps.offsets.shape == (1, 34, 4, 4)

    def test_minimal_config(self, rng):
        cfg = toy_cfg(keypoints=1, group_width=1)
        wts = W.init_waterfall_weights(cfg, rng)
        f = rng.standard_normal((2, cfg.head_width, 4, 4)).astype(np.float32)
        maps, _ = W.heads_forward(f, wts, cfg)
        assert maps.heatmaps.shape == (2, 2, 4, 4)
        assert maps.offsets.shape == (2, 2, 4, 4)

    def test_heatmaps_in_unit_interval(self, rng):
        cfg = toy_cfg()
        wts = W.init_waterfall_weights(cfg, rng, offset_init="random")
        f = rng.standard_normal((1, cfg.head_width, 6, 6)).astype(np.float32)
        maps, _ = W.heads_forward(f, wts, cfg)
        assert np.all(maps.heatmaps > 0) and np.all(maps.heatmaps < 1)
        assert np.all(np.isfinite(maps.offsets))

    def test_too_few_channels_rejected(self):
        with pytest.raises(ValueError, match="cannot support"):
            toy_cfg(keypoints=40)


class TestFullModule:
    def test_shapes_at_paper_widths(self, rng):
        from waterfallpose.backbone import PyramidConfig, init_backbone_weights, \
            backbone_forward
        pyr = PyramidConfig()
        cfg = W.WaterfallConfig()
        bw = init_backbone_weights(pyr, rng)
        ww = W.init_waterfall_weights(cfg, rng)
        img = rng.standard_normal((1, 3, 256, 256)).astype(np.float32)
        p, _ = backbone_forward(img, bw, pyr)
        maps, _ = W.waterfall_module_forward(p, ww, cfg)
        assert maps.heatmaps.shape == (1, 18, 64, 64)
        assert maps.offsets.shape == (1, 34, 64, 64)

    def test_zero_weights_center_half(self, rng):
        cfg = toy_cfg()
        wts = {k: np.zeros_like(v) for k, v in W.init_waterfall_weights(cfg, rng).items()}
        p = make_pyramid(rng)
        maps, _ = W.waterfall_module_forward(p, wts, cfg)
        np.testing.assert_allclose(maps.heatmaps, 0.5)

    def test_channel_bookkeeping_fuzzed(self, rng):
        for _ in range(6):
            widths = tuple(int(rng.integers(1, 7)) for _ in range(4))
            k = int(rng.integers(1, 4))
            cfg = W.WaterfallConfig(
                level_widths=widths, low_level_width=int(rng.integers(1, 5)),
                branch_width=int(rng.integers(1, 6)),
                out_width=int(rng.integers(1, 9)),
                final_width=int(rng.integers(k, k + 6)),
                keypoints=k, group_width=int(rng.integers(1, 4)))
            wts = W.init_waterfall_weights(cfg, rng)
            p = make_pyramid(rng, widths=widths, low=cfg.low_level_width)
            g0, _ = W.fuse_pyramid(p)
            assert g0.shape[1] == sum(widths) == cfg.fused_width
            f_wf, _ = W.waterfall_forward(g0, wts, cfg)
            assert f_wf.shape[1] == cfg.waterfall_width
            f_maps, _ = W.fuse_low_level(p.low_level, f_wf, wts, cfg)
            assert f_maps.shape[1] == cfg.head_width
            maps, _ = W.heads_forward(f_maps, wts, cfg)
            assert maps.heatmaps.shape[1] == k + 1
            assert maps.offsets.shape[1] == 2 * k

    def test_full_module_gradient(self, rng):
        cfg = toy_cfg(branch_width=3, out_width=4, final_width=3,
                      keypoints=2, group_width=2)
        wts = {k: v.astype(np.float64) for k, v in
               W.init_waterfall_weights(cfg, rng, offset_init="random").items()}
        for name in wts:  # keep ReLU pre-activations off the exact kink
            if name.endswith(".b") and "taps" not in name:
                wts[name] = rng.standard_normal(wts[name].shape) * 0.1
        p = make_pyramid(rng, dtype=np.float64)
        gh = rng.standard_normal((1, 3, 8, 8))
        go = rng.standard_normal((1, 4, 8, 8))

        def loss(pyr, wset):
            maps, _ = W.waterfall_module_forward(pyr, wset, cfg)
            return float((maps.heatmaps * gh).sum() + (maps.offsets * go).sum())

        maps, tape = W.waterfall_module_forward(p, wts, cfg)
        grads, (*g_levels, g_low) = tape.backward(
            [(maps.heatmaps, gh), (maps.offsets, go)], wrt=[*p.levels, p.low_level])

        num = T.numeric_gradient(
            lambda v: loss(FeaturePyramid([v] + p.levels[1:], p.low_level), wts),
            p.levels[0])
        assert T.relative_error(g_levels[0], num) <= 1e-6
        num = T.numeric_gradient(
            lambda v: loss(FeaturePyramid(p.levels, v), wts), p.low_level)
        assert T.relative_error(g_low, num) <= 1e-6

        for name in ("wf.branch1.w", "wf.pool.w", "wf.out.b", "llf.proj.w",
                     "head.kp.adapt.w", "head.kp.taps.b", "head.off.g1.adapt.w",
                     "head.off.expand.w", "head.off.g0.out.b"):
            def f(v, name=name):
                trial = dict(wts)
                trial[name] = v.reshape(wts[name].shape)
                return loss(p, trial)
            num = T.numeric_gradient(f, wts[name].reshape(1, 1, 1, -1))
            assert T.relative_error(grads[name], num.reshape(wts[name].shape)) <= 1e-6, name
