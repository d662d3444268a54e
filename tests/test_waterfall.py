import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from waterfallpose import tensor as T
from waterfallpose import waterfall as W
from waterfallpose.backbone import FeaturePyramid, PyramidConfig, backbone_forward
from waterfallpose.checks import layered_head_projection, layered_pyramid_branch, \
    operand_errors
from waterfallpose.model import draw_weights, init_model_weights, weight_shapes

TOY_PYR = PyramidConfig(widths=(4, 8, 16, 32), stem_width=4)


def make_pyramid(rng, widths=(4, 8, 16, 32), low=4, h=8, w=8, dtype=np.float32, n=1):
    levels = [rng.standard_normal((n, c, h >> lv, w >> lv)).astype(dtype)
              for lv, c in enumerate(widths)]
    return FeaturePyramid(levels, rng.standard_normal((n, low, h, w)).astype(dtype))


def toy_cfg(**over):
    base = dict(branch_width=8, out_width=16, final_width=15, keypoints=2, group_width=3)
    base.update(over)
    return W.WaterfallConfig(**base)


def head_weights(cfg, rng, pyr=TOY_PYR, **kwargs):
    # the head's part of the shape table, drawn from rng
    shapes = weight_shapes(pyr, cfg)
    return draw_weights({k: s for k, s in shapes.items() if not k.startswith("backbone.")},
                        rng, **kwargs)


def branch_weights(cin, rng, cout=3, dtype=np.float32):
    # wf.branch0's weight and a nonzero bias
    return {"wf.branch0.w": rng.standard_normal((cout, cin, 3, 3)).astype(dtype),
            "wf.branch0.b": rng.standard_normal(cout).astype(dtype)}


def pyramid_branch(p, wts, dilation):
    return W.pyramid_branch(p.levels, wts["wf.branch0.w"], wts["wf.branch0.b"], dilation)[0]


class TestFusePyramid:
    # the fused pyramid g0 is never formed: wf.branch0 reads the levels through
    # pyramid_branch and the pooled branch pools each level, and
    # checks.layered_pyramid_branch forms g0 as their oracle

    def test_paper_widths_480(self, rng):
        wts = head_weights(W.WaterfallConfig(), rng, PyramidConfig())
        assert wts["wf.branch0.w"].shape == (128, 480, 3, 3)
        p = make_pyramid(rng, widths=(32, 64, 128, 256), low=32, h=8, w=8)
        ref, pooled = layered_pyramid_branch(p.levels, wts, 1)
        assert pooled.shape == (1, 480, 1, 1)
        assert T.relative_error(pyramid_branch(p, wts, 1), ref) <= 1e-5

    def test_toy_widths_60(self, rng):
        cfg = toy_cfg()
        wts = head_weights(cfg, rng)
        assert wts["wf.branch0.w"].shape[1] == 60
        branches, pooled = W.waterfall_forward(make_pyramid(rng), wts, cfg, T.Tape())
        assert [x.shape for x in branches] == [(1, 8, 8, 8)] * 4
        assert pooled.shape == (1, 8, 1, 1)

    def test_degenerate_single_level(self, rng):
        # with levels 1..3 empty the branch is level 0's conv, bit for bit
        p = make_pyramid(rng, widths=(4, 0, 0, 0))
        wts = branch_weights(4, rng)
        spec = T.ConvSpec(3, 3, pad_h=2, pad_w=2, dilation=2)
        np.testing.assert_array_equal(
            pyramid_branch(p, wts, 2),
            T.conv2d(p.levels[0], wts["wf.branch0.w"], wts["wf.branch0.b"], spec))

    def test_matches_resize_concat(self, rng):
        p = make_pyramid(rng, h=8, w=16)
        wts = branch_weights(60, rng)
        pooled = T.concat_channels([T.global_avg_pool(f) for f in p.levels])
        for d in (1, 2, 6, 12, 16):
            ref, ref_pooled = layered_pyramid_branch(p.levels, wts, d)
            assert T.relative_error(pyramid_branch(p, wts, d), ref) <= 1e-6, d
            assert T.relative_error(pooled, ref_pooled) <= 1e-6

    def test_backward(self, rng):
        # against central differences of the layered oracle
        p = make_pyramid(rng, widths=(2, 2, 2, 2), low=2, dtype=np.float64)
        wts = branch_weights(8, rng, dtype=np.float64)
        for d in (1, 6):
            out, cache = W.pyramid_branch(p.levels, wts["wf.branch0.w"], wts["wf.branch0.b"], d)
            gy = rng.standard_normal(out.shape)
            grads = W.pyramid_branch_backward(cache, gy)

            def loss(*ops):
                ref, _ = layered_pyramid_branch(
                    ops[:4], {"wf.branch0.w": ops[4], "wf.branch0.b": ops[5]}, d)
                return float((ref * gy).sum())
            errors = operand_errors(
                loss, [*p.levels, wts["wf.branch0.w"], wts["wf.branch0.b"]], grads)
            names = ("level0", "level1", "level2", "level3", "w", "b")
            assert np.max(errors) <= 1e-6, (d, names[np.argmax(errors)])

    @settings(max_examples=150)
    @given(widths=st.tuples(*[st.integers(0, 3)] * 4), n=st.integers(1, 2),
           h=st.integers(1, 4), w=st.integers(1, 4), dilation=st.integers(1, 40),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(widths=(0, 2, 0, 1), n=2, h=1, w=4, dilation=8, seed=0)
    @example(widths=(1, 1, 1, 1), n=1, h=2, w=1, dilation=16, seed=1)
    def test_kernel_and_pool_equal_layered_in_float64(self, widths, n, h, w, dilation,
                                                      seed):
        # base extents 8 to 32, a multiple of 8 as the backbone gives them;
        # dilations from one pixel to past the map
        rng = np.random.default_rng(seed)
        p = make_pyramid(rng, widths=widths, h=8 * h, w=8 * w, dtype=np.float64, n=n)
        wts = branch_weights(sum(widths), rng, dtype=np.float64)
        ref, ref_pooled = layered_pyramid_branch(p.levels, wts, dilation)
        assert T.relative_error(pyramid_branch(p, wts, dilation), ref) <= 1e-12
        pooled = T.concat_channels([T.global_avg_pool(f) for f in p.levels])
        assert T.relative_error(pooled, ref_pooled) <= 1e-12


def random_biases(wts, rng):
    # init zeroes every bias; stage 3's constant term needs them nonzero
    for name in W.HEAD_PROJECTION_WEIGHTS[1::2]:
        wts[name] = rng.standard_normal(wts[name].shape).astype(wts[name].dtype)
    return wts


def straight_line_waterfall(p, wts, cfg):
    # independently coded composition of the published dataflow, from the
    # pyramid up to the four branches and the 1x1 pooled branch that stage 3
    # reads; each level is resized as Rh x Rw^T
    h, w = p.levels[0].shape[2:]

    def resized(f):
        rh = T.resize_matrix(f.shape[2], h, 0, f.dtype)
        rw = T.resize_matrix(f.shape[3], w, 0, f.dtype)
        return rh @ f @ rw.T

    g0 = np.concatenate([p.levels[0]] + [resized(f) for f in p.levels[1:]], axis=1)
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
    return [g1, g2, g3, g4], pool


def random_stage2(rng, cfg, n=1, h=8, w=8, dtype=np.float32):
    # four branch maps and a pooled branch as stage 2 hands them to stage 3
    branches = [rng.standard_normal((n, cfg.branch_width, h, w)).astype(dtype)
                for _ in range(4)]
    return branches, rng.standard_normal((n, cfg.branch_width, 1, 1)).astype(dtype)


class TestWaterfall:
    def test_output_width_is_wf(self, rng):
        # stage 2 hands four branches and the pooled branch to stage 3, whose
        # first layer, wf.out, reads their five-branch concat and gives the
        # waterfall width
        for b in (4, 8):
            cfg = toy_cfg(branch_width=b, out_width=24)
            wts = head_weights(cfg, rng)
            branches, pooled = W.waterfall_forward(make_pyramid(rng), wts, cfg, T.Tape())
            assert [x.shape for x in branches] == [(1, b, 8, 8)] * 4
            assert pooled.shape == (1, b, 1, 1)
            assert wts["wf.out.w"].shape == (24, 5 * b, 1, 1)
            assert wts["llf.proj.w"].shape == (24, 4, 1, 1)
            assert wts["llf.mid.w"].shape == (24, 24, 1, 1)
            low = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
            assert layered_head_projection(branches, pooled, low, wts).shape == (1, 15, 8, 8)
            out = W.fuse_low_level(low, branches, pooled, wts, cfg, T.Tape())
            assert out.shape == (1, 15, 8, 8)

    def test_zero_weights_zero_output(self, rng):
        cfg = toy_cfg()
        wts = {k: np.zeros_like(v) for k, v in head_weights(cfg, rng).items()}
        branches, pooled = W.waterfall_forward(make_pyramid(rng), wts, cfg, T.Tape())
        assert not any(x.any() for x in branches) and not pooled.any()

    def test_matches_straight_line_oracle(self, rng):
        for dilations in ((1, 6, 12, 18), (10 ** 9, 6, 12, 18)):
            cfg = toy_cfg(dilations=dilations)
            wts = random_biases(head_weights(cfg, rng, offset_init="random"), rng)
            p = make_pyramid(rng)
            branches, pooled = W.waterfall_forward(p, wts, cfg, T.Tape())
            ref, ref_pooled = straight_line_waterfall(p, wts, cfg)
            for x, r in zip(branches, ref):
                assert T.relative_error(x, r) <= 1e-6
            assert T.relative_error(pooled, ref_pooled) <= 1e-6
            out = W.fuse_low_level(p.low_level, branches, pooled, wts, cfg, T.Tape())
            assert T.relative_error(
                out, layered_head_projection(ref, ref_pooled, p.low_level, wts)) <= 1e-6

    def test_dilation_order_matters(self, rng):
        p = make_pyramid(rng)
        cfg_a = toy_cfg(dilations=(1, 6, 12, 18))
        cfg_b = toy_cfg(dilations=(18, 12, 6, 1))
        wts = head_weights(cfg_a, np.random.default_rng(7))
        out_a, _ = W.waterfall_forward(p, wts, cfg_a, T.Tape())
        out_b, _ = W.waterfall_forward(p, wts, cfg_b, T.Tape())
        assert T.relative_error(np.concatenate(out_a), np.concatenate(out_b)) > 1e-3

    def test_width_mismatch_rejected(self, rng):
        cfg = toy_cfg()
        wts = head_weights(cfg, rng)
        with pytest.raises(T.ShapeError, match="channels"):
            W.waterfall_forward(make_pyramid(rng, widths=(3, 8, 16, 32)), wts, cfg, T.Tape())

    def test_level_extents_rejected(self, rng):
        # the pooled branch pools each level, which equals pooling the fused
        # map only for levels at 1/2, 1/4 and 1/8 of level 0's extents
        cfg = toy_cfg()
        wts = head_weights(cfg, rng)
        for lv, shape in ((1, (1, 8, 4, 3)), (3, (1, 32, 2, 1)), (2, (2, 16, 2, 2))):
            p = make_pyramid(rng)
            p.levels[lv] = np.zeros(shape, dtype=np.float32)
            with pytest.raises(T.ShapeError, match=f"level {lv}"):
                W.waterfall_forward(p, wts, cfg, T.Tape())


class TestFuseLowLevel:
    def test_paper_reduction_480_to_120(self, rng):
        cfg = W.WaterfallConfig()
        wts = head_weights(cfg, rng, PyramidConfig())
        assert wts["wf.out.w"].shape == (480, 640, 1, 1)
        assert wts["llf.mid.w"].shape == (480, 480, 1, 1)
        assert wts["llf.out.w"].shape == (120, 480, 1, 1)
        low = rng.standard_normal((1, 32, 4, 4)).astype(np.float32)
        branches, pooled = random_stage2(rng, cfg, h=4, w=4)
        out = W.fuse_low_level(low, branches, pooled, wts, cfg, T.Tape())
        assert out.shape == (1, 120, 4, 4)

    def test_zero_projection_isolates_waterfall_path(self, rng):
        cfg = toy_cfg()
        wts = random_biases(head_weights(cfg, rng), rng)
        wts["llf.proj.w"] = np.zeros_like(wts["llf.proj.w"])
        wts["llf.proj.b"] = np.zeros_like(wts["llf.proj.b"])
        branches, pooled = random_stage2(rng, cfg)
        low_a = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
        low_b = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
        out_a = W.fuse_low_level(low_a, branches, pooled, wts, cfg, T.Tape())
        out_b = W.fuse_low_level(low_b, branches, pooled, wts, cfg, T.Tape())
        np.testing.assert_array_equal(out_a, out_b)

    def test_matches_straight_line_oracle(self, rng):
        cfg = toy_cfg()
        wts = random_biases(head_weights(cfg, rng), rng)
        low = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
        branches, pooled = random_stage2(rng, cfg)
        out = W.fuse_low_level(low, branches, pooled, wts, cfg, T.Tape())
        assert T.relative_error(out, layered_head_projection(branches, pooled, low, wts)) <= 1e-6

    @settings(max_examples=150)
    @given(branch=st.integers(1, 6), low=st.integers(1, 5), out_width=st.integers(1, 9),
           final_width=st.integers(1, 9), n=st.integers(1, 2), h=st.integers(1, 4),
           w=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    @example(branch=2, low=1, out_width=2, final_width=7, n=1, h=3, w=2, seed=0)
    def test_folded_equals_layered_in_float64(self, branch, low, out_width, final_width,
                                              n, h, w, seed):
        # widths on both sides of the head width, down to one low-level channel
        rng = np.random.default_rng(seed)
        cfg = W.WaterfallConfig(branch_width=branch, out_width=out_width,
                                final_width=final_width, keypoints=1, group_width=1)
        pyr = PyramidConfig(widths=(1, 1, 1, 1), stem_width=low)
        wts = random_biases(head_weights(cfg, rng, pyr, dtype=np.float64), rng)
        branches, pooled = random_stage2(rng, cfg, n, h, w, np.float64)
        low_level = rng.standard_normal((n, low, h, w))
        out = W.fuse_low_level(low_level, branches, pooled, wts, cfg, T.Tape())
        ref = layered_head_projection(branches, pooled, low_level, wts)
        assert T.relative_error(out, ref) <= 1e-12

    def test_mismatched_layer_shapes_rejected(self, rng):
        cfg = toy_cfg()
        branches = [np.zeros((1, 8, 8, 8), dtype=np.float32)] * 4
        pooled = np.zeros((1, 8, 1, 1), dtype=np.float32)
        low = np.zeros((1, 4, 8, 8), dtype=np.float32)
        for name, shape, message in (("wf.out.w", (16, 40, 3, 3), "wf.out must be a 1x1"),
                                     ("llf.mid.b", (15,), "llf.mid must be a 1x1"),
                                     ("llf.out.w", (15, 17, 1, 1), "over 16 channels"),
                                     ("llf.proj.w", (12, 4, 1, 1), "llf.proj gives 12")):
            wts = head_weights(cfg, rng)
            wts[name] = np.zeros(shape, dtype=np.float32)
            if name == "llf.proj.w":
                wts["llf.proj.b"] = np.zeros(12, dtype=np.float32)
            with pytest.raises(T.ShapeError, match=message):
                W.fuse_low_level(low, branches, pooled, wts, cfg, T.Tape())

    def test_extent_mismatch_rejected(self, rng):
        cfg = toy_cfg()
        wts = head_weights(cfg, rng)
        branches, pooled = random_stage2(rng, cfg, h=4, w=4)
        with pytest.raises(T.ShapeError, match="extents"):
            W.fuse_low_level(np.zeros((1, 4, 8, 8), dtype=np.float32), branches, pooled,
                             wts, cfg, T.Tape())
        with pytest.raises(T.ShapeError, match="1x1 pooled branch"):
            W.fuse_low_level(np.zeros((1, 4, 4, 4), dtype=np.float32), branches,
                             branches[0], wts, cfg, T.Tape())


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
        errors = operand_errors(lambda *args: float((W.adaptive_conv(*args)[0] * gy).sum()),
                                (x, w9, off), W.adaptive_conv_backward(cache, gy))
        assert np.max(errors) <= 1e-6, ("input", "weights", "offsets")[np.argmax(errors)]

    def test_far_offsets_read_zero_without_warnings(self, rng):
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        w9 = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        off = np.full((1, 18, 4, 4), 1e30, dtype=np.float32)
        off[:, 0::4] = -1e30
        gy = rng.standard_normal((1, 3, 4, 4)).astype(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, cache = W.adaptive_conv(x, w9, off)
            grads = W.adaptive_conv_backward(cache, gy)
        assert y.shape == (1, 3, 4, 4) and not y.any()
        assert not any(g.any() for g in grads)

    def test_bad_offset_channels_rejected(self, rng):
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        w9 = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        with pytest.raises(T.ShapeError, match="18"):
            W.adaptive_conv(x, w9, np.zeros((1, 12, 4, 4), dtype=np.float32))


class TestPredictOffsets:
    def test_canonical_bias_gives_canonical_grid(self, rng):
        cfg = toy_cfg()
        wts = head_weights(cfg, rng, offset_init="canonical")
        feat = rng.standard_normal((1, cfg.final_width, 6, 6)).astype(np.float32)
        off = W.predict_offsets(feat, wts, "head.kp.taps", T.Tape())
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
               head_weights(cfg, rng, offset_init="random").items()}
        feat = rng.standard_normal((1, cfg.final_width, 4, 4))
        gy = rng.standard_normal((1, 18, 4, 4))
        tape = T.Tape()
        off = W.predict_offsets(feat, wts, "head.kp.taps", tape)
        grads, (gx,) = tape.backward([(off, gy)], wrt=[feat])
        name = "head.kp.taps.w"

        def loss(v, w):
            return float((W.predict_offsets(v, {**wts, name: w}, "head.kp.taps", T.Tape())
                          * gy).sum())
        errors = operand_errors(loss, (feat, wts[name]), (gx, grads[name]))
        assert np.max(errors) <= 1e-6, ("input", name)[np.argmax(errors)]


class TestHeads:
    def test_channel_counts_k17(self, rng):
        cfg = W.WaterfallConfig(branch_width=4, out_width=8, final_width=20,
                                keypoints=17, group_width=2)
        wts = head_weights(cfg, rng, PyramidConfig(widths=(8, 8, 8, 8), stem_width=4))
        f = rng.standard_normal((1, 20, 4, 4)).astype(np.float32)
        maps = W.heads_forward(f, wts, cfg, T.Tape())
        assert maps.heatmaps.shape == (1, 18, 4, 4)
        assert maps.offsets.shape == (1, 34, 4, 4)

    def test_minimal_config(self, rng):
        cfg = toy_cfg(keypoints=1, group_width=1)
        wts = head_weights(cfg, rng)
        f = rng.standard_normal((2, cfg.final_width, 4, 4)).astype(np.float32)
        maps = W.heads_forward(f, wts, cfg, T.Tape())
        assert maps.heatmaps.shape == (2, 2, 4, 4)
        assert maps.offsets.shape == (2, 2, 4, 4)

    def test_heatmaps_in_unit_interval(self, rng):
        cfg = toy_cfg()
        wts = head_weights(cfg, rng, offset_init="random")
        f = rng.standard_normal((1, cfg.final_width, 6, 6)).astype(np.float32)
        maps = W.heads_forward(f, wts, cfg, T.Tape())
        assert np.all(maps.heatmaps > 0) and np.all(maps.heatmaps < 1)
        assert np.all(np.isfinite(maps.offsets))

    def test_too_few_channels_rejected(self):
        with pytest.raises(ValueError, match="cannot support"):
            toy_cfg(keypoints=40)


class TestFullModule:
    def test_shapes_at_paper_widths(self, rng):
        pyr = PyramidConfig()
        cfg = W.WaterfallConfig()
        wts = init_model_weights(pyr, cfg, seed=0)
        img = rng.standard_normal((1, 3, 256, 256)).astype(np.float32)
        tape = T.Tape()
        p = backbone_forward(img, wts, pyr, tape)
        maps = W.waterfall_module_forward(p, wts, cfg, tape)
        assert maps.heatmaps.shape == (1, 18, 64, 64)
        assert maps.offsets.shape == (1, 34, 64, 64)

    def test_zero_weights_center_half(self, rng):
        cfg = toy_cfg()
        wts = {k: np.zeros_like(v) for k, v in head_weights(cfg, rng).items()}
        p = make_pyramid(rng)
        maps = W.waterfall_module_forward(p, wts, cfg, T.Tape())
        np.testing.assert_allclose(maps.heatmaps, 0.5)

    def test_channel_bookkeeping_fuzzed(self, rng):
        for _ in range(6):
            widths = tuple(int(rng.integers(1, 7)) for _ in range(4))
            k = int(rng.integers(1, 4))
            pyr = PyramidConfig(widths=widths, stem_width=int(rng.integers(1, 5)))
            cfg = W.WaterfallConfig(
                branch_width=int(rng.integers(1, 6)),
                out_width=int(rng.integers(1, 9)),
                final_width=int(rng.integers(k, k + 6)),
                keypoints=k, group_width=int(rng.integers(1, 4)))
            wts = head_weights(cfg, rng, pyr)
            p = make_pyramid(rng, widths=widths, low=pyr.low_level_width)
            tape = T.Tape()
            assert sum(f.shape[1] for f in p.levels) == sum(widths) \
                == wts["wf.branch0.w"].shape[1]
            branches, pooled = W.waterfall_forward(p, wts, cfg, tape)
            widths = [x.shape[1] for x in (*branches, pooled)]
            assert widths == [cfg.branch_width] * 5
            assert wts["wf.out.w"].shape[:2] == (cfg.out_width, sum(widths))
            f_maps = W.fuse_low_level(p.low_level, branches, pooled, wts, cfg, tape)
            assert f_maps.shape[1] == cfg.final_width
            assert T.relative_error(
                f_maps, layered_head_projection(branches, pooled, p.low_level, wts)) <= 1e-6
            maps = W.heads_forward(f_maps, wts, cfg, tape)
            assert maps.heatmaps.shape[1] == k + 1
            assert maps.offsets.shape[1] == 2 * k

    def test_full_module_gradient(self, rng):
        cfg = toy_cfg(branch_width=3, out_width=4, final_width=3,
                      keypoints=2, group_width=2)
        wts = {k: v.astype(np.float64) for k, v in
               head_weights(cfg, rng, offset_init="random").items()}
        for name in wts:  # keep ReLU pre-activations off the exact kink
            if name.endswith(".b") and "taps" not in name:
                wts[name] = rng.standard_normal(wts[name].shape) * 0.1
        p = make_pyramid(rng, dtype=np.float64)
        gh = rng.standard_normal((1, 3, 8, 8))
        go = rng.standard_normal((1, 4, 8, 8))
        names = ("wf.branch0.b", "wf.branch1.w", "wf.pool.w", "wf.out.b", "llf.proj.w",
                 "head.kp.adapt.w", "head.kp.taps.b", "head.off.g1.adapt.w",
                 "head.off.expand.w", "head.off.g0.out.b")

        def loss(*ops):
            maps = W.waterfall_module_forward(FeaturePyramid(list(ops[:4]), ops[4]),
                                              {**wts, **dict(zip(names, ops[5:]))}, cfg,
                                              T.Tape())
            return float((maps.heatmaps * gh).sum() + (maps.offsets * go).sum())

        tape = T.Tape()
        maps = W.waterfall_module_forward(p, wts, cfg, tape)
        grads, (*g_levels, g_low) = tape.backward(
            [(maps.heatmaps, gh), (maps.offsets, go)], wrt=[*p.levels, p.low_level])
        errors = operand_errors(loss, [*p.levels, p.low_level, *(wts[n] for n in names)],
                                [*g_levels, g_low, *(grads[n] for n in names)])
        operands = ("level0", "level1", "level2", "level3", "low_level", *names)
        assert np.max(errors) <= 1e-6, operands[np.argmax(errors)]
