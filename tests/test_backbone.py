import numpy as np
import pytest

from waterfallpose import tensor as T
from waterfallpose.backbone import PyramidConfig, backbone_forward
from waterfallpose.model import draw_weights, weight_shapes
from waterfallpose.waterfall import WaterfallConfig


def backbone_weights(cfg, rng):
    # the backbone's part of the shape table, drawn from rng
    shapes = weight_shapes(cfg, WaterfallConfig())
    return draw_weights({k: s for k, s in shapes.items() if k.startswith("backbone.")}, rng)


def test_paper_width_shapes(rng):
    cfg = PyramidConfig()
    w = backbone_weights(cfg, rng)
    img = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
    p = backbone_forward(img, w, cfg, T.Tape())
    assert [f.shape for f in p.levels] == [
        (1, 32, 16, 16), (1, 64, 8, 8), (1, 128, 4, 4), (1, 256, 2, 2)]
    assert p.low_level.shape == (1, 32, 16, 16)


def test_toy_width_shapes(rng):
    cfg = PyramidConfig(widths=(4, 8, 16, 32), stem_width=4)
    w = backbone_weights(cfg, rng)
    img = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
    p = backbone_forward(img, w, cfg, T.Tape())
    assert [f.shape for f in p.levels] == [
        (1, 4, 8, 8), (1, 8, 4, 4), (1, 16, 2, 2), (1, 32, 1, 1)]


def test_zero_weights_zero_pyramid(rng):
    cfg = PyramidConfig(widths=(4, 8, 16, 32), stem_width=4)
    w = {k: np.zeros_like(v) for k, v in backbone_weights(cfg, rng).items()}
    img = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
    p = backbone_forward(img, w, cfg, T.Tape())
    for f in p.levels + [p.low_level]:
        assert not f.any()


def test_indivisible_extents_rejected(rng):
    cfg = PyramidConfig(widths=(4, 8, 16, 32), stem_width=4)
    w = backbone_weights(cfg, rng)
    with pytest.raises(T.ShapeError, match="divisible"):
        backbone_forward(np.zeros((1, 3, 40, 32), dtype=np.float32), w, cfg, T.Tape())


def test_randomized_config_shapes(rng):
    for _ in range(8):
        widths = tuple(int(rng.integers(1, 9)) for _ in range(4))
        blocks = int(rng.integers(1, 3))
        stem = int(rng.integers(2, 6))
        cfg = PyramidConfig(widths=widths, stem_width=stem, num_blocks=blocks)
        w = backbone_weights(cfg, rng)
        mult = int(rng.integers(1, 3))
        h, wd = 32 * mult, 32
        p = backbone_forward(
            rng.standard_normal((1, 3, h, wd)).astype(np.float32), w, cfg, T.Tape())
        bh, bw = h // 4, wd // 4
        for lv, f in enumerate(p.levels):
            assert f.shape == (1, widths[lv], bh >> lv, bw >> lv)
            assert np.all(np.isfinite(f))
        assert p.low_level.shape == (1, stem, bh, bw)


def test_stem_gradient_matches_numeric(rng):
    cfg = PyramidConfig(widths=(2, 2, 2, 2), stem_width=2)
    weights = {k: v.astype(np.float64)
               for k, v in backbone_weights(cfg, rng).items()}
    img = rng.standard_normal((1, 3, 32, 32))
    proj = [rng.standard_normal((1, 2, 8 >> lv, 8 >> lv)) for lv in range(4)]

    def loss_for(wset):
        p = backbone_forward(img, wset, cfg, T.Tape())
        return sum(float((f * g).sum()) for f, g in zip(p.levels, proj))

    tape = T.Tape()
    p = backbone_forward(img, weights, cfg, tape)
    grads, _ = tape.backward(zip(p.levels, proj))
    for name in ("backbone.stem.0.w", "backbone.stem.1.w", "backbone.stem.0.b"):
        def f(v, name=name):
            trial = dict(weights)
            trial[name] = v.reshape(weights[name].shape)
            return loss_for(trial)
        num = T.numeric_gradient(f, weights[name].reshape(1, 1, 1, -1))
        assert T.relative_error(grads[name], num.reshape(weights[name].shape)) <= 1e-6


def test_image_gradient_matches_numeric(rng):
    cfg = PyramidConfig(widths=(2, 2, 2, 2), stem_width=2)
    weights = {k: v.astype(np.float64)
               for k, v in backbone_weights(cfg, rng).items()}
    img = rng.standard_normal((1, 3, 32, 32))
    proj = [rng.standard_normal((1, 2, 8 >> lv, 8 >> lv)) for lv in range(4)]
    gll = rng.standard_normal((1, 2, 8, 8))

    def f(v):
        p = backbone_forward(v, weights, cfg, T.Tape())
        s = sum(float((f_ * g).sum()) for f_, g in zip(p.levels, proj))
        return s + float((p.low_level * gll).sum())

    tape = T.Tape()
    p = backbone_forward(img, weights, cfg, tape)
    _, (g_img,) = tape.backward([*zip(p.levels, proj), (p.low_level, gll)], wrt=[img])
    num = T.numeric_gradient(f, img)
    assert T.relative_error(g_img, num) <= 1e-6
