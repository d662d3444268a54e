import numpy as np
import pytest

from waterfallpose import tensor as T
from waterfallpose import train as TR
from waterfallpose.backbone import PyramidConfig
from waterfallpose.checks import operand_errors, pixel_grid
from waterfallpose.dataio import save_checkpoint, load_checkpoint
from waterfallpose.model import init_model_weights, model_forward
from waterfallpose.targets import PersonAnnotation
from waterfallpose.waterfall import WaterfallConfig


def toy_setup(k=2, seed=5):
    pyr = PyramidConfig(widths=(4, 8, 16, 32), stem_width=4)
    wf = WaterfallConfig(branch_width=8, out_width=16, final_width=15, keypoints=k,
                         group_width=3)
    weights = init_model_weights(pyr, wf, seed=seed)
    return pyr, wf, weights


IDENTITY_AUG = dict(rotation_deg=0.0, scale_min=1.0, scale_max=1.0, translate_px=0.0)


class TestSchedule:
    def test_published_plateaus(self):
        cfg = TR.TrainConfig()
        assert TR.lr_at_epoch(0, cfg) == 1e-3
        assert TR.lr_at_epoch(95, cfg) == pytest.approx(1e-4)
        assert TR.lr_at_epoch(125, cfg) == pytest.approx(1e-5)

    def test_boundaries(self):
        cfg = TR.TrainConfig()
        assert TR.lr_at_epoch(89, cfg) == 1e-3
        assert TR.lr_at_epoch(90, cfg) == pytest.approx(1e-4)
        assert TR.lr_at_epoch(119, cfg) == pytest.approx(1e-4)
        assert TR.lr_at_epoch(120, cfg) == pytest.approx(1e-5)


class TestLosses:
    def test_zero_when_equal(self, rng):
        x = rng.uniform(0, 1, size=(1, 3, 4, 4)).astype(np.float32)
        assert TR.heatmap_loss(x, x.copy())[0] == 0.0
        off = rng.standard_normal((1, 4, 4, 4)).astype(np.float32)
        mask = np.ones_like(off)
        scale = np.ones((1, 1, 4, 4), dtype=np.float32)
        assert TR.offset_loss(off, off.copy(), mask, scale)[0] == 0.0

    def test_heatmap_mse_closed_form(self):
        pred = np.full((1, 2, 3, 3), 0.5, dtype=np.float32)
        target = np.zeros_like(pred)
        loss, _ = TR.heatmap_loss(pred, target)
        assert loss == pytest.approx(0.25, abs=1e-12)

    def test_smooth_l1_closed_form(self):
        pred = np.zeros((1, 2, 3, 3), dtype=np.float32)
        target = np.zeros_like(pred)
        mask = np.zeros_like(pred)
        scale = np.ones((1, 1, 3, 3), dtype=np.float32)
        pred[0, 0, 1, 1] = 0.5
        mask[0, 0, 1, 1] = 1.0
        loss, _ = TR.offset_loss(pred, target, mask, scale)
        assert loss == pytest.approx(0.125, abs=1e-9)

    def test_smooth_l1_linear_branch(self):
        pred = np.zeros((1, 2, 1, 1), dtype=np.float32)
        target = np.zeros_like(pred)
        mask = np.ones_like(pred)
        scale = np.ones((1, 1, 1, 1), dtype=np.float32)
        pred[0, 0] = 3.0
        loss, _ = TR.offset_loss(pred, target, mask, scale)
        assert loss == pytest.approx((3.0 - 0.5) / 2.0, abs=1e-7)

    def test_all_zero_mask_gives_zero_not_nan(self, rng):
        pred = rng.standard_normal((1, 2, 3, 3)).astype(np.float32)
        loss, grad = TR.offset_loss(pred, np.zeros_like(pred), np.zeros_like(pred),
                                    np.ones((1, 1, 3, 3), dtype=np.float32))
        assert loss == 0.0 and not grad.any()

    def test_loss_gradients_match_numeric(self, rng):
        pred = rng.uniform(0.05, 0.95, size=(1, 3, 4, 4))
        target = rng.uniform(0, 1, size=(1, 3, 4, 4))
        _, grad = TR.heatmap_loss(pred, target)
        num = T.numeric_gradient(lambda v: TR.heatmap_loss(v, target)[0], pred)
        assert T.relative_error(grad, num) <= 1e-6

        offp = rng.standard_normal((1, 4, 4, 4)) * 2
        offt = rng.standard_normal((1, 4, 4, 4))
        mask = (rng.uniform(size=offp.shape) < 0.5).astype(np.float64)
        scale = rng.uniform(0.5, 3.0, size=(1, 1, 4, 4))
        # keep |e| away from the smooth-L1 kink so central differences are clean
        e = np.abs((offp - offt) / scale)
        offp += ((e > 0.98) & (e < 1.02)) * 0.1
        _, grad = TR.offset_loss(offp, offt, mask, scale)
        num = T.numeric_gradient(lambda v: TR.offset_loss(v, offt, mask, scale)[0], offp)
        assert T.relative_error(grad, num) <= 1e-6


class TestAugmentation:
    def test_identity_transform(self, rng):
        cfg = TR.TrainConfig(**IDENTITY_AUG)
        img = rng.uniform(0, 1, size=(1, 3, 32, 32)).astype(np.float32)
        anns = [PersonAnnotation([(4, 5, 2)], area=20.0, bbox=(1, 1, 8, 8))]
        img2, anns2 = TR.augment_sample(img, anns, np.random.default_rng(0), cfg)
        np.testing.assert_array_equal(img2, img)
        assert anns2[0].keypoints[0][0] == 4.0 and anns2[0].keypoints[0][1] == 5.0
        assert anns2[0].area == 20.0

    def test_center_is_fixed_point(self):
        for theta, scale in ((17.0, 1.0), (-30.0, 0.8), (5.0, 1.5)):
            m = TR.affine_matrix(theta, scale, 0.0, 0.0, 15.5, 15.5)
            out = m @ np.array([15.5, 15.5, 1.0])
            np.testing.assert_allclose(out[:2], [15.5, 15.5], atol=1e-9)

    def test_keypoints_match_matrix_oracle(self, rng):
        cfg = TR.TrainConfig()
        img = rng.uniform(0, 1, size=(1, 3, 64, 64)).astype(np.float32)
        kps = [(float(x), float(y), 2)
               for x, y in rng.uniform(5, 58, size=(6, 2))]
        anns = [PersonAnnotation(kps, area=30.0)]
        seed_rng = np.random.default_rng(99)
        img2, anns2 = TR.augment_sample(img, anns, seed_rng, cfg)
        # replay the same draws to rebuild the matrix independently
        replay = np.random.default_rng(99)
        theta, scale, tx, ty = TR.sample_affine_params(replay, cfg)
        t = np.deg2rad(theta)
        c = 63 / 2.0
        for kp, kp2 in zip(kps, anns2[0].keypoints):
            x0, y0 = kp[0] - c, kp[1] - c
            ex = np.cos(t) * scale * x0 - np.sin(t) * scale * y0 + c + tx
            ey = np.sin(t) * scale * x0 + np.cos(t) * scale * y0 + c + ty
            if kp2[2] > 0:
                assert abs(kp2[0] - ex) <= 1e-6 and abs(kp2[1] - ey) <= 1e-6
            else:
                assert not (0 <= ex <= 63 and 0 <= ey <= 63)

    def test_sampled_params_stay_in_range(self):
        cfg = TR.TrainConfig()
        rng = np.random.default_rng(3)
        for _ in range(2000):
            theta, scale, tx, ty = TR.sample_affine_params(rng, cfg)
            assert -30.0 <= theta <= 30.0
            assert 0.75 <= scale <= 1.5
            assert -40.0 <= tx <= 40.0 and -40.0 <= ty <= 40.0

    def test_out_of_canvas_marked_unlabeled(self):
        cfg = TR.TrainConfig(rotation_deg=0.0, scale_min=1.0, scale_max=1.0,
                             translate_px=40.0)
        img = np.zeros((1, 3, 32, 32), dtype=np.float32)
        anns = [PersonAnnotation([(2, 2, 2), (16, 16, 2)], area=9.0)]
        moved = None
        rng = np.random.default_rng(1)
        for _ in range(50):
            _, out = TR.augment_sample(img, anns, rng, cfg)
            if out[0].keypoints[0][2] == 0:
                moved = out[0]
                break
        assert moved is not None
        x, y = moved.keypoints[0][0], moved.keypoints[0][1]
        assert not (0 <= x <= 31 and 0 <= y <= 31)

    def test_keypoints_equal_per_joint_loop(self):
        """The array keypoint map against the per-joint scalar form, bitwise,
        with joints demoted to v = 0 outside the canvas."""
        h, w = 32, 24
        img = np.zeros((1, 3, h, w), dtype=np.float32)
        rng = np.random.default_rng(5)
        # joints on and just past the canvas edges, kept or demoted unmoved
        # under the identity draw
        edges = [(0.0, 0.0), (w - 1.0, h - 1.0), (-1e-9, 5.0), (5.0, h - 1.0 + 1e-9)]
        demoted = 0
        for seed in range(40):
            cfg = TR.TrainConfig(**IDENTITY_AUG) if seed % 4 == 0 else TR.TrainConfig()
            pts = np.concatenate([rng.uniform(-4, 36, size=(9, 2)), edges])
            kps = [(float(x), float(y), int(v))
                   for (x, y), v in zip(pts, rng.integers(0, 3, size=13))]
            anns = [PersonAnnotation(kps, area=50.0, bbox=(1, 2, 10, 12))]
            _, out = TR.augment_sample(img, anns, np.random.default_rng(seed), cfg)
            theta, scale, tx, ty = TR.sample_affine_params(np.random.default_rng(seed), cfg)
            m = TR.affine_matrix(theta, scale, tx, ty, (w - 1) / 2.0, (h - 1) / 2.0)
            want = []
            for x, y, v in kps:
                nx = m[0, 0] * x + m[0, 1] * y + m[0, 2]
                ny = m[1, 0] * x + m[1, 1] * y + m[1, 2]
                if v > 0 and not (0.0 <= nx <= w - 1 and 0.0 <= ny <= h - 1):
                    v = 0
                    demoted += 1
                want.append((float(nx), float(ny), v))
            assert out[0].keypoints.tobytes() == np.array(want).tobytes()
        assert demoted > 0


def reference_optim_step(grads, state, lr):
    """The per-tensor Adam update of state["weights"]: the oracle for the
    arena update."""
    weights = state["weights"]
    state["step"] += 1
    t = state["step"]
    bc1 = 1.0 - TR.ADAM_BETA1 ** t
    bc2 = 1.0 - TR.ADAM_BETA2 ** t
    for name in sorted(weights):
        g = grads[name]
        m = state["m"][name]
        v = state["v"][name]
        m += (1.0 - TR.ADAM_BETA1) * (g - m)
        v += (1.0 - TR.ADAM_BETA2) * (g * g - v)
        update = (m / bc1) / (np.sqrt(v / bc2) + TR.ADAM_EPS)
        weights[name] -= np.asarray(lr * update, dtype=weights[name].dtype)


class TestOptimizer:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_arena_matches_per_tensor_oracle(self, rng, dtype):
        # one tensor at each size around a block, a run of small tensors
        # sharing one block, and an empty one
        shapes = {"big.a": (1,), "big.b": (TR.BLOCK - 1,), "big.c": (TR.BLOCK,),
                  "big.d": (TR.BLOCK + 1,), "empty": (0, 2, 3, 3)}
        shapes.update({f"small.{i}": (1 + i, 2, 1, 3) for i in range(6)})
        state = TR.init_optim_state(
            {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()})
        assert {len(pieces) for _, _, pieces in state["blocks"]} >= {1, 2}
        for group in ("m", "v"):   # a state part way through training
            for k, view in state[group].items():
                view[...] = rng.uniform(0.0 if group == "v" else -1.0, 1.0, view.shape)
        ref = {"step": 3, **{group: {k: v.copy() for k, v in state[group].items()}
                             for group in ("weights", "m", "v")}}
        state["step"] = 3
        for lr in (1e-3, 0.05, 1e-5):
            grads = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
            TR.optim_step(grads, state, lr)
            reference_optim_step(grads, ref, lr)
        assert state["step"] == ref["step"] == 6
        for k in shapes:
            w = state["weights"][k]
            assert w.dtype == dtype and w.shape == shapes[k], k
            assert np.shares_memory(w, state["arenas"]["w"]) or not w.size, k
            for group in ("weights", "m", "v"):
                assert state[group][k].tobytes() == ref[group][k].tobytes(), (group, k)

    def test_state_weights_are_arena_views_and_the_dict_given_is_untouched(self, rng):
        weights = {"b": rng.standard_normal((2, 3)).astype(np.float32),
                   "a": rng.standard_normal(4).astype(np.float32)}
        given = dict(weights)
        before = {k: v.copy() for k, v in weights.items()}
        state = TR.init_optim_state(weights)
        arena = np.concatenate([before["a"], before["b"].ravel()])
        assert list(weights) == list(given)
        assert set(state["weights"]) == set(weights)
        for k in weights:
            assert weights[k] is given[k]
            assert not np.shares_memory(weights[k], state["arenas"]["w"])
            assert np.shares_memory(state["weights"][k], state["arenas"]["w"])
            assert state["weights"][k].tobytes() == before[k].tobytes()
            assert not state["m"][k].any() and not state["v"][k].any()
        assert state["arenas"]["w"].tobytes() == arena.tobytes()
        TR.optim_step({k: np.ones_like(v) for k, v in weights.items()}, state, 0.1)
        for k in weights:
            assert weights[k].tobytes() == before[k].tobytes()
            assert state["weights"][k].tobytes() != before[k].tobytes()

    def test_mixed_dtypes_rejected(self):
        weights = {"a": np.zeros(2, dtype=np.float32), "b": np.zeros(2, dtype=np.float64)}
        with pytest.raises(TypeError, match="mix dtypes"):
            TR.init_optim_state(weights)

    def test_gradient_of_another_shape_rejected(self):
        weights = {"a": np.ones((2, 3), dtype=np.float32)}
        state = TR.init_optim_state(weights)
        with pytest.raises(TR.TrainingError, match="gradient 'a'"):
            TR.optim_step({"a": np.ones(6, dtype=np.float32)}, state, 0.1)

    def test_zero_grads_no_change(self):
        w = {"p": np.array([1.0, -2.0], dtype=np.float32)}
        state = TR.init_optim_state(w)
        TR.optim_step({"p": np.zeros(2, dtype=np.float32)}, state, lr=0.1)
        np.testing.assert_array_equal(state["weights"]["p"], [1.0, -2.0])

    def test_matches_hand_iterated_recurrence(self):
        w = {"p": np.array([0.5], dtype=np.float64)}
        state = TR.init_optim_state(w)
        g = np.array([0.3], dtype=np.float64)
        for _ in range(5):
            TR.optim_step({"p": g}, state, lr=0.01)
        # scalar reference recurrence
        m = v = 0.0
        x = 0.5
        for t in range(1, 6):
            m = 0.9 * m + 0.1 * 0.3
            v = 0.999 * v + 0.001 * 0.09
            mh = m / (1 - 0.9 ** t)
            vh = v / (1 - 0.999 ** t)
            x -= 0.01 * mh / (np.sqrt(vh) + 1e-8)
        assert state["weights"]["p"][0] == pytest.approx(x, rel=1e-12)
        assert state["step"] == 5

    def test_state_round_trips_through_checkpoint(self, rng):
        w = {"p.w": rng.standard_normal((1, 1, 2, 2)).astype(np.float32)}
        state = TR.init_optim_state(w)
        TR.optim_step({"p.w": rng.standard_normal((1, 1, 2, 2)).astype(np.float32)},
                      state, lr=0.05)
        blob = save_checkpoint(state["weights"], state, 1, "fp")
        w2, state2, _, _ = load_checkpoint(blob)
        assert save_checkpoint(w2, state2, 1, "fp") == blob


class TestLoop:
    def test_zero_images_no_change(self):
        pyr, wf, weights = toy_setup()
        before = {k: v.copy() for k, v in weights.items()}
        cfg = TR.TrainConfig(epochs=1)
        w2, _, log = TR.train_loop([], weights, pyr, wf, cfg)
        assert len(log) == 1
        for k in before:
            np.testing.assert_array_equal(w2[k], before[k])

    def _tiny_samples(self, rng, n=2, k=2):
        samples = []
        for _ in range(n):
            img = rng.uniform(0, 1, size=(1, 3, 32, 32)).astype(np.float32)
            kps = [(float(rng.uniform(8, 24)), float(rng.uniform(8, 24)), 2)
                   for _ in range(k)]
            samples.append((img, [PersonAnnotation(kps, area=64.0)]))
        return samples

    def test_trains_its_own_copy_and_leaves_the_dict_given(self, rng):
        samples = self._tiny_samples(rng)
        pyr, wf, weights = toy_setup()
        given = dict(weights)
        before = {k: v.tobytes() for k, v in weights.items()}
        w2, state, _ = TR.train_loop(samples, weights, pyr, wf,
                                     TR.TrainConfig(epochs=1, seed=2))
        assert list(weights) == list(given)
        for k in given:
            assert weights[k] is given[k] and weights[k].tobytes() == before[k], k
        assert w2 is state["weights"] and set(w2) == set(given)
        for k, view in w2.items():
            assert view.base is state["arenas"]["w"], k
        assert any(w2[k].tobytes() != before[k] for k in given)

    def test_determinism_bitwise(self, rng):
        samples = self._tiny_samples(rng)
        cfg = TR.TrainConfig(epochs=2, seed=11)
        pyr, wf, _ = toy_setup()
        runs = []
        for _ in range(2):
            weights = init_model_weights(pyr, wf, seed=7)
            w2, state, log = TR.train_loop(samples, weights, pyr, wf, cfg)
            runs.append(save_checkpoint(w2, state, cfg.epochs, "fp"))
        assert runs[0] == runs[1]

    def test_matches_per_tensor_oracle_run(self, rng, monkeypatch):
        samples = self._tiny_samples(rng)
        cfg = TR.TrainConfig(epochs=3, seed=4)
        pyr, wf, _ = toy_setup()
        runs = []
        for step in (TR.optim_step, reference_optim_step):
            monkeypatch.setattr(TR, "optim_step", step)
            weights = init_model_weights(pyr, wf, seed=6)
            w2, state, log = TR.train_loop(samples, weights, pyr, wf, cfg)
            runs.append((log, save_checkpoint(w2, state, cfg.epochs, "fp")))
        assert runs[0] == runs[1]

    def test_non_finite_gradient_raises(self, rng, monkeypatch):
        samples = self._tiny_samples(rng)
        pyr, wf, weights = toy_setup()
        before = {k: v.copy() for k, v in weights.items()}
        real_backward = T.Tape.backward

        def poisoned(tape, *args, **kwargs):
            grads, wrt = real_backward(tape, *args, **kwargs)
            grads["llf.mid.w"].flat[3] = np.nan
            return grads, wrt

        monkeypatch.setattr(T.Tape, "backward", poisoned)
        # Adam must take no step on the poisoned gradient: the state's own
        # weights, which it would write, still hold the initial values
        states, steps = [], []
        real_init = TR.init_optim_state
        monkeypatch.setattr(TR, "init_optim_state",
                            lambda w: states.append(real_init(w)) or states[-1])
        real_step = TR.optim_step
        monkeypatch.setattr(TR, "optim_step",
                            lambda *args: steps.append(args) or real_step(*args))
        cfg = TR.TrainConfig(epochs=1, seed=5, **IDENTITY_AUG)
        with pytest.raises(TR.TrainingError,
                           match=r"non-finite gradient at epoch 0, sample \d+: llf\.mid\.w"):
            TR.train_loop(samples, weights, pyr, wf, cfg)
        assert steps == [] and len(states) == 1
        for k in before:
            np.testing.assert_array_equal(states[0]["weights"][k], before[k])
            np.testing.assert_array_equal(weights[k], before[k])

    def test_overflowing_step_is_caught_before_the_checkpoint(self, rng):
        # 1e300 overflows float32 in Adam's `a *= lr`: the epoch's last step
        # leaves inf and NaN weights, and no forward follows it
        samples = self._tiny_samples(rng, n=1)
        pyr, wf, weights = toy_setup()
        saved = []
        cfg = TR.TrainConfig(epochs=1, seed=5, base_lr=1e300, checkpoint_every=1,
                             **IDENTITY_AUG)
        with pytest.raises(TR.TrainingError,
                           match="non-finite weight after epoch 0: backbone.level0.0.b"):
            TR.train_loop(samples, weights, pyr, wf, cfg,
                          on_checkpoint=lambda *args: saved.append(args))
        assert saved == []

    def test_steps_through_the_module_hook_once_per_image(self, rng, monkeypatch):
        # perfbench times each step by replacing train.optim_step
        samples = self._tiny_samples(rng, n=3)
        pyr, wf, weights = toy_setup()
        calls = []
        real_step = TR.optim_step

        def counted(*args, **kwargs):
            calls.append(1)
            return real_step(*args, **kwargs)

        monkeypatch.setattr(TR, "optim_step", counted)
        TR.train_loop(samples, weights, pyr, wf, TR.TrainConfig(epochs=2, seed=2))
        assert len(calls) == 6

    def _one_step_grads(self, samples, cfg, monkeypatch):
        pyr, wf, weights = toy_setup()
        stepped = []
        real_step = TR.optim_step

        def recorded(grads, state, lr):
            stepped.append({name: g.copy() for name, g in grads.items()})
            real_step(grads, state, lr)

        monkeypatch.setattr(TR, "optim_step", recorded)
        _, _, log = TR.train_loop(samples, weights, pyr, wf, cfg)
        assert len(stepped) == 1 and set(stepped[0]) == set(weights)
        return stepped[0], log

    @pytest.mark.parametrize("people", ["none", "off the canvas"])
    def test_image_with_no_supervised_pixel_steps_a_zero_offset_gradient(
            self, rng, monkeypatch, people):
        img = rng.uniform(0, 1, size=(1, 3, 32, 32)).astype(np.float32)
        if people == "none":
            anns, aug = [], IDENTITY_AUG
        else:
            # a 20x zoom about the centre puts every joint, each over 10 px
            # from it, far off the 32x32 canvas
            anns = [PersonAnnotation([(2.0, 3.0, 2), (28.0, 29.0, 2)], area=64.0),
                    PersonAnnotation([(27.0, 4.0, 2), (4.0, 27.0, 1)], area=64.0)]
            aug = dict(IDENTITY_AUG, scale_min=20.0, scale_max=20.0)
        cfg = TR.TrainConfig(epochs=1, seed=3, **aug)
        _, moved = TR.augment_sample(img, anns, np.random.default_rng(0), cfg)
        assert all(ann.num_labeled() == 0 for ann in moved)
        grads, log = self._one_step_grads([(img, anns)], cfg, monkeypatch)
        offset_head = [name for name in grads if name.startswith("head.off.g")]
        assert len(offset_head) == 5 * 2
        for name in offset_head + ["head.off.expand.w", "head.off.expand.b"]:
            assert not grads[name].any(), name
        assert grads["head.kp.out.w"].any()
        assert log[0].split("\t")[3] == "0"

    def test_loss_decreases_and_log_format(self, rng):
        samples = self._tiny_samples(rng)
        cfg = TR.TrainConfig(epochs=8, seed=3, **IDENTITY_AUG)
        pyr, wf, weights = toy_setup()
        _, _, log = TR.train_loop(samples, weights, pyr, wf, cfg)
        assert len(log) == 8
        first = log[0].split("\t")
        assert len(first) == 5 and first[0] == "0"
        total_first = float(log[0].split("\t")[4])
        total_last = float(log[-1].split("\t")[4])
        assert total_last < total_first


class TestFullModelGradient:
    def test_total_loss_gradient_through_model(self, rng):
        pyr = PyramidConfig(widths=(2, 3, 2, 2), stem_width=2)
        wf = WaterfallConfig(branch_width=2, out_width=3, final_width=2,
                             keypoints=2, group_width=2)
        weights = init_model_weights(pyr, wf, seed=1, dtype=np.float64,
                                     offset_init="random")
        # random biases keep ReLU pre-activations off the exact kink, where
        # central differences and the subgradient disagree
        for name in weights:
            if name.endswith(".b") and "taps" not in name:
                weights[name] = rng.standard_normal(weights[name].shape) * 0.1
        img = rng.uniform(0, 1, size=(1, 3, 32, 32))
        anns = [PersonAnnotation([(3.2, 4.1, 2), (5.5, 2.2, 2)],
                                 area=16.0)]
        from waterfallpose.targets import render_keypoint_heatmaps, \
            render_offset_targets
        heat_t = render_keypoint_heatmaps(anns, 2, 8, 8).astype(np.float64)
        # the offsets and their targets at every pixel
        ys, xs = pixel_grid(8, 8)
        off_t, off_m, off_s = (a.astype(np.float64)[:, :, ys, xs]
                               for a in render_offset_targets(anns, 2, 8, 8))
        cfg = TR.TrainConfig()
        names = ("backbone.stem.0.w", "backbone.level1.0.w", "wf.branch2.w",
                 "llf.mid.w", "head.kp.out.b", "head.off.g0.adapt.w")

        def loss(*picked):
            maps, _ = model_forward(img, {**weights, **dict(zip(names, picked))}, pyr, wf)
            total, _, _, _, _ = TR.total_loss(maps.heatmaps, maps.offsets_at(ys, xs), heat_t,
                                              off_t, off_m, off_s, cfg)
            return total

        maps, tape = model_forward(img, weights, pyr, wf)
        offsets = maps.offsets_at(ys, xs)
        _, _, _, gh, go = TR.total_loss(maps.heatmaps, offsets, heat_t, off_t, off_m, off_s,
                                        cfg)
        grads, _ = tape.backward([(maps.heatmaps, gh), (offsets, go)])
        errors = operand_errors(loss, [weights[n] for n in names], [grads[n] for n in names],
                                h=1e-6)
        assert np.max(errors) <= 1e-6, names[np.argmax(errors)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_tape_gives_the_recorded_maps(self, rng, dtype):
        pyr, wf, _ = toy_setup()
        weights = init_model_weights(pyr, wf, seed=2, dtype=dtype, offset_init="random")
        img = rng.uniform(0, 1, size=(1, 3, 32, 32)).astype(dtype)
        recorded, tape = model_forward(img, weights, pyr, wf)
        assert tape.nodes
        maps, bare = model_forward(img, weights, pyr, wf, T.ForwardTape())
        every = pixel_grid(*maps.heatmaps.shape[2:])
        for got, want in ((maps.heatmaps, recorded.heatmaps),
                          (maps.offsets_at(*every), recorded.offsets_at(*every))):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()
        assert bare.nodes == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_width_level_gets_zero_gradients(self, rng, dtype):
        for widths in ((2, 0, 2, 2), (0, 2, 2, 2), (2, 2, 2, 0)):
            pyr = PyramidConfig(widths=widths, stem_width=2)
            wf = WaterfallConfig(branch_width=2, out_width=3, final_width=2, keypoints=2,
                                 group_width=2)
            weights = init_model_weights(pyr, wf, seed=1, dtype=dtype)
            img = rng.uniform(0, 1, size=(1, 3, 32, 32)).astype(dtype)
            maps, tape = model_forward(img, weights, pyr, wf)
            offsets = maps.offsets_at(*pixel_grid(*maps.heatmaps.shape[2:]))
            grads, _ = tape.backward([(maps.heatmaps, np.ones_like(maps.heatmaps)),
                                      (offsets, np.ones_like(offsets))])
            assert set(grads) == set(weights)
            empty = f"backbone.level{widths.index(0)}."
            for name, w in weights.items():
                assert grads[name].shape == w.shape and grads[name].dtype == w.dtype, name
                if name.startswith(empty):
                    assert not grads[name].any(), name
