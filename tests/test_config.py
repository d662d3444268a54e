import pytest

from waterfallpose.config import ConfigError, default_config, parse_config


class TestParsing:
    def test_defaults_match_published_settings(self):
        cfg = default_config()
        assert cfg.pyramid.widths == (32, 64, 128, 256)
        assert cfg.waterfall.dilations == (1, 6, 12, 18)
        assert cfg.waterfall.fused_width == 480
        assert cfg.waterfall.head_width == 120
        assert cfg.waterfall.keypoints == 17
        t = cfg.train
        assert t.epochs == 140 and t.base_lr == 1e-3
        assert t.lr_steps == (90, 120) and t.lr_factor == 0.1
        assert t.rotation_deg == 30.0
        assert t.scale_range == (0.75, 1.5)
        assert t.translate_px == 40.0
        assert t.sigma == 3.0

    def test_round_trip_canonical(self):
        cfg = default_config()
        reparsed = parse_config(cfg.canonical_text())
        assert reparsed.canonical_text() == cfg.canonical_text()
        assert reparsed.fingerprint() == cfg.fingerprint()

    def test_overrides_and_comments(self):
        text = """
        # toy setup
        pyramid.widths = 4,8,16,32
        pyramid.stem_width = 4
        waterfall.keypoints = 2
        waterfall.group_width = 3
        waterfall.branch_width = 8
        waterfall.out_width = 16
        train.epochs = 3
        """
        cfg = parse_config(text)
        assert cfg.pyramid.widths == (4, 8, 16, 32)
        assert cfg.waterfall.fused_width == 60
        assert cfg.waterfall.head_width == 15
        assert cfg.train.epochs == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("dwasp.dilations = 1,2,3,4")

    @pytest.mark.parametrize("line", [
        "waterfall.center_map = true",
        "waterfall.per_keypoint_offsets = true",
        "train.optimizer = adam",
    ])
    def test_removed_key_rejected(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            parse_config(line)

    def test_canonical_text_has_one_line_per_key(self):
        assert len(default_config().canonical_text().splitlines()) == 34

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("train.epochs = banana")

    def test_invalid_combination_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("waterfall.keypoints = 500")

    @pytest.mark.parametrize("line", [
        "train.base_lr = nan", "train.base_lr = inf", "train.base_lr = 0",
        "train.lr_factor = -1", "train.lr_factor = nan",
        "train.sigma = 0", "train.sigma = -1",
        "train.offset_weight = nan", "train.heatmap_weight = -1",
        "train.heatmap_weight = inf",
        "train.rotation_deg = nan", "train.rotation_deg = 1e308",
        "train.rotation_deg = -1", "train.translate_px = inf",
        "train.offset_radius = nan", "train.offset_radius = 0",
    ])
    def test_bad_training_float_rejected(self, line):
        key = line.split(" = ")[0].split(".")[1]
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            parse_config(line)

    @pytest.mark.parametrize("line", [
        "train.scale_max = inf", "train.scale_min = nan", "train.scale_min = 2",
    ])
    def test_bad_scale_range_rejected(self, line):
        with pytest.raises(ConfigError, match="scale range must be finite"):
            parse_config(line)

    @pytest.mark.parametrize("value", ["inf", "nan", "1e308", "1e154", "1e-320"])
    def test_bad_falloff_rejected(self, value):
        with pytest.raises(ConfigError, match="falloff constant"):
            parse_config(f"oks.falloffs = {value}")

    @pytest.mark.parametrize("line", [
        "eval.area_medium = nan", "eval.area_large = inf",
        "eval.crowd_easy = nan", "eval.crowd_hard = -inf",
    ])
    def test_non_finite_eval_edge_rejected(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            parse_config(line)

    @pytest.mark.parametrize("line", [
        "eval.area_large = -5", "eval.area_medium = -1",
        "eval.crowd_easy = 0.9", "eval.crowd_hard = 7",
    ])
    def test_unordered_eval_edge_rejected(self, line):
        kind = line.split(".")[1].split("_")[0]     # area or crowd
        with pytest.raises(ConfigError, match=f"eval {kind} edges need 0 <= "):
            parse_config(line)

    def test_equal_and_extreme_eval_edges_accepted(self):
        cfg = parse_config("eval.area_medium = 0\neval.area_large = 0\n"
                           "eval.crowd_easy = 1\neval.crowd_hard = 1")
        assert cfg.area_edges == (0.0, 0.0) and cfg.crowd_edges == (1.0, 1.0)

    def test_zero_loss_weight_accepted(self):
        assert parse_config("train.offset_weight = 0").train.offset_weight == 0.0

    def test_fingerprint_tracks_values(self):
        a = default_config()
        b = parse_config("waterfall.keypoints = 5")
        assert a.fingerprint() != b.fingerprint()

    def test_falloff_broadcast(self):
        cfg = parse_config("waterfall.keypoints = 3\noks.falloffs = 0.2")
        assert cfg.falloffs == (0.2, 0.2, 0.2)
        cfg = parse_config("waterfall.keypoints = 2\noks.falloffs = 0.1,0.3")
        assert cfg.falloffs == (0.1, 0.3)
        with pytest.raises(ConfigError, match="falloffs"):
            parse_config("waterfall.keypoints = 2\noks.falloffs = 1,2,3").decode
