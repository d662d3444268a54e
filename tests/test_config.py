import math
import time
from dataclasses import FrozenInstanceError

import pytest

from waterfallpose.backbone import PyramidConfig
from waterfallpose.config import MAX_PARAMETERS, SCHEMA, ConfigError, default_config, \
    parse_config
from waterfallpose.model import weight_entries, weight_shapes


class TestParsing:
    def test_defaults_match_published_settings(self):
        cfg = default_config()
        assert cfg.pyramid.widths == (32, 64, 128, 256)
        assert cfg.waterfall.dilations == (1, 6, 12, 18)
        assert cfg.waterfall.out_width == 480
        assert cfg.waterfall.final_width == 120
        assert cfg.waterfall.keypoints == 17
        t = cfg.train
        assert t.epochs == 140 and t.base_lr == 1e-3
        assert t.lr_steps == (90, 120) and t.lr_factor == 0.1
        assert t.rotation_deg == 30.0
        assert (t.scale_min, t.scale_max) == (0.75, 1.5)
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
        assert cfg.waterfall.out_width == 16
        assert cfg.waterfall.final_width == 15
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

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigError, match="^line 2: expected 'key = value', got "
                                               "'  train.epochs 3'$"):
            parse_config("# comment\n  train.epochs 3\n")

    @pytest.mark.parametrize("value", ["", ",", " , ,"])
    def test_empty_list_rejected(self, value):
        with pytest.raises(ConfigError, match="^expected a comma-separated list$"):
            parse_config(f"pyramid.widths = {value}")

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

    @pytest.mark.parametrize("value", ["1e-300", "1e-160", "1e-4", "1001", "1e200"])
    def test_sigma_outside_its_range_rejected(self, value):
        # 2·sigma² must be a normal float64: 0, subnormal and inf are refused
        with pytest.raises(ConfigError, match=r"train\.sigma must be finite and lie in"):
            parse_config(f"train.sigma = {value}")

    @pytest.mark.parametrize("value", ["1e-3", "3", "1e3"])
    def test_sigma_range_is_inclusive(self, value):
        assert parse_config(f"train.sigma = {value}").train.sigma == float(value)

    @pytest.mark.parametrize("line", [
        "train.scale_max = inf", "train.scale_min = nan", "train.scale_min = 2",
    ])
    def test_bad_scale_range_rejected(self, line):
        with pytest.raises(ConfigError, match="scale range must be finite"):
            parse_config(line)

    @pytest.mark.parametrize("value", ["inf", "nan", "1e308", "1e154", "1e-320", "1e-4", "11"])
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

    @pytest.mark.parametrize("line, message", [
        ("pyramid.base_stride = 128", "base stride must be a power of two from 1 to 64"),
        ("pyramid.base_stride = 262144", "base stride must be a power of two from 1 to 64"),
        ("train.checkpoint_every = -1", "checkpoint_every must be non-negative"),
        ("train.lr_steps = -5,2000000000000", "lr steps must be non-negative"),
        ("train.seed = -1", "train.seed must be non-negative, got -1"),
    ], ids=["stride-128", "stride-262144", "checkpoint-every", "lr-steps", "seed"])
    def test_out_of_range_integer_rejected(self, line, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(line)

    def test_integer_edges_accepted(self):
        cfg = parse_config("pyramid.base_stride = 64\ntrain.checkpoint_every = 0\n"
                           "train.lr_steps = 0,2000000000000")
        assert cfg.pyramid.divisor() == 512 and cfg.train.checkpoint_every == 0
        assert cfg.train.lr_steps == (0, 2000000000000)

    def test_zero_loss_weight_accepted(self):
        assert parse_config("train.offset_weight = 0").train.offset_weight == 0.0

    def test_fingerprint_tracks_values(self):
        a = default_config()
        b = parse_config("waterfall.keypoints = 5")
        assert a.fingerprint() != b.fingerprint()

    def test_falloff_broadcast(self):
        cfg = parse_config("waterfall.keypoints = 3\noks.falloffs = 0.2")
        assert cfg.oks.falloffs == cfg.decode.falloffs == (0.2, 0.2, 0.2)
        cfg = parse_config("waterfall.keypoints = 2\noks.falloffs = 0.1,0.3")
        assert cfg.oks.falloffs == cfg.decode.falloffs == (0.1, 0.3)
        with pytest.raises(ConfigError, match="falloffs"):
            parse_config("waterfall.keypoints = 2\noks.falloffs = 1,2,3")

    @pytest.mark.parametrize("text", ["", "waterfall.keypoints = 3\noks.falloffs = 0.2"],
                             ids=["default", "edited"])
    def test_sections_are_built_once(self, text):
        cfg = default_config() if not text else parse_config(text)
        for name in ("pyramid", "waterfall", "train", "decode", "oks", "eval_style",
                     "area_edges", "crowd_edges"):
            assert getattr(cfg, name) is getattr(cfg, name), name
        assert cfg.decode.falloffs is cfg.oks.falloffs

    def test_sections_and_keys_cannot_be_rebound(self):
        # an edited key would move the fingerprint away from the sections
        cfg = default_config()
        with pytest.raises(FrozenInstanceError):
            cfg.pyramid = PyramidConfig()
        with pytest.raises(TypeError):
            cfg.values["train.epochs"] = 3
        assert cfg.fingerprint() == DEFAULT_FINGERPRINT

    @pytest.mark.parametrize("text, message", [
        ("waterfall.keypoints = 500\ntrain.epochs = -1", "cannot support 500"),
        ("waterfall.keypoints = 2\noks.falloffs = 1,2,3\ntrain.sigma = 0",
         "sigma must be finite"),
        ("waterfall.keypoints = 2\noks.falloffs = 1,2,3\ndecode.nms_window = 0",
         "oks.falloffs needs 1 or 2 values, got 3"),
        ("oks.falloffs = 11\neval.style = voc", "falloff constant"),
        ("eval.style = voc\neval.area_large = -5", "eval.style must be coco"),
    ], ids=["waterfall-before-train", "train-before-falloffs", "falloffs-before-decode",
            "oks-before-eval", "style-before-edges"])
    def test_first_failing_check_is_reported(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)


TOY = """
pyramid.widths = 4,8,16,32
pyramid.stem_width = 4
pyramid.num_blocks = 2
waterfall.branch_width = 12
waterfall.out_width = 32
waterfall.keypoints = 2
waterfall.group_width = 4
"""


class TestWidths:
    @pytest.mark.parametrize("line", ["waterfall.out_width = -5",
                                      "waterfall.final_width = -1"])
    def test_negative_head_width_rejected(self, line):
        key = line.split(" = ")[0].split(".")[1]
        with pytest.raises(ConfigError, match=f"{key} must be positive"):
            parse_config(line)

    def test_all_zero_levels_rejected(self):
        with pytest.raises(ConfigError, match="at least one pyramid level"):
            parse_config("pyramid.widths = 0,0,0,0")

    def test_zero_width_levels_accepted(self):
        cfg = parse_config("pyramid.widths = 0,8,0,16\nwaterfall.keypoints = 2")
        assert cfg.waterfall.out_width == 24 and cfg.waterfall.final_width == 6


class TestSizeBudget:
    @pytest.mark.parametrize("text, params", [("", 4_120_688), (TOY, 65_224)],
                             ids=["published", "toy"])
    def test_published_and_toy_fit(self, text, params):
        cfg = parse_config(text)
        shapes = weight_shapes(cfg.pyramid, cfg.waterfall)
        assert sum(math.prod(s) for s in shapes.values()) == params <= MAX_PARAMETERS

    @pytest.mark.parametrize("text", ["", TOY], ids=["published", "toy"])
    def test_every_kernel_is_odd_and_square(self, text):
        # conv2d centres its "same" padding on the kernel, whose extent the
        # weight table alone states
        cfg = parse_config(text)
        kernels = [shape[2:] for _, shape in weight_entries(cfg.pyramid, cfg.waterfall)
                   if len(shape) == 4]
        assert kernels and all(kh == kw and kh % 2 for kh, kw in kernels)

    @pytest.mark.parametrize("line", [
        "pyramid.widths = 1000000000000000,8,16,32", "pyramid.stem_width = 4611686018427387904",
        "waterfall.branch_width = 4611686018427387904",
        "waterfall.out_width = 4611686018427387904",
        "waterfall.group_width = 4611686018427387904",
        "waterfall.final_width = 4611686018427387904",
    ])
    def test_too_many_parameters_rejected(self, line):
        with pytest.raises(ConfigError, match="parameters, over the budget of 33554432"):
            parse_config(line)

    @pytest.mark.parametrize("text", [
        "pyramid.num_blocks = 4611686018427387904",
        "pyramid.widths = 0,0,0,1\nwaterfall.final_width = 17\n"
        "pyramid.num_blocks = 4611686018427387904",
        "waterfall.keypoints = 4611686018427387904\n"
        "waterfall.final_width = 4611686018427387904",
    ], ids=["blocks", "blocks-zero-levels", "keypoints"])
    def test_too_many_tensors_rejected_before_the_table(self, text):
        # the entry count is bounded on a prefix of the table; building the
        # whole table would not end
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="over 2048 weight tensors"):
            parse_config(text)
        assert time.perf_counter() - start < 1.0


# the canonical text of the defaults; its hash fingerprints every checkpoint,
# so neither may move when the config code does
DEFAULT_TEXT = """\
decode.center_threshold = 0.1
decode.duplicate_oks = 0.9
decode.max_instances = 30
decode.nms_window = 3
eval.area_large = 9216.0
eval.area_medium = 1024.0
eval.crowd_easy = 0.1
eval.crowd_hard = 0.8
eval.style = coco
oks.falloffs = 0.1
pyramid.base_stride = 4
pyramid.num_blocks = 1
pyramid.stem_width = 32
pyramid.widths = 32,64,128,256
train.base_lr = 0.001
train.checkpoint_every = 50
train.epochs = 140
train.heatmap_weight = 1.0
train.lr_factor = 0.1
train.lr_steps = 90,120
train.offset_radius = 4.0
train.offset_weight = 0.03
train.rotation_deg = 30.0
train.scale_max = 1.5
train.scale_min = 0.75
train.seed = 0
train.sigma = 3.0
train.translate_px = 40.0
waterfall.branch_width = 128
waterfall.dilations = 1,6,12,18
waterfall.final_width = 0
waterfall.group_width = 15
waterfall.keypoints = 17
waterfall.out_width = 0
"""
DEFAULT_FINGERPRINT = "20873fd64c0c3dcb5a5ca0b3fec35b439ec582eb615d3c11c3faad6dba6aa74d"

SCHEMA_KEYS = [
    "pyramid.widths", "pyramid.stem_width", "pyramid.base_stride", "pyramid.num_blocks",
    "waterfall.dilations", "waterfall.branch_width", "waterfall.out_width",
    "waterfall.final_width", "waterfall.keypoints", "waterfall.group_width",
    "train.epochs", "train.base_lr", "train.lr_steps", "train.lr_factor",
    "train.rotation_deg", "train.scale_min", "train.scale_max", "train.translate_px",
    "train.heatmap_weight", "train.offset_weight", "train.seed", "train.sigma",
    "train.offset_radius", "train.checkpoint_every",
    "decode.center_threshold", "decode.nms_window", "decode.max_instances",
    "decode.duplicate_oks", "oks.falloffs", "eval.style", "eval.area_medium",
    "eval.area_large", "eval.crowd_easy", "eval.crowd_hard",
]
# what each key's parser makes of "7", in SCHEMA order: i int, f float,
# s str, L a list of the kind that follows
SCHEMA_KINDS = "Li i i i Li i i i i i i f Li f f f f f f f i f f i f i i f Lf s f f f f"

PERFBENCH_TRAIN_TOY = """\
# synthetic benchmark configuration
pyramid.num_blocks = 2
pyramid.stem_width = 4
pyramid.widths = 4,8,16,32
train.epochs = 10
train.rotation_deg = 0.0
train.scale_max = 1.0
train.scale_min = 1.0
train.seed = 1
train.translate_px = 0.0
waterfall.branch_width = 12
waterfall.group_width = 4
waterfall.keypoints = 2
waterfall.out_width = 32
"""
PERFBENCH_INFER = """\
# synthetic benchmark configuration
pyramid.widths = 32,64,128,256
waterfall.dilations = 1,6,12,18
waterfall.group_width = 15
waterfall.keypoints = 17
"""
AUGMENTATION_FALLOFF_EDIT = """
train.rotation_deg = 12.5
train.scale_min = 0.5
train.scale_max = 2
train.translate_px = 8
waterfall.keypoints = 3
oks.falloffs = 0.025,0.05,0.107
"""
DECODE_EVAL_EDIT = """
decode.center_threshold = 0.25
decode.nms_window = 5
decode.max_instances = 7
decode.duplicate_oks = 0.5
eval.style = crowdpose
eval.area_medium = 0
eval.area_large = 2500
eval.crowd_easy = 0.2
eval.crowd_hard = 0.7
"""


def _kind(value) -> str:
    if isinstance(value, tuple):
        return "L" + _kind(value[0])
    return {int: "i", float: "f", str: "s"}[type(value)]


class TestPinned:
    def test_default_canonical_text_and_fingerprint(self):
        cfg = default_config()
        assert cfg.canonical_text() == DEFAULT_TEXT
        assert cfg.fingerprint() == DEFAULT_FINGERPRINT

    def test_schema_keys_parsers_and_defaults(self):
        assert list(SCHEMA) == SCHEMA_KEYS
        assert " ".join(_kind(parse("7")) for parse, _ in SCHEMA.values()) == SCHEMA_KINDS
        defaults = parse_config(DEFAULT_TEXT).values
        assert {key: default for key, (_, default) in SCHEMA.items()} == defaults
        assert [_kind(v) for v in defaults.values()] == SCHEMA_KINDS.split()

    @pytest.mark.parametrize("text, fingerprint", [
        (TOY, "dd19ac29fa0be72d298ed32d65414f7e6382c5a6a84690e53b8e2cb6ed183803"),
        (PERFBENCH_TRAIN_TOY,
         "1126f79809607373a7c2b0f6c928b58e4d0573223038c06f16e2ddf36e43eb17"),
        ("# synthetic benchmark configuration\ntrain.epochs = 1\ntrain.seed = 1\n",
         "6cc408b81e7ee4b7507a2975d8dd0c51543dbe976bafc27ccfc2e40934b3c6df"),
        (PERFBENCH_INFER, DEFAULT_FINGERPRINT),
        (AUGMENTATION_FALLOFF_EDIT,
         "098caba4361693fccc6dd70f915e1cc1515ffc48eae638a27c558a8725d1fbe9"),
        (DECODE_EVAL_EDIT, "ee470b1df61481adfccbcda3d89843f2844bdf4f22836901ea68246058102b44"),
    ], ids=["toy", "perfbench-train-toy", "perfbench-train-published", "perfbench-infer",
            "augmentation-falloffs", "decode-eval"])
    def test_fingerprint(self, text, fingerprint):
        assert parse_config(text).fingerprint() == fingerprint
