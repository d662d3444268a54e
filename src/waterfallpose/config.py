"""Run configuration: a flat "section.key = value" text format covering every
tunable, with a canonical serialization whose hash fingerprints checkpoints.

Unknown keys are rejected. Lists are comma-separated. The two head widths
accept 0 to mean "derived default" (fused width, and a quarter of it).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .backbone import PyramidConfig
from .decode import DecodeConfig
from .metrics import OksParams
from .train import TrainConfig
from .waterfall import WaterfallConfig


class ConfigError(ValueError):
    pass


def _fmt(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_list(cast):
    def parse(raw: str):
        items = [p.strip() for p in raw.split(",") if p.strip()]
        if not items:
            raise ConfigError("expected a comma-separated list")
        return tuple(cast(p) for p in items)
    return parse


# key -> (parser, default)
SCHEMA = {
    "pyramid.widths": (_parse_list(int), (32, 64, 128, 256)),
    "pyramid.stem_width": (int, 32),
    "pyramid.base_stride": (int, 4),
    "pyramid.num_blocks": (int, 1),
    "waterfall.dilations": (_parse_list(int), (1, 6, 12, 18)),
    "waterfall.branch_width": (int, 128),
    "waterfall.out_width": (int, 0),
    "waterfall.final_width": (int, 0),
    "waterfall.keypoints": (int, 17),
    "waterfall.group_width": (int, 15),
    "train.epochs": (int, 140),
    "train.base_lr": (float, 1e-3),
    "train.lr_steps": (_parse_list(int), (90, 120)),
    "train.lr_factor": (float, 0.1),
    "train.rotation_deg": (float, 30.0),
    "train.scale_min": (float, 0.75),
    "train.scale_max": (float, 1.5),
    "train.translate_px": (float, 40.0),
    "train.heatmap_weight": (float, 1.0),
    "train.offset_weight": (float, 0.03),
    "train.seed": (int, 0),
    "train.sigma": (float, 3.0),
    "train.offset_radius": (float, 4.0),
    "train.checkpoint_every": (int, 50),
    "decode.center_threshold": (float, 0.1),
    "decode.nms_window": (int, 3),
    "decode.max_instances": (int, 30),
    "decode.duplicate_oks": (float, 0.9),
    "oks.falloffs": (_parse_list(float), (0.1,)),
    "eval.style": (str, "coco"),
    "eval.area_medium": (float, 32.0 ** 2),
    "eval.area_large": (float, 96.0 ** 2),
    "eval.crowd_easy": (float, 0.1),
    "eval.crowd_hard": (float, 0.8),
}


@dataclass
class RunConfig:
    values: dict

    @property
    def pyramid(self) -> PyramidConfig:
        v = self.values
        return PyramidConfig(widths=v["pyramid.widths"],
                             stem_width=v["pyramid.stem_width"],
                             base_stride=v["pyramid.base_stride"],
                             num_blocks=v["pyramid.num_blocks"])

    @property
    def waterfall(self) -> WaterfallConfig:
        v = self.values
        pyr = self.pyramid
        return WaterfallConfig(
            level_widths=v["pyramid.widths"],
            low_level_width=pyr.low_level_width,
            dilations=v["waterfall.dilations"],
            branch_width=v["waterfall.branch_width"],
            out_width=v["waterfall.out_width"] or None,
            final_width=v["waterfall.final_width"] or None,
            keypoints=v["waterfall.keypoints"],
            group_width=v["waterfall.group_width"])

    @property
    def train(self) -> TrainConfig:
        v = self.values
        return TrainConfig(
            epochs=v["train.epochs"], base_lr=v["train.base_lr"],
            lr_steps=v["train.lr_steps"], lr_factor=v["train.lr_factor"],
            rotation_deg=v["train.rotation_deg"],
            scale_range=(v["train.scale_min"], v["train.scale_max"]),
            translate_px=v["train.translate_px"],
            heatmap_weight=v["train.heatmap_weight"],
            offset_weight=v["train.offset_weight"],
            seed=v["train.seed"],
            sigma=v["train.sigma"], offset_radius=v["train.offset_radius"],
            checkpoint_every=v["train.checkpoint_every"])

    @property
    def falloffs(self) -> tuple:
        raw = self.values["oks.falloffs"]
        k = self.values["waterfall.keypoints"]
        if len(raw) == 1:
            return tuple(raw) * k
        if len(raw) != k:
            raise ConfigError(
                f"oks.falloffs needs 1 or {k} values, got {len(raw)}")
        return tuple(raw)

    @property
    def oks(self) -> OksParams:
        return OksParams(self.falloffs)

    @property
    def decode(self) -> DecodeConfig:
        v = self.values
        return DecodeConfig(center_threshold=v["decode.center_threshold"],
                            nms_window=v["decode.nms_window"],
                            max_instances=v["decode.max_instances"],
                            duplicate_oks=v["decode.duplicate_oks"],
                            falloffs=self.falloffs)

    @property
    def eval_style(self) -> str:
        return self.values["eval.style"]

    @property
    def area_edges(self) -> tuple:
        return (self.values["eval.area_medium"], self.values["eval.area_large"])

    @property
    def crowd_edges(self) -> tuple:
        return (self.values["eval.crowd_easy"], self.values["eval.crowd_hard"])

    def validate(self):
        _ = self.pyramid, self.waterfall, self.train, self.decode, self.oks
        if self.eval_style not in ("coco", "crowdpose"):
            raise ConfigError(f"eval.style must be coco or crowdpose, "
                              f"got {self.eval_style!r}")
        for key in ("eval.area_medium", "eval.area_large", "eval.crowd_easy",
                    "eval.crowd_hard"):
            if not math.isfinite(self.values[key]):
                raise ConfigError(f"{key} must be finite, got {self.values[key]!r}")
        medium, large = self.area_edges
        if not 0.0 <= medium <= large:
            raise ConfigError(f"eval area edges need 0 <= eval.area_medium <= "
                              f"eval.area_large, got {medium!r} and {large!r}")
        easy, hard = self.crowd_edges
        if not 0.0 <= easy <= hard <= 1.0:
            raise ConfigError(f"eval crowd edges need 0 <= eval.crowd_easy <= "
                              f"eval.crowd_hard <= 1, got {easy!r} and {hard!r}")
        return self

    def canonical_text(self) -> str:
        lines = [f"{key} = {_fmt(self.values[key])}" for key in sorted(SCHEMA)]
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def default_config() -> RunConfig:
    return RunConfig({k: default for k, (_, default) in SCHEMA.items()})


def parse_config(text: str) -> RunConfig:
    values = {k: default for k, (_, default) in SCHEMA.items()}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        parser, _ = SCHEMA[key]
        try:
            values[key] = parser(value)
        except ConfigError:
            raise
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {key}: {e}") from e
    cfg = RunConfig(values)
    try:
        cfg.validate()
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return cfg
