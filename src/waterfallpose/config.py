"""Run configuration: a flat "section.key = value" text format covering every
tunable, with a canonical serialization whose hash fingerprints checkpoints.

The pyramid, waterfall, train and decode keys are the fields of their config
classes, with the fields' defaults; SCHEMA adds the OKS falloffs and the
evaluator's settings. Unknown keys are rejected. Lists are comma-separated.
The two head widths accept 0 to mean "derived default" (the fused pyramid
width, and a quarter of it). A valid config's weights fit a size budget, so
no edit allocates at scale.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from itertools import islice

from .backbone import PyramidConfig
from .decode import DecodeConfig
from .metrics import AREA_EDGES, CROWD_EDGES, OksParams
from .model import weight_entries
from .train import TrainConfig
from .waterfall import WaterfallConfig


# the size budget: at most 2**25 parameters (about 8x the published 4,120,688)
# in at most 2**11 tensors (published: 134), the count bounded before the table
MAX_PARAMETERS = 2 ** 25
MAX_WEIGHT_TENSORS = 2 ** 11


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


def _parser(default):
    """A key's parser follows from its default: a list of the items' type for
    a tuple, otherwise the default's own type."""
    return _parse_list(type(default[0])) if isinstance(default, tuple) else type(default)


# section -> (field, key, default) of each field its config class is built
# from; decode's falloffs are not a key, since decode reads oks.falloffs
_SECTIONS = {section: [(f.name, f"{section}.{f.name}", f.default) for f in fields(cls)
                       if (section, f.name) != ("decode", "falloffs")]
             for section, cls in (("pyramid", PyramidConfig), ("waterfall", WaterfallConfig),
                                  ("train", TrainConfig), ("decode", DecodeConfig))}
# the defaults no field gives: 0 for the head widths is "derived", and no
# config class holds the OKS falloffs or the evaluator's settings
_OWN_DEFAULTS = {"waterfall.out_width": 0, "waterfall.final_width": 0,
                 "oks.falloffs": (0.1,), "eval.style": "coco",
                 "eval.area_medium": AREA_EDGES[0], "eval.area_large": AREA_EDGES[1],
                 "eval.crowd_easy": CROWD_EDGES[0], "eval.crowd_hard": CROWD_EDGES[1]}
# key -> (parser, default)
SCHEMA = {key: (_parser(default), default) for key, default in {
    **{key: default for entries in _SECTIONS.values() for _, key, default in entries},
    **_OWN_DEFAULTS}.items()}


@dataclass
class RunConfig:
    values: dict

    def _section(self, section: str) -> dict:
        return {name: self.values[key] for name, key, _ in _SECTIONS[section]}

    @property
    def pyramid(self) -> PyramidConfig:
        return PyramidConfig(**self._section("pyramid"))

    @property
    def waterfall(self) -> WaterfallConfig:
        s = self._section("waterfall")
        fused = sum(self.values["pyramid.widths"])
        return WaterfallConfig(**{**s, "out_width": s["out_width"] or fused,
                                  "final_width": s["final_width"] or fused // 4})

    @property
    def train(self) -> TrainConfig:
        return TrainConfig(**self._section("train"))

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
        return DecodeConfig(**self._section("decode"), falloffs=self.falloffs)

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
        pyr, wf = self.pyramid, self.waterfall
        entries = list(islice(weight_entries(pyr, wf), MAX_WEIGHT_TENSORS + 1))
        if len(entries) > MAX_WEIGHT_TENSORS:
            raise ConfigError(f"the model would have over {MAX_WEIGHT_TENSORS} weight tensors")
        params = sum(math.prod(shape) for _, shape in entries)
        if params > MAX_PARAMETERS:
            raise ConfigError(f"the model would have {params} parameters, over the "
                              f"budget of {MAX_PARAMETERS}")
        _ = self.train, self.decode, self.oks
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
