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
from types import MappingProxyType

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


@dataclass(frozen=True)
class RunConfig:
    """The key table, read-only so that the fingerprint stays that of the
    sections, and the section objects built and checked from it, once
    (_build). The waterfall's derived widths are resolved, and decode's and
    the OKS parameters' falloffs are broadcast to the keypoint count."""

    values: MappingProxyType
    pyramid: PyramidConfig
    waterfall: WaterfallConfig
    train: TrainConfig
    decode: DecodeConfig
    oks: OksParams
    eval_style: str
    area_edges: tuple
    crowd_edges: tuple

    def canonical_text(self) -> str:
        lines = [f"{key} = {_fmt(self.values[key])}" for key in sorted(SCHEMA)]
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _build(values: dict) -> RunConfig:
    """The run configuration of a full key table. Raises the first check that
    fails, in this order: pyramid, waterfall, size budget, train, falloff
    count, decode, OKS, eval settings; a section class raises ValueError."""
    def section(name: str) -> dict:
        return {field: values[key] for field, key, _ in _SECTIONS[name]}

    pyramid = PyramidConfig(**section("pyramid"))
    wf, fused = section("waterfall"), sum(values["pyramid.widths"])
    waterfall = WaterfallConfig(**{**wf, "out_width": wf["out_width"] or fused,
                                   "final_width": wf["final_width"] or fused // 4})
    entries = list(islice(weight_entries(pyramid, waterfall), MAX_WEIGHT_TENSORS + 1))
    if len(entries) > MAX_WEIGHT_TENSORS:
        raise ConfigError(f"the model would have over {MAX_WEIGHT_TENSORS} weight tensors")
    params = sum(math.prod(shape) for _, shape in entries)
    if params > MAX_PARAMETERS:
        raise ConfigError(f"the model would have {params} parameters, over the "
                          f"budget of {MAX_PARAMETERS}")
    train = TrainConfig(**section("train"))
    falloffs, k = tuple(values["oks.falloffs"]), values["waterfall.keypoints"]
    if len(falloffs) == 1:
        falloffs *= k
    elif len(falloffs) != k:
        raise ConfigError(f"oks.falloffs needs 1 or {k} values, got {len(falloffs)}")
    decode = DecodeConfig(**section("decode"), falloffs=falloffs)
    oks = OksParams(falloffs)
    style = values["eval.style"]
    if style not in ("coco", "crowdpose"):
        raise ConfigError(f"eval.style must be coco or crowdpose, got {style!r}")
    for key in ("eval.area_medium", "eval.area_large", "eval.crowd_easy",
                "eval.crowd_hard"):
        if not math.isfinite(values[key]):
            raise ConfigError(f"{key} must be finite, got {values[key]!r}")
    medium, large = values["eval.area_medium"], values["eval.area_large"]
    if not 0.0 <= medium <= large:
        raise ConfigError(f"eval area edges need 0 <= eval.area_medium <= "
                          f"eval.area_large, got {medium!r} and {large!r}")
    easy, hard = values["eval.crowd_easy"], values["eval.crowd_hard"]
    if not 0.0 <= easy <= hard <= 1.0:
        raise ConfigError(f"eval crowd edges need 0 <= eval.crowd_easy <= "
                          f"eval.crowd_hard <= 1, got {easy!r} and {hard!r}")
    return RunConfig(MappingProxyType(values), pyramid, waterfall, train, decode, oks,
                     style, (medium, large), (easy, hard))


def default_config() -> RunConfig:
    return parse_config("")


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
    try:
        return _build(values)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(str(e)) from e
