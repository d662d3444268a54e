"""Miniature multi-resolution backbone.

A stand-in feature extractor that keeps the interface the pose head relies
on: four feature maps whose widths and strides are configurable (levels halve
spatially one to the next) plus a low-level feature map at base resolution,
tapped right after the stem. Plain conv + bias + ReLU throughout, no
normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T


@dataclass(frozen=True)
class PyramidConfig:
    widths: tuple = (32, 64, 128, 256)
    stem_width: int = 32
    base_stride: int = 4
    num_blocks: int = 1

    def __post_init__(self):
        if len(self.widths) != 4 or any(c < 0 for c in self.widths):
            raise ValueError(f"need 4 non-negative level widths, got {self.widths}")
        if not any(self.widths):
            raise ValueError("at least one pyramid level must have channels")
        if self.stem_width < 1:
            raise ValueError("stem width must be positive")
        # at most six stem convs, so an input is padded to a multiple of at most 512
        s = self.base_stride
        if not 1 <= s <= 64 or (s & (s - 1)) != 0:
            raise ValueError(f"base stride must be a power of two from 1 to 64, got {s}")
        if self.num_blocks < 1:
            raise ValueError("need at least one conv block per level")

    @property
    def stem_convs(self) -> int:
        return self.base_stride.bit_length() - 1

    @property
    def low_level_width(self) -> int:
        return self.stem_width if self.stem_convs else 3

    def divisor(self) -> int:
        return 8 * self.base_stride


@dataclass
class FeaturePyramid:
    """Four feature tensors at strides 1, 2, 4, 8 relative to base resolution,
    plus the low-level map at base resolution."""

    levels: list
    low_level: np.ndarray


def backbone_forward(image: np.ndarray, weights: dict, cfg: PyramidConfig, tape):
    """Run the stem and the four level branches, recording on tape.

    image is (N, 3, H, W) with H and W divisible by 8 * base_stride. Returns
    the FeaturePyramid.
    """
    n, c, h, w = image.shape
    if c != 3:
        raise T.ShapeError(f"expected a 3-channel image, got {c} channels")
    div = cfg.divisor()
    if h % div or w % div:
        raise T.ShapeError(
            f"image extents {h}x{w} must be divisible by {div}; pad the input first")

    def block(name, x, stride):
        return tape.relu(tape.conv(x, weights, name, T.ConvSpec(stride=stride)))

    x = image
    for i in range(cfg.stem_convs):
        x = block(f"backbone.stem.{i}", x, 2)
    low_level = x

    levels = []
    for lv in range(4):
        y = low_level
        for j in range(lv + cfg.num_blocks):
            y = block(f"backbone.level{lv}.{j}", y, 2 if j < lv else 1)
        levels.append(y)
    return FeaturePyramid(levels, low_level)
