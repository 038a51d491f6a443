"""Depth normalization, face-region cropping, and geometric augmentation.

Depth maps are clipped between their 25th and 90th percentile (nearest-rank
over the nonzero samples; zero means "no reading" and stays zero) and then
stretched over the full 8-bit range. Augmentation applies one geometric
transform per call, drawn from: rotation, x-shear, mirror about the vertical
axis, or scaling of the corner quad. RGB and depth of a pair always share one
parameter draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError

ROTATION_RANGE = (-30.0, 30.0)
SHEAR_RANGE = (-16.0, 16.0)
PERSPECTIVE_RANGE = (0.5, 1.5)
AUGMENT_KINDS = ("rotation", "shear", "flip", "perspective")


@dataclass
class DepthImage:
    """Raw 16-bit depth samples; 0 marks a missing reading."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.uint16)
        if self.samples.ndim != 2 or min(self.samples.shape) < 1:
            raise DataError(f"depth image must be 2-D, got shape {self.samples.shape}")


def nearest_rank_percentile(values: np.ndarray, p: float) -> int:
    """The sorted value at 1-based index ceil(p/100 * n); no interpolation."""
    ordered = np.sort(np.asarray(values).reshape(-1))
    if ordered.size == 0:
        raise DataError("percentile of an empty sample set")
    return _nearest_rank(ordered, p)


def _nearest_rank(ordered: np.ndarray, p: float) -> int:
    return int(ordered[max(1, math.ceil(p / 100.0 * ordered.size)) - 1])


def depth_clip_normalize(d: DepthImage) -> np.ndarray:
    """Clip to [p25, p90] of the nonzero samples and stretch to uint8 [0, 255].

    Zero (missing) samples stay 0; a degenerate p25 == p90 maps everything
    to 0 rather than failing.
    """
    samples = d.samples
    mask = samples > 0
    nonzero = samples[mask]
    if nonzero.size == 0:
        raise DataError("depth image has no nonzero samples to clip against")
    ordered = np.sort(nonzero)
    p25, p90 = _nearest_rank(ordered, 25), _nearest_rank(ordered, 90)
    out = np.zeros(samples.shape, dtype=np.uint8)
    if p90 == p25:
        return out
    clipped = np.clip(nonzero.astype(np.float64), p25, p90)
    scaled = np.floor(255.0 * (clipped - p25) / (p90 - p25) + 0.5)
    out[mask] = scaled.astype(np.uint8)
    return out


# -- geometry ----------------------------------------------------------------


def _sample_bilinear(img: np.ndarray, sy: np.ndarray, sx: np.ndarray) -> np.ndarray:
    """Bilinear lookup at fractional coordinates; zero outside the source.

    ``sy`` and ``sx`` broadcast against each other (a resize passes a column and
    a row). The source gets a two-pixel zero border and the coordinates are
    clamped to [-1.5, size + 0.5], so a tap outside the source reads 0.0: a
    coordinate clamped there has both of its taps in the border, and its changed
    weights only multiply zeros. Each tap is then one flat gather.
    """
    h, w = img.shape[:2]
    padded = np.zeros((h + 4, w + 4) + img.shape[2:], dtype=np.float64)
    padded[2 : h + 2, 2 : w + 2] = img
    flat = padded.reshape((-1,) + img.shape[2:])
    sy = np.clip(sy, -1.5, h + 0.5)
    sx = np.clip(sx, -1.5, w + 0.5)
    y0 = np.floor(sy)
    x0 = np.floor(sx)
    wy = sy - y0
    wx = sx - x0
    base = (y0.astype(np.int64) + 2) * (w + 4) + (x0.astype(np.int64) + 2)
    out = np.zeros(base.shape + img.shape[2:], dtype=np.float64)
    for offset, weight in (
        (0, (1 - wy) * (1 - wx)),
        (1, (1 - wy) * wx),
        (w + 4, wy * (1 - wx)),
        (w + 5, wy * wx),
    ):
        tap = flat[offset:].take(base, axis=0)
        tap *= weight[..., None] if img.ndim == 3 else weight
        out += tap
    return out


def _finalize(out: np.ndarray, like: np.ndarray) -> np.ndarray:
    if np.issubdtype(like.dtype, np.integer):
        info = np.iinfo(like.dtype)
        out += 0.5
        np.floor(out, out=out)
        np.clip(out, info.min, info.max, out=out)
    return out.astype(like.dtype, copy=False)


def _warp_inverse_affine(img: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Resample with an inverse map: source = matrix @ (dest - center) + center."""
    h, w = img.shape[:2]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    dy = np.arange(h, dtype=np.float64)[:, None] - cy
    dx = np.arange(w, dtype=np.float64)[None, :] - cx
    sy = matrix[0, 0] * dy + matrix[0, 1] * dx + cy
    sx = matrix[1, 0] * dy + matrix[1, 1] * dx + cx
    return _finalize(_sample_bilinear(img, sy, sx), img)


@dataclass
class AugmentParams:
    """Exactly one transform per call, selected by ``kind``."""

    kind: str = "rotation"
    rotation_deg: float = 0.0
    shear_deg: float = 0.0
    flip: bool = False
    perspective_scale: float = 1.0

    def __post_init__(self):
        if self.kind not in AUGMENT_KINDS:
            raise ConfigError(f"augment kind must be one of {AUGMENT_KINDS}, got {self.kind!r}")
        if not ROTATION_RANGE[0] <= self.rotation_deg <= ROTATION_RANGE[1]:
            raise ConfigError(f"rotation {self.rotation_deg} outside {ROTATION_RANGE}")
        if not SHEAR_RANGE[0] <= self.shear_deg <= SHEAR_RANGE[1]:
            raise ConfigError(f"shear {self.shear_deg} outside {SHEAR_RANGE}")
        if not PERSPECTIVE_RANGE[0] <= self.perspective_scale <= PERSPECTIVE_RANGE[1]:
            raise ConfigError(f"perspective scale {self.perspective_scale} outside {PERSPECTIVE_RANGE}")


def augment(img: np.ndarray, params: AugmentParams) -> np.ndarray:
    """Apply the one transform ``params.kind`` names, bilinear, zero fill."""
    img = np.asarray(img)
    if params.kind == "flip":
        return np.ascontiguousarray(img[:, ::-1]) if params.flip else img.copy()
    if params.kind == "rotation":
        # inverse map rotates by -angle; y axis points down
        a = math.radians(params.rotation_deg)
        matrix = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        return _warp_inverse_affine(img, matrix)
    if params.kind == "shear":
        t = math.tan(math.radians(params.shear_deg))
        matrix = np.array([[1.0, 0.0], [-t, 1.0]])  # x_src = x_dst - tan(a) * y_off
        return _warp_inverse_affine(img, matrix)
    scale = params.perspective_scale
    matrix = np.array([[1.0 / scale, 0.0], [0.0, 1.0 / scale]])
    return _warp_inverse_affine(img, matrix)


def crop_resize(img: np.ndarray, target: int, crop_ratio: float = 0.8) -> np.ndarray:
    """Center square crop (ratio of the shorter side) then bilinear resize.

    Pair members must be passed through with identical arguments so their
    geometry stays aligned.
    """
    img = np.asarray(img)
    h, w = img.shape[:2]
    if h < 2 or w < 2:
        raise DataError(f"image {h}x{w} too small to crop")
    if not 0.0 < crop_ratio <= 1.0:
        raise ConfigError(f"crop ratio must be in (0, 1], got {crop_ratio}")
    side = max(1, int(round(min(h, w) * crop_ratio)))
    top = (h - side) // 2
    left = (w - side) // 2
    cropped = img[top : top + side, left : left + side]
    return resize_bilinear(cropped, target)


def resize_bilinear(img: np.ndarray, target: int) -> np.ndarray:
    if target < 1:
        raise ConfigError(f"resize target must be at least 1 pixel, got {target}")
    h, w = img.shape[:2]
    if (h, w) == (target, target):
        return img.copy()
    # align-corners mapping: endpoints land exactly on endpoints
    sy = (np.arange(target) * ((h - 1) / (target - 1)) if target > 1 else np.full(1, (h - 1) / 2.0))
    sx = (np.arange(target) * ((w - 1) / (target - 1)) if target > 1 else np.full(1, (w - 1) / 2.0))
    return _finalize(_sample_bilinear(img, sy[:, None], sx[None, :]), img)


# -- expansion ---------------------------------------------------------------


class SamplePair(NamedTuple):
    rgb: np.ndarray
    depth: np.ndarray
    label: int
    params: AugmentParams | None = None


def sample_augment_params(kind: str, rng) -> AugmentParams:
    """Draw one transform's parameters from the documented ranges."""
    if kind == "rotation":
        return AugmentParams(kind, rotation_deg=rng.uniform(*ROTATION_RANGE))
    if kind == "shear":
        return AugmentParams(kind, shear_deg=rng.uniform(*SHEAR_RANGE))
    if kind == "flip":
        return AugmentParams(kind, flip=True)
    if kind == "perspective":
        return AugmentParams(kind, perspective_scale=rng.uniform(*PERSPECTIVE_RANGE))
    raise ConfigError(f"unknown augment kind {kind!r}")


def augment_expand(pairs, seed, copies: int = 3) -> list[SamplePair]:
    """Each (rgb, depth, label) becomes itself plus ``copies`` transformed copies.

    Transform kinds are drawn without replacement per source pair; RGB and
    depth share the draw. Deterministic given the seed; every output record
    carries the params that produced it (None for originals).

    ``seed`` is an int or a ``np.random.Generator``. ``np.random.default_rng``
    returns a Generator unchanged, so one Generator passed to one call per
    pair draws the same sequence as one call over all the pairs.
    """
    pairs = list(pairs)
    if not pairs:
        raise DataError("augment_expand needs at least one pair")
    if not 1 <= copies <= len(AUGMENT_KINDS):
        raise ConfigError(f"copies must be 1..{len(AUGMENT_KINDS)}, got {copies}")
    rng = np.random.default_rng(seed)
    out: list[SamplePair] = []
    for pair in pairs:
        rgb, depth, label = pair[0], pair[1], pair[2]
        out.append(SamplePair(rgb, depth, int(label), None))
        kinds = [AUGMENT_KINDS[i] for i in rng.permutation(len(AUGMENT_KINDS))[:copies]]
        for kind in kinds:
            params = sample_augment_params(kind, rng)
            out.append(SamplePair(augment(rgb, params), augment(depth, params), int(label), params))
    return out


def identity_params(kind: str) -> AugmentParams:
    """Parameters under which ``kind`` is a no-op (flip=False mirrors nothing)."""
    return replace(AugmentParams(), kind=kind)
