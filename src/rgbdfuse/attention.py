"""Two-level attention over a fused feature volume.

Level one gates whole feature maps: each map is flattened to a vector, the
resulting sequence is encoded by an LSTM stack (or scored directly by a shared
dense layer), and a per-map score squashed to (0, 1) scales that map. Level
two gates spatial positions: channel-wise average and max maps are stacked and
reduced to a single map by one affine map (a 1x1 convolution, run as a matmul over
positions, or a dense layer over whole maps), squashed, and broadcast over channels.

Both modules run on a batch [B x M x M x C] and return weights per sample.
They take batches only: a caller holding one volume [M x M x C] passes it
through ``tensor.add_batch_axis`` and drops the axis from each output with
``tensor.drop_batch_axis``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .layers import DenseLayer, LstmLayer, _uniform, blstm_forward, dense_forward, lstm_forward
from .tensor import Tensor

FM_VARIANTS = ("lstm_dense", "dense_only")
SPATIAL_VARIANTS = ("conv", "dense")


def reshape_to_map_sequence(f: Tensor) -> Tensor:
    """Turn a batch of square volumes [B x M x M x C] into a time-major C-step sequence
    of row-major flattened maps [C x B x M^2]."""
    if f.ndim != 4:
        raise ShapeError(f"expected [B x M x M x C], got {f.shape}")
    b, m, m2, c = f.shape
    if m != m2:
        raise ShapeError(f"expected square volumes, got {f.shape}")
    return T.transpose(T.reshape(f, (b, m * m, c)), (2, 0, 1))


@dataclass
class FeatureMapAttention:
    """Per-feature-map gating weights in (0, 1) and the gated volume."""

    variant: str
    channels: int
    map_extent: int
    score: DenseLayer
    lstm_stack: list = field(default_factory=list)
    blstm_bwd: LstmLayer | None = None
    bypass: bool = False

    @classmethod
    def init(
        cls,
        channels: int,
        map_extent: int,
        rng,
        variant: str = "lstm_dense",
        hidden: int = 64,
        n_layers: int = 1,
        blstm: bool = False,
    ) -> "FeatureMapAttention":
        if variant not in FM_VARIANTS:
            raise ConfigError(f"feature-map attention variant must be one of {FM_VARIANTS}, got {variant!r}")
        m2 = map_extent * map_extent
        stack: list[LstmLayer] = []
        bwd = None
        if variant == "dense_only":
            score = DenseLayer.init(m2, 1, rng)
        else:
            stack = [LstmLayer.init(m2 if i == 0 else hidden, hidden, rng) for i in range(n_layers)]
            if blstm:
                bwd = LstmLayer.init(m2, hidden, rng)
                score = DenseLayer.init(2 * hidden, 1, rng)
            else:
                score = DenseLayer.init(hidden, 1, rng)
        return cls(variant, channels, map_extent, score, stack, bwd)

    def parameters(self):
        out = []
        for i, layer in enumerate(self.lstm_stack):
            out += [(f"lstm{i}.{n}", p) for n, p in layer.parameters()]
        if self.blstm_bwd is not None:
            out += [(f"blstm_bwd.{n}", p) for n, p in self.blstm_bwd.parameters()]
        out += [(f"score.{n}", p) for n, p in self.score.parameters()]
        return out

    def _scores(self, f: Tensor) -> Tensor:
        b, _, _, c = f.shape
        hs = reshape_to_map_sequence(f)  # [C, B, M^2]; dense_only scores it directly
        if self.blstm_bwd is not None:
            hs = blstm_forward(self.lstm_stack[0], self.blstm_bwd, hs)
        else:
            for layer in self.lstm_stack:
                hs = lstm_forward(layer, hs)
        width = hs.shape[-1]
        theta = dense_forward(self.score, T.reshape(hs, (c * b, width)))
        return T.transpose(T.reshape(theta, (c, b)), (1, 0))


def feature_map_attention(att: FeatureMapAttention, f: Tensor):
    """Return (weights, refined): W in (0,1) per map and W * f.

    ``f`` is [B x M x M x C]; the weights are [B x C].
    """
    if f.ndim != 4:
        raise ShapeError(f"expected [B x M x M x C], got {f.shape}")
    b, m, m2, c = f.shape
    if m != m2 or m != att.map_extent:
        raise ConfigError(f"attention configured for {att.map_extent}x{att.map_extent} maps, got {f.shape}")
    if c != att.channels:
        raise ConfigError(f"attention configured for {att.channels} channels, got {c}")
    if att.bypass:
        weights = Tensor(np.ones((b, c)))
    else:
        weights = T.sigmoid(att._scores(f))
    return weights, T.broadcast_mul_channel(f, weights)


@dataclass
class SpatialAttention:
    """Per-position gating weights in (0, 1) and the gated volume, from one affine map
    ``sigmoid(rows @ weights + bias)`` of the pooled [B x M x M x 2] maps. ``conv`` takes a
    row of 2 per position, so its [1 x 1 x 2 x 1] kernel is a 1x1 convolution with one bias;
    ``dense`` takes a row of 2 M^2 per sample, mapped by [2 M^2 x M^2] weights to M^2 scores."""

    variant: str
    map_extent: int
    weights: Tensor
    bias: Tensor
    bypass: bool = False

    @classmethod
    def init(cls, map_extent: int, rng, variant: str = "conv") -> "SpatialAttention":
        if variant not in SPATIAL_VARIANTS:
            raise ConfigError(f"spatial attention variant must be one of {SPATIAL_VARIANTS}, got {variant!r}")
        m2 = map_extent * map_extent
        shape = (1, 1, 2, 1) if variant == "conv" else (2 * m2, m2)
        weights = T.parameter(_uniform(rng, shape, np.prod(shape[:-1])))
        return cls(variant, map_extent, weights, T.parameter(np.zeros(shape[-1])))

    def parameters(self):
        names = ("conv.kernels", "conv.bias") if self.variant == "conv" else ("dense.w", "dense.b")
        return list(zip(names, (self.weights, self.bias)))


def spatial_attention(att: SpatialAttention, f: Tensor):
    """Return (weights, refined): W in (0,1) per position and W * f.

    ``f`` is [B x M x M x C]; the weights are [B x M x M].
    """
    if f.ndim != 4:
        raise ShapeError(f"expected [B x M x M x C], got {f.shape}")
    b, m, m2, _ = f.shape
    if m != m2 or m != att.map_extent:
        raise ConfigError(f"spatial attention configured for {att.map_extent}x{att.map_extent}, got {f.shape}")
    if att.bypass:
        weights = Tensor(np.ones((b, m, m)))
    else:
        pooled = T.channel_concat(T.channel_pool(f, "avg"), T.channel_pool(f, "max"))  # [B,M,M,2]
        rows = T.reshape(pooled, (b * m * m, 2) if att.variant == "conv" else (b, 2 * m * m))
        theta = T.matmul(rows, T.reshape(att.weights, (rows.shape[1], -1))) + att.bias
        weights = T.sigmoid(T.reshape(theta, (b, m, m)))
    return weights, T.broadcast_mul_spatial(f, weights)


class TwoLevelResult(NamedTuple):
    refined: Tensor
    fm_weights: Tensor
    spatial_weights: Tensor
    fm_refined: Tensor


def two_level_attention(fm: FeatureMapAttention, sp: SpatialAttention, f_concat: Tensor) -> TwoLevelResult:
    """Feature-map gating followed by spatial gating; both weight tensors kept."""
    fm_weights, fm_refined = feature_map_attention(fm, f_concat)
    sp_weights, refined = spatial_attention(sp, fm_refined)
    return TwoLevelResult(refined, fm_weights, sp_weights, fm_refined)


def write_weights_csv(stream, sample_ids, weights: Tensor) -> None:
    """Dump one batch of attention weights [B x ...] as rows of sample_id,weight_index,value."""
    if weights.ndim < 2 or len(sample_ids) != weights.shape[0]:
        raise ShapeError(f"{len(sample_ids)} sample ids for a batch of weights {weights.shape}")
    for sid, row in zip(sample_ids, weights.data.reshape(weights.shape[0], -1)):
        for idx, value in enumerate(row):
            stream.write(f"{sid},{idx},{value:.17g}\n")
