"""Parameterized layers: dense, LSTM/BLSTM, conv backbone, batchnorm, dropout.

Initialization follows fan-in-scaled uniform draws; LSTM gate parameters are
serialized in (input, forget, cell, output) order and the forget-gate bias
starts at +1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError, UsageError
from .tensor import Tensor


def _uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


@dataclass
class DenseLayer:
    weights: Tensor  # [in x out]
    bias: Tensor  # [out]

    @classmethod
    def init(cls, n_in: int, n_out: int, rng) -> "DenseLayer":
        return cls(T.parameter(_uniform(rng, (n_in, n_out), n_in)), T.parameter(np.zeros(n_out)))

    @property
    def n_in(self) -> int:
        return self.weights.shape[0]

    @property
    def n_out(self) -> int:
        return self.weights.shape[1]

    def parameters(self):
        return [("w", self.weights), ("b", self.bias)]


def dense_forward(layer: DenseLayer, x: Tensor) -> Tensor:
    """x [B x in] -> x W + b, bias broadcast over the batch."""
    if x.ndim != 2 or x.shape[1] != layer.n_in:
        raise ShapeError(f"dense layer expects [B x {layer.n_in}], got {x.shape}")
    return T.matmul(x, layer.weights) + layer.bias


_GATES = ("i", "f", "c", "o")


@dataclass
class LstmLayer:
    """One LSTM cell's parameters; gates ordered (input, forget, cell, output)."""

    w: dict  # gate -> input weights [in x H]
    u: dict  # gate -> recurrent weights [H x H]
    b: dict  # gate -> bias [H]
    hidden: int

    @classmethod
    def init(cls, n_in: int, hidden: int, rng) -> "LstmLayer":
        w = {g: T.parameter(_uniform(rng, (n_in, hidden), n_in)) for g in _GATES}
        u = {g: T.parameter(_uniform(rng, (hidden, hidden), hidden)) for g in _GATES}
        b = {g: T.parameter(np.full(hidden, 1.0 if g == "f" else 0.0)) for g in _GATES}
        return cls(w, u, b, hidden)

    @property
    def n_in(self) -> int:
        return self.w["i"].shape[0]

    def parameters(self):
        out = []
        for g in _GATES:
            out += [(f"w{g}", self.w[g]), (f"u{g}", self.u[g]), (f"b{g}", self.b[g])]
        return out


def lstm_forward(layer: LstmLayer, seq: Tensor) -> Tensor:
    """Run the recurrence over seq [T x B x in] from zero state.

    The gates run packed in (i, f, c, o) order: the input projection of every step plus
    the bias is one GEMM against W [in x 4H] and one add of b [4H], and each step adds
    h U (U [H x 4H]), then splits the sum into the four gates. Returns the hidden state
    at every step: [T x B x H].
    """
    if seq.ndim != 3 or seq.shape[0] < 1:
        raise ShapeError(f"lstm expects [T x B x in] with T >= 1, got {seq.shape}")
    if seq.shape[2] != layer.n_in:
        raise ShapeError(f"lstm configured for width {layer.n_in}, got steps of width {seq.shape[2]}")
    steps, batch, hidden = seq.shape[0], seq.shape[1], layer.hidden
    w, u, b = (T.concat([m[g] for g in _GATES], axis=-1) for m in (layer.w, layer.u, layer.b))
    xw = T.matmul(T.reshape(seq, (steps * batch, layer.n_in)), w) + b  # step t is rows t*B : (t+1)*B
    gates = [(slice(None), slice(k * hidden, (k + 1) * hidden)) for k in range(4)]
    h = Tensor(np.zeros((batch, hidden)))
    c = Tensor(np.zeros((batch, hidden)))
    outputs = []
    for t in range(steps):
        z = T.take(xw, slice(t * batch, (t + 1) * batch)) + T.matmul(h, u)
        zi, zf, zc, zo = (T.take(z, key) for key in gates)
        c = T.sigmoid(zf) * c + T.sigmoid(zi) * T.tanh(zc)
        h = T.sigmoid(zo) * T.tanh(c)
        outputs.append(h)
    return T.reshape(T.concat(outputs, axis=0), (steps, batch, hidden))


def blstm_forward(fwd: LstmLayer, bwd: LstmLayer, seq: Tensor) -> Tensor:
    """Bidirectional pass: per-step concat of forward and re-aligned backward states."""
    if fwd.hidden != bwd.hidden:
        raise ConfigError(f"blstm halves disagree on hidden size: {fwd.hidden} vs {bwd.hidden}")
    forward = lstm_forward(fwd, seq)
    reverse = T.take(lstm_forward(bwd, T.take(seq, slice(None, None, -1))), slice(None, None, -1))
    return T.concat([forward, reverse], axis=2)


class BatchNorm:
    """Per-feature normalization over the batch axis of [B x C] activations."""

    MOMENTUM = 0.1  # weight of the batch statistics in the running ones
    EPS = 1e-5

    def __init__(self, channels: int):
        self.scale = T.parameter(np.ones(channels))
        self.shift = T.parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.channels = channels

    def parameters(self):
        return [("scale", self.scale), ("shift", self.shift)]

    def state(self):
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]

    def forward(self, x: Tensor, mode: str) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.channels:
            raise ShapeError(f"batchnorm expects [B x {self.channels}], got {x.shape}")
        if mode == "train":
            if x.shape[0] < 2:
                raise UsageError("batchnorm train mode needs a batch of at least 2")
            mu = T.tmean(x, axis=0)
            centered = x - mu
            var = T.tmean(centered * centered, axis=0)
            normed = centered / T.sqrt(var + Tensor(self.EPS))
            m = self.MOMENTUM
            self.running_mean = (1 - m) * self.running_mean + m * mu.data
            self.running_var = (1 - m) * self.running_var + m * var.data
            return normed * self.scale + self.shift
        if mode == "eval":
            denom = Tensor(np.sqrt(self.running_var + self.EPS))
            return (x - Tensor(self.running_mean)) / denom * self.scale + self.shift
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")


def batchnorm_forward(bn: BatchNorm, x: Tensor, mode: str) -> Tensor:
    return bn.forward(x, mode)


def dropout(x: Tensor, rate: float, mode: str, rng) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-rate) at train time; eval is identity."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if mode == "eval":
        return x
    if mode != "train":
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    keep = rng.random(x.shape) >= rate
    return x * Tensor(keep / (1.0 - rate))


def maxpool2d(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 spatial max pooling."""
    return T.maxpool2x2(x)


@dataclass
class ConvBackbone:
    """A VGG-flavoured stack: per stage one 3x3 same-padded conv, a 2x2 max pool and a relu.

    An input of extent S comes out as S / 2^stages x same x last-width.
    """

    kernels: list = field(default_factory=list)
    biases: list = field(default_factory=list)
    widths: tuple = ()

    @classmethod
    def init(cls, in_channels: int, widths, rng) -> "ConvBackbone":
        widths = tuple(int(w) for w in widths)
        if not widths or any(w < 1 for w in widths):
            raise ConfigError(f"backbone widths must be positive, got {widths}")
        kernels, biases = [], []
        cin = in_channels
        for w in widths:
            kernels.append(T.parameter(_uniform(rng, (3, 3, cin, w), 9 * cin)))
            biases.append(T.parameter(np.zeros(w)))
            cin = w
        return cls(kernels, biases, widths)

    def parameters(self):
        out = []
        for i, (k, b) in enumerate(zip(self.kernels, self.biases)):
            out += [(f"stage{i}.kernels", k), (f"stage{i}.bias", b)]
        return out

    def forward(self, x: Tensor) -> Tensor:
        for k, b in zip(self.kernels, self.biases):
            # relu after the pool: both are monotone, so values and gradients are the same on 4x less data
            x = T.conv_pool_relu(x, k, b)
        return x
