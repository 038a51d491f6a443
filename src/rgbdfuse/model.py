"""Model assembly: backbone pair, fusion variant, classifier, checkpoints.

A ModelConfig fully determines the parameter set; every component draws its
initial weights from its own seed stream, so e.g. the classifier comes out
identical whether or not attention modules exist. Checkpoints embed the
config text and serialize every named tensor, so a load rebuilds the exact
model.
"""

from __future__ import annotations

import dataclasses
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import (
    FM_VARIANTS,
    SPATIAL_VARIANTS,
    FeatureMapAttention,
    SpatialAttention,
    feature_map_attention,
    spatial_attention,
)
from .errors import CheckpointError, ConfigError, DataError, ShapeError
from .layers import BatchNorm, ConvBackbone, DenseLayer, dense_forward, dropout
from .tensor import Tensor, atomic_write

FUSIONS = ("concat_only", "feature_map_only", "spatial_only", "two_level")
MODALITIES = ("rgbd", "rgb", "depth")

CHECKPOINT_MAGIC = b"FCKP"
CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    input_size: int = 112
    backbone_widths: tuple = (8, 16, 32, 32)
    modality: str = "rgbd"
    fusion: str = "two_level"
    fm_variant: str = "lstm_dense"
    spatial_variant: str = "conv"
    lstm_hidden: int = 64
    lstm_layers: int = 1
    blstm: bool = False
    attention_bypass: bool = False
    classifier_widths: tuple = (2048, 1024, 512)
    classes: int = 10
    dropout: float = 0.5
    seed: int = 0
    batch_size: int = 20
    learning_rate: float = 1e-3
    lr_decay: float = 0.9
    epochs: int = 50
    protocol: str = "fixed"
    fold: int = 0

    def __post_init__(self):
        self.backbone_widths = tuple(int(w) for w in self.backbone_widths)
        self.classifier_widths = tuple(int(w) for w in self.classifier_widths)
        if self.classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.classes}")
        if self.fusion not in FUSIONS:
            raise ConfigError(f"fusion must be one of {FUSIONS}, got {self.fusion!r}")
        if self.modality not in MODALITIES:
            raise ConfigError(f"modality must be one of {MODALITIES}, got {self.modality!r}")
        if self.fm_variant not in FM_VARIANTS:
            raise ConfigError(f"fm_variant must be one of {FM_VARIANTS}, got {self.fm_variant!r}")
        if self.spatial_variant not in SPATIAL_VARIANTS:
            raise ConfigError(f"spatial_variant must be one of {SPATIAL_VARIANTS}")
        if not self.backbone_widths or any(w < 1 for w in self.backbone_widths):
            raise ConfigError(f"backbone widths must be positive, got {self.backbone_widths}")
        if not self.classifier_widths or any(w < 1 for w in self.classifier_widths):
            raise ConfigError(f"classifier widths must be positive, got {self.classifier_widths}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.input_size % (2 ** len(self.backbone_widths)):
            raise ConfigError(
                f"input size {self.input_size} not divisible by 2^{len(self.backbone_widths)} stages"
            )
        if self.input_size < 2 ** len(self.backbone_widths):
            raise ConfigError(f"input size {self.input_size} is below 2^{len(self.backbone_widths)} stages")
        if self.lstm_hidden < 1:
            raise ConfigError(f"lstm_hidden must be >= 1, got {self.lstm_hidden}")
        if not 1 <= self.lstm_layers <= 3:
            raise ConfigError(f"lstm_layers must be 1..3, got {self.lstm_layers}")
        if self.blstm and self.lstm_layers != 1:
            raise ConfigError("the bidirectional variant uses exactly one layer")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 2:  # batchnorm's train mode needs 2 samples, so a batch of 1 never takes a step
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        for name in ("learning_rate", "lr_decay"):
            if not 0.0 < getattr(self, name) < float("inf"):
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        # the bound read_tensor_header puts on a record: no array holds 2^63 bytes
        if 8 * parameter_count(self) >= 1 << 63:
            raise ConfigError(f"config implies {8 * parameter_count(self)} bytes of parameters, 2^63 or more")

    @property
    def feature_extent(self) -> int:
        return self.input_size >> len(self.backbone_widths)

    @property
    def feature_channels(self) -> int:
        return self.backbone_widths[-1]

    @property
    def fused_channels(self) -> int:
        return 2 * self.feature_channels if self.modality == "rgbd" else self.feature_channels

    @property
    def classifier_in(self) -> int:
        return self.feature_extent * self.feature_extent * self.fused_channels


def config_to_text(cfg: ModelConfig) -> str:
    lines = []
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        elif isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{f.name}={v}")
    return "\n".join(lines) + "\n"


# Keys of removed fields, each with the one value every file written while it existed holds.
RETIRED_KEYS = {
    "share_backbones": "false",
    "classifier_input": "flatten",
    "decay_per_step": "false",
    "attention_activation": "sigmoid",
    "transposed_sequence": "false",
}


def config_from_text(text: str) -> ModelConfig:
    """Parse ``key=value`` lines; everything from a ``#`` to the end of its line is a comment."""
    fields = {f.name: f for f in dataclasses.fields(ModelConfig)}
    defaults = ModelConfig()
    kwargs = {}
    lines = {}  # key -> the line that gave it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno} is not key=value: {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in lines:
            raise ConfigError(f"config key {key!r} is given twice, on lines {lines[key]} and {lineno}")
        lines[key] = lineno
        if key in RETIRED_KEYS:
            if value != RETIRED_KEYS[key]:
                raise ConfigError(
                    f"config key {key!r} on line {lineno} is retired; it is read only as {RETIRED_KEYS[key]!r}, got {value!r}"
                )
            continue
        if key not in fields:
            raise ConfigError(f"unknown config key {key!r} on line {lineno}")
        current = getattr(defaults, key)
        try:
            if isinstance(current, bool):
                if value.lower() not in ("true", "false", "0", "1"):
                    raise ValueError(value)
                kwargs[key] = value.lower() in ("true", "1")
            elif isinstance(current, int):
                kwargs[key] = int(value)
            elif isinstance(current, float):
                kwargs[key] = float(value)
            elif isinstance(current, tuple):
                kwargs[key] = tuple(int(x) for x in value.split(",") if x.strip())
            else:
                kwargs[key] = value
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r} on line {lineno}: {value!r}") from exc
    return ModelConfig(**kwargs)


def load_config(path) -> ModelConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_text(text)


def save_config(path, cfg: ModelConfig) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(config_to_text(cfg))


class _Unfilled:
    """Stands in for an init generator: ``uniform`` returns an unfilled array of the shape asked."""

    @staticmethod
    def uniform(low, high, size):
        return np.empty(size)


class Model:
    """Built network: backbones + optional attention + dense classifier."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.backbone_rgb = None
        self.backbone_depth = None
        self.fm_attention = None
        self.spatial_attention = None
        self.classifier = []  # (DenseLayer, BatchNorm) pairs of the hidden blocks
        self.final = None
        self._dropout_rng = None

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, cfg: ModelConfig) -> "Model":
        return cls._assemble(cfg, draw=True)

    @classmethod
    def _assemble(cls, cfg: ModelConfig, draw: bool) -> "Model":
        """The model ``cfg`` implies; with ``draw`` false its weights are left unfilled for a
        checkpoint to overwrite, and only the dropout stream is seeded."""
        streams = np.random.SeedSequence(cfg.seed).spawn(6)
        rngs = [np.random.default_rng(s) if draw else _Unfilled for s in streams[:5]]
        model = cls(cfg)

        if cfg.modality in ("rgbd", "rgb"):
            model.backbone_rgb = ConvBackbone.init(3, cfg.backbone_widths, rngs[0])
        if cfg.modality in ("rgbd", "depth"):
            model.backbone_depth = ConvBackbone.init(3, cfg.backbone_widths, rngs[1])

        if cfg.modality == "rgbd":
            m, c = cfg.feature_extent, cfg.fused_channels
            if cfg.fusion in ("feature_map_only", "two_level"):
                model.fm_attention = FeatureMapAttention.init(
                    c,
                    m,
                    rngs[2],
                    variant=cfg.fm_variant,
                    hidden=cfg.lstm_hidden,
                    n_layers=cfg.lstm_layers,
                    blstm=cfg.blstm,
                )
                model.fm_attention.bypass = cfg.attention_bypass
            if cfg.fusion in ("spatial_only", "two_level"):
                model.spatial_attention = SpatialAttention.init(m, rngs[3], variant=cfg.spatial_variant)
                model.spatial_attention.bypass = cfg.attention_bypass

        width = cfg.classifier_in
        for w in cfg.classifier_widths:
            model.classifier.append((DenseLayer.init(width, w, rngs[4]), BatchNorm(w)))
            width = w
        model.final = DenseLayer.init(width, cfg.classes, rngs[4])
        model._dropout_rng = np.random.default_rng(streams[5])
        return model

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for prefix in ("backbone_rgb", "backbone_depth", "fm_attention", "spatial_attention"):
            comp = getattr(self, prefix)
            if comp is not None:
                out += [(f"{prefix}.{n}", p) for n, p in comp.parameters()]
        for i, (dense, bn) in enumerate(self.classifier):
            out += [(f"classifier.block{i}.dense.{n}", p) for n, p in dense.parameters()]
            out += [(f"classifier.block{i}.bn.{n}", p) for n, p in bn.parameters()]
        out += [(f"classifier.final.{n}", p) for n, p in self.final.parameters()]
        return out

    def arrays(self) -> dict[str, np.ndarray]:
        """Every array the model's state is made of, by checkpoint record name and in record
        order: each parameter's data, then the batchnorm running stats. Built on each call,
        because a train-mode batchnorm forward rebinds its running stats."""
        out = {n: p.data for n, p in self.parameters()}
        for i, (_, bn) in enumerate(self.classifier):
            out |= {f"classifier.block{i}.bn.{n}": a for n, a in bn.state()}
        return out

    # -- forward -----------------------------------------------------------

    def _fuse(self, rgb: Tensor, depth: Tensor) -> dict:
        """Each backbone the model holds run on its input, their features joined along the
        channels, then refined by the attention levels the model holds."""
        branches = {}
        if self.backbone_rgb is not None:
            branches["f_rgb"] = lambda: self.backbone_rgb.forward(rgb)
        if self.backbone_depth is not None:
            depth3 = Tensor(np.repeat(depth.data, 3, axis=-1))
            branches["f_depth"] = lambda: self.backbone_depth.forward(depth3)
        fused, parts = T.concat_branches(branches.values(), axis=-1)
        stages = dict(zip(branches, parts), f_concat=fused)
        if self.fm_attention is not None:
            stages["fm_weights"], fused = feature_map_attention(self.fm_attention, fused)
            stages["f_fm"] = fused
        if self.spatial_attention is not None:
            stages["spatial_weights"], fused = spatial_attention(self.spatial_attention, fused)
        stages["features"] = fused
        return stages

    def _head(self, features: Tensor, mode: str):
        """Classifier stack; returns (logits, third-block activations)."""
        x = T.reshape(features, (features.shape[0], int(np.prod(features.shape[1:]))))
        embedding = None
        for dense, bn in self.classifier:
            x = T.relu(dense_forward(dense, x))
            x = bn.forward(x, mode)
            x = dropout(x, self.cfg.dropout, mode, self._dropout_rng)
            embedding = x
        return dense_forward(self.final, x), embedding

    def forward(self, rgb: Tensor, depth: Tensor, mode: str = "eval") -> Tensor:
        rgb, depth = _check_inputs(self.cfg, rgb, depth)
        logits, _ = self._head(self._fuse(rgb, depth)["features"], mode)
        return logits

    def forward_features(self, rgb: Tensor, depth: Tensor) -> dict:
        """Eval-mode forward exposing the named intermediate volumes and weights."""
        rgb, depth = _check_inputs(self.cfg, rgb, depth)
        with T.no_grad():
            stages = self._fuse(rgb, depth)
            stages["logits"], stages["embedding"] = self._head(stages["features"], "eval")
        return stages

    def extract_embedding(self, rgb: Tensor, depth: Tensor) -> Tensor:
        return self.forward_features(rgb, depth)["embedding"]


def _check_inputs(cfg: ModelConfig, rgb, depth):
    rgb = rgb if isinstance(rgb, Tensor) else Tensor(rgb)
    depth = depth if isinstance(depth, Tensor) else Tensor(depth)
    s = cfg.input_size
    if rgb.ndim != 4 or rgb.shape[1:] != (s, s, 3):
        raise ShapeError(f"rgb batch must be [B x {s} x {s} x 3], got {rgb.shape}")
    if depth.ndim != 4 or depth.shape[1:] != (s, s, 1):
        raise ShapeError(f"depth batch must be [B x {s} x {s} x 1], got {depth.shape}")
    if rgb.shape[0] != depth.shape[0]:
        raise DataError(f"rgb batch {rgb.shape[0]} and depth batch {depth.shape[0]} differ")
    return rgb, depth


def build_model(cfg: ModelConfig) -> Model:
    return Model.build(cfg)


def forward(model: Model, rgb, depth, mode: str = "eval") -> Tensor:
    return model.forward(rgb, depth, mode)


def extract_embedding(model: Model, rgb, depth) -> Tensor:
    return model.extract_embedding(rgb, depth)


# -- parameter arithmetic ---------------------------------------------------


def parameter_count(cfg: ModelConfig) -> int:
    """Closed-form trainable-parameter count; must agree exactly with a built model."""

    def backbone():
        total, cin = 0, 3
        for w in cfg.backbone_widths:
            total += 9 * cin * w + w
            cin = w
        return total

    def lstm(n_in, hidden):
        return 4 * (n_in * hidden + hidden * hidden + hidden)

    m2 = cfg.feature_extent * cfg.feature_extent
    h = cfg.lstm_hidden

    total = 0
    if cfg.modality == "rgbd":
        total += 2 * backbone()
        if cfg.fusion in ("feature_map_only", "two_level"):
            if cfg.fm_variant == "dense_only":
                total += m2 * 1 + 1
            elif cfg.blstm:
                total += 2 * lstm(m2, h) + 2 * h + 1
            else:
                total += lstm(m2, h) + (cfg.lstm_layers - 1) * lstm(h, h) + h + 1
        if cfg.fusion in ("spatial_only", "two_level"):
            if cfg.spatial_variant == "conv":
                total += 2 + 1
            else:
                total += 2 * m2 * m2 + m2
    else:
        total += backbone()

    width = cfg.classifier_in
    for w in cfg.classifier_widths:
        total += width * w + w  # dense
        total += 2 * w  # batchnorm scale and shift
        width = w
    total += width * cfg.classes + cfg.classes
    return total


# -- checkpoints -------------------------------------------------------------


def save_checkpoint(model: Model, path, epoch: int = 0) -> None:
    """Container: magic 'FCKP', u32 version, length-prefixed config text, u64
    epoch, u32 record count, then (u32 name length, name, FTNS tensor) records."""
    config_bytes = config_to_text(model.cfg).encode("utf-8")
    records = model.arrays()
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(config_bytes)))
        fh.write(config_bytes)
        fh.write(struct.pack("<Q", epoch))
        fh.write(struct.pack("<I", len(records)))
        for name, a in records.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            T.write_tensor(fh, Tensor(a))


def _read_exact(fh, n, what):
    raw = fh.read(n)
    if len(raw) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return raw


def _read_text(fh, n, what):
    try:
        return _read_exact(fh, n, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"checkpoint {what} is not UTF-8 text: {exc}") from exc


def _read_header(fh):
    """Check magic and version; returns (config, epoch, record count)."""
    if _read_exact(fh, 4, "magic") != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint: bad magic")
    version = struct.unpack("<I", _read_exact(fh, 4, "version"))[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    clen = struct.unpack("<I", _read_exact(fh, 4, "config length"))[0]
    cfg = config_from_text(_read_text(fh, clen, "config"))
    epoch = struct.unpack("<Q", _read_exact(fh, 8, "epoch"))[0]
    count = struct.unpack("<I", _read_exact(fh, 4, "record count"))[0]
    return cfg, epoch, count


def _read_records(fh, count, read) -> None:
    """Call ``read(name, dims)`` with the stream at each record's tensor data.

    Malformed or repeated tensor records surface as CheckpointError naming the record.
    """
    names = set()
    for _ in range(count):
        nlen = struct.unpack("<I", _read_exact(fh, 4, "name length"))[0]
        name = _read_text(fh, nlen, "record name")
        if name in names:
            raise CheckpointError(f"tensor {name!r} appears twice in checkpoint")
        names.add(name)
        try:
            read(name, T.read_tensor_header(fh))
        except DataError as exc:
            raise CheckpointError(f"bad tensor record {name!r}: {exc}") from exc


def _open_checkpoint(path):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"cannot open checkpoint {path}: {exc}") from exc


def read_checkpoint(path):
    """Parse a checkpoint; returns (config, epoch, ordered dict name -> array)."""
    records = {}
    with _open_checkpoint(path) as fh:
        cfg, epoch, count = _read_header(fh)

        def keep(name, dims):
            records[name] = np.empty(dims)
            T.read_tensor_into(fh, records[name])

        _read_records(fh, count, keep)
    return cfg, epoch, records


def load_checkpoint(path) -> Model:
    """Rebuild the model a checkpoint describes; strict about names and shapes.

    The model is assembled without drawing initial weights, and each record is
    read straight into its parameter or state array. A config whose parameters
    cannot fit in the rest of the file is refused before anything is allocated.
    """
    loaded = set()
    with _open_checkpoint(path) as fh:
        cfg, _, count = _read_header(fh)
        need, left = 8 * parameter_count(cfg), os.fstat(fh.fileno()).st_size - fh.tell()
        if need > left:
            raise CheckpointError(f"config implies {need} bytes of parameters, {left} bytes left in the checkpoint")
        model = Model._assemble(cfg, draw=False)
        targets = model.arrays()

        def load(name, dims):
            if name not in targets:
                raise CheckpointError(f"unexpected tensor {name!r} in checkpoint")
            if dims != targets[name].shape:
                raise CheckpointError(
                    f"shape mismatch for {name!r}: checkpoint {dims}, config implies {targets[name].shape}"
                )
            T.read_tensor_into(fh, targets[name])
            loaded.add(name)

        _read_records(fh, count, load)
    for name in targets:
        if name not in loaded:
            raise CheckpointError(f"checkpoint is missing tensor {name!r}")
    return model
