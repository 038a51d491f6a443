"""Training loop, Adam, rank-1 evaluation, gradient checking, ablation grid.

Runs are deterministic given (config, seed): batch order, dropout masks, and
parameter initialization all derive from explicit seed streams. The best
test-accuracy parameters are kept (and written as a checkpoint when an output
directory is given); reports carry per-epoch metrics plus summary statistics
of the feature-map attention weights split by source modality.
"""

from __future__ import annotations

import csv
import dataclasses
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import DatasetManifest, make_batches, protocol_split
from .errors import ConfigError, TrainingError
from .model import Model, ModelConfig, atomic_write, build_model, config_to_text, save_checkpoint
from .tensor import Tensor

REPORT_COLUMNS = ("seed", "epoch", "train_loss", "train_acc", "test_acc", "effective_lr")
SUMMARY_COLUMNS = (
    "seed",
    "best_epoch",
    "best_test_acc",
    "final_train_acc",
    "fm_weight_rgb_mean",
    "fm_weight_depth_mean",
    "wall_time_s",
    "aborted",
)
ABLATION_COLUMNS = (
    "table",
    "variant",
    "n_seeds",
    "mean_test_acc",
    "std_test_acc",
    "seed_accs",
    "fm_weight_rgb_mean",
    "fm_weight_depth_mean",
)


class Adam:
    """Adam with bias correction; learning rate decays per completed epoch."""

    # Elements per block of the update, so its two scratch buffers stay in L2 cache
    # (on the desk head 2^15 measured fastest, 2^14 and 2^16 within 8%, 2^13 and 2^17 slower).
    BLOCK = 1 << 15

    def __init__(self, params, lr, decay=1.0, beta1=0.9, beta2=0.999, eps=1e-8, decay_per_step=False):
        self.params = list(params)  # (name, Tensor)
        self.lr = lr
        self.decay = decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.decay_per_step = decay_per_step
        self.t = 0
        self.epoch = 0  # completed epochs, set by the training loop
        self.first_moments = {n: np.zeros(p.shape) for n, p in self.params}
        self.second_moments = {n: np.zeros(p.shape) for n, p in self.params}

    def effective_lr(self) -> float:
        exponent = self.t if self.decay_per_step else self.epoch
        return self.lr * self.decay**exponent

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """One update; a non-finite gradient raises TrainingError before anything changes."""
        for name, p in self.params:
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise TrainingError(f"non-finite gradient for parameter {name!r}")
        self.t += 1
        lr = self.effective_lr()
        b1, b2, eps = self.beta1, self.beta2, self.eps
        c1, c2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        scratch = np.empty((2, self.BLOCK))
        for name, p in self.params:
            if not p.data.flags.c_contiguous:
                p.data = np.ascontiguousarray(p.data)
            g = p.grad.reshape(-1) if p.grad is not None else np.zeros(p.size)
            m = self.first_moments[name].reshape(-1)
            v = self.second_moments[name].reshape(-1)
            w = p.data.reshape(-1)
            for lo in range(0, w.size, self.BLOCK):
                hi = min(lo + self.BLOCK, w.size)
                gb, mb, vb, wb = g[lo:hi], m[lo:hi], v[lo:hi], w[lo:hi]
                s1, s2 = scratch[0, : hi - lo], scratch[1, : hi - lo]
                # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
                mb *= b1
                np.multiply(gb, 1.0 - b1, out=s1)
                mb += s1
                vb *= b2
                np.multiply(gb, 1.0 - b2, out=s1)
                s1 *= gb
                vb += s1
                # w -= lr (m / c1) / (sqrt(v / c2) + eps)
                np.divide(mb, c1, out=s1)
                s1 *= lr
                np.divide(vb, c2, out=s2)
                np.sqrt(s2, out=s2)
                s2 += eps
                s1 /= s2
                wb -= s1


def adam_step(state: Adam) -> None:
    """One update from the gradients currently stored on the parameters."""
    state.step()


# -- evaluation -----------------------------------------------------------------


def evaluate(model: Model, records, batch_size: int | None = None):
    """Rank-1 accuracy and an N x N confusion-count matrix over the records."""
    if not records:
        raise ConfigError("evaluate needs at least one record")
    batch_size = batch_size or model.cfg.batch_size
    n = model.cfg.classes
    confusion = np.zeros((n, n), dtype=np.int64)
    for batch in make_batches(records, batch_size, seed=0):
        with T.no_grad():
            logits = model.forward(batch.rgb, batch.depth, "eval")
        preds = logits.data.argmax(axis=1)
        for truth, pred in zip(batch.labels, preds):
            confusion[truth, pred] += 1
    accuracy = float(np.trace(confusion) / confusion.sum())
    return accuracy, confusion


def attention_weight_means(model: Model, records, batch_size: int | None = None):
    """Mean feature-map attention weight over RGB- vs depth-derived channels."""
    if model.fm_attention is None or model.cfg.modality != "rgbd":
        return None
    batch_size = batch_size or model.cfg.batch_size
    k = model.cfg.feature_channels
    total = np.zeros(2 * k)
    count = 0
    for batch in make_batches(records, batch_size, seed=0):
        stages = model.forward_features(batch.rgb, batch.depth)
        w = stages["fm_weights"].data
        total += w.sum(axis=0)
        count += w.shape[0]
    mean = total / count
    return float(mean[:k].mean()), float(mean[k:].mean())


# -- reports ----------------------------------------------------------------------


@dataclass
class EpochStats:
    epoch: int
    train_loss: float | None
    train_acc: float | None
    test_acc: float
    effective_lr: float


@dataclass
class RunReport:
    config_text: str
    seed: int
    epochs: list = field(default_factory=list)
    best_epoch: int = 0
    best_test_acc: float = 0.0
    fm_weight_rgb_mean: float | None = None
    fm_weight_depth_mean: float | None = None
    aborted: bool = False
    wall_time_s: float = 0.0

    def canonical(self) -> dict:
        """Everything deterministic given (config, seed); wall time excluded."""
        out = dataclasses.asdict(self)
        out.pop("wall_time_s")
        return out

    def write_csv(self, path) -> None:
        with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(REPORT_COLUMNS)
            for e in self.epochs:
                writer.writerow(
                    [
                        self.seed,
                        e.epoch,
                        "" if e.train_loss is None else f"{e.train_loss:.17g}",
                        "" if e.train_acc is None else f"{e.train_acc:.17g}",
                        f"{e.test_acc:.17g}",
                        f"{e.effective_lr:.17g}",
                    ]
                )

    def write_summary_csv(self, path) -> None:
        final_train = next((e.train_acc for e in reversed(self.epochs) if e.train_acc is not None), None)
        with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(SUMMARY_COLUMNS)
            writer.writerow(
                [
                    self.seed,
                    self.best_epoch,
                    f"{self.best_test_acc:.17g}",
                    "" if final_train is None else f"{final_train:.17g}",
                    "" if self.fm_weight_rgb_mean is None else f"{self.fm_weight_rgb_mean:.17g}",
                    "" if self.fm_weight_depth_mean is None else f"{self.fm_weight_depth_mean:.17g}",
                    f"{self.wall_time_s:.3f}",
                    str(self.aborted).lower(),
                ]
            )


# -- training ---------------------------------------------------------------------


def _epoch_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence((seed, epoch)).generate_state(1)[0])


def _snapshot(model: Model):
    return {n: p.data.copy() for n, p in model.parameters()} | {
        n: a.copy() for n, a in model.state_arrays()
    }


def _restore(model: Model, snapshot) -> None:
    for n, p in model.parameters():
        p.data[...] = snapshot[n]
    for n, a in model.state_arrays():
        a[...] = snapshot[n]


def train(model: Model, manifest: DatasetManifest, cfg: ModelConfig | None = None, seed: int | None = None, out_dir=None):
    """Adam training with per-epoch evaluation and best-checkpoint retention.

    Returns (RunReport, checkpoint path or None). On divergence (a non-finite
    loss or gradient) the run stops, the best parameters are restored, the
    reports are written, and TrainingError is raised.
    """
    cfg = cfg or model.cfg
    seed = cfg.seed if seed is None else seed
    protocol = f"fivefold:{cfg.fold}" if cfg.protocol == "fivefold" else cfg.protocol
    train_records, test_records = protocol_split(manifest, protocol)

    optimizer = Adam(
        model.parameters(), cfg.learning_rate, cfg.lr_decay, decay_per_step=cfg.decay_per_step
    )
    out_dir = Path(out_dir) if out_dir is not None else None
    ckpt_path = out_dir / "best.ckpt" if out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    report = RunReport(config_text=config_to_text(cfg), seed=seed)

    def record_best(acc, epoch):
        nonlocal best
        if best is None or acc > best[0]:
            best = (acc, epoch, _snapshot(model))
            report.best_epoch = epoch
            report.best_test_acc = acc
            if ckpt_path:
                save_checkpoint(model, ckpt_path, epoch=epoch)

    best = None
    acc0, _ = evaluate(model, test_records, cfg.batch_size)
    report.epochs.append(EpochStats(0, None, None, acc0, optimizer.effective_lr()))
    record_best(acc0, 0)

    failure = None  # why the run diverged
    for epoch in range(1, cfg.epochs + 1):
        optimizer.epoch = epoch - 1  # completed epochs drive the decay schedule
        loss_sum = 0.0
        hits = 0
        seen = 0
        for batch in make_batches(train_records, cfg.batch_size, seed=_epoch_seed(seed, epoch)):
            if batch.labels.size < 2:
                continue  # batchnorm train mode needs at least 2 samples
            logits = model.forward(batch.rgb, batch.depth, "train")
            loss = T.cross_entropy(logits, batch.labels)
            if not np.isfinite(loss.item()):
                failure = "loss became non-finite"
                break
            optimizer.zero_grad()
            T.backward(loss, [p for _, p in optimizer.params])
            try:
                optimizer.step()
            except TrainingError as exc:
                failure = str(exc)
                break
            b = batch.labels.size
            loss_sum += loss.item() * b
            hits += int((logits.data.argmax(axis=1) == batch.labels).sum())
            seen += b
        if failure:
            report.aborted = True
            break
        test_acc, _ = evaluate(model, test_records, cfg.batch_size)
        report.epochs.append(
            EpochStats(epoch, loss_sum / max(seen, 1), hits / max(seen, 1), test_acc, optimizer.effective_lr())
        )
        record_best(test_acc, epoch)

    _restore(model, best[2])
    stats = attention_weight_means(model, test_records, cfg.batch_size)
    if stats is not None:
        report.fm_weight_rgb_mean, report.fm_weight_depth_mean = stats
    report.wall_time_s = time.perf_counter() - started

    if out_dir:
        report.write_csv(out_dir / "report.csv")
        report.write_summary_csv(out_dir / "summary.csv")
        with atomic_write(out_dir / "config.txt", "w", encoding="utf-8") as fh:
            fh.write(report.config_text)
    if failure:
        raise TrainingError(f"{failure}; best checkpoint from epoch {report.best_epoch} retained")
    return report, ckpt_path


# -- gradient checking ---------------------------------------------------------------


GRADCHECK_VARIANTS = {
    "two_level": {},
    "concat_only": {"fusion": "concat_only"},
    "feature_map_only": {"fusion": "feature_map_only"},
    "spatial_only": {"fusion": "spatial_only"},
    "dense_attention": {"fm_variant": "dense_only", "spatial_variant": "dense"},
    "lstm2": {"lstm_layers": 2},
    "lstm3": {"lstm_layers": 3},
    "blstm": {"blstm": True},
    "transposed": {"transposed_sequence": True},
}


def gradcheck_config(variant: str = "two_level") -> ModelConfig:
    """Toy double-precision model: 16x16 inputs, M=2, C=8, 2 classes."""
    if variant not in GRADCHECK_VARIANTS:
        raise ConfigError(f"unknown gradcheck variant {variant!r}; one of {sorted(GRADCHECK_VARIANTS)}")
    return ModelConfig(
        input_size=16,
        backbone_widths=(2, 3, 4),
        classifier_widths=(16, 12, 8),
        lstm_hidden=8,
        classes=2,
        dropout=0.0,
        batch_size=2,
        **GRADCHECK_VARIANTS[variant],
    )


@dataclass
class GroupResult:
    name: str
    checked: int
    max_rel_err: float
    max_abs_err: float
    passed: bool


@dataclass
class GradcheckReport:
    variant: str
    groups: list

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.groups)

    @property
    def max_rel_err(self) -> float:
        return max((g.max_rel_err for g in self.groups), default=0.0)

    def lines(self):
        for g in self.groups:
            status = "PASS" if g.passed else "FAIL"
            yield f"{status} {g.name}: {g.checked} coords, max rel err {g.max_rel_err:.3e}"


def gradcheck(
    cfg: ModelConfig | None = None,
    seed: int = 0,
    variant: str = "two_level",
    max_coords: int = 500,
    tolerance: float = 1e-4,
    h: float = 1e-5,
    atol: float = 1e-9,
    rel_floor: float = 1e-6,
) -> GradcheckReport:
    """Backward pass versus central finite differences on a toy model.

    Dropout is off and batchnorm runs on frozen (eval) statistics so the loss
    is a deterministic function of the parameters. Per parameter group, up to
    ``max_coords`` coordinates are probed; a coordinate passes on relative
    error < tolerance, or on absolute error < ``atol`` where the gradient is
    too small for finite differences to resolve. Reported relative errors
    cover coordinates above ``rel_floor``; below it the central-difference
    roundoff (~1e-11 at h=1e-5) dominates the quotient.
    """
    cfg = cfg or gradcheck_config(variant)
    model = build_model(cfg, seed)
    rng = np.random.default_rng(seed + 1)
    b = max(2, cfg.batch_size)
    rgb = Tensor(rng.random((b, cfg.input_size, cfg.input_size, 3)))
    depth = Tensor(rng.random((b, cfg.input_size, cfg.input_size, 1)))
    labels = [i % cfg.classes for i in range(b)]

    def loss_value() -> float:
        with T.no_grad():
            return T.cross_entropy(model.forward(rgb, depth, "eval"), labels).item()

    params = model.parameters()
    for _, p in params:
        p.zero_grad()
    loss = T.cross_entropy(model.forward(rgb, depth, "eval"), labels)
    T.backward(loss, [p for _, p in params])

    coord_rng = np.random.default_rng(seed + 2)
    groups = []
    for name, p in params:
        if not p.data.flags["C_CONTIGUOUS"]:
            p.data = np.ascontiguousarray(p.data)
        flat = p.data.reshape(-1)
        grad = p.grad.reshape(-1)
        if flat.size <= max_coords:
            coords = np.arange(flat.size)
        else:
            coords = coord_rng.choice(flat.size, size=max_coords, replace=False)
        max_rel = 0.0
        max_abs = 0.0
        ok = True
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + h
            hi = loss_value()
            flat[idx] = orig - h
            lo = loss_value()
            flat[idx] = orig
            fd = (hi - lo) / (2.0 * h)
            a = grad[idx]
            diff = abs(a - fd)
            scale = max(abs(a), abs(fd))
            max_abs = max(max_abs, diff)
            if scale > rel_floor:
                max_rel = max(max_rel, diff / scale)
            if diff > max(tolerance * scale, atol):
                ok = False
        groups.append(GroupResult(name, len(coords), max_rel, max_abs, ok))
    return GradcheckReport(variant, groups)


# -- ablation ----------------------------------------------------------------------------


ABLATION_GRID = (
    ("table5", "rgb_only", {"modality": "rgb", "fusion": "concat_only"}),
    ("table5", "depth_only", {"modality": "depth", "fusion": "concat_only"}),
    ("table5", "concat", {"fusion": "concat_only"}),
    ("table5", "feature_map_attention", {"fusion": "feature_map_only"}),
    ("table5", "spatial_attention", {"fusion": "spatial_only"}),
    ("table5", "two_level_attention", {"fusion": "two_level"}),
    ("table6", "fm_dense", {"fusion": "feature_map_only", "fm_variant": "dense_only"}),
    ("table6", "fm_lstm_dense", {"fusion": "feature_map_only", "fm_variant": "lstm_dense"}),
    ("table6", "spatial_dense", {"fusion": "spatial_only", "spatial_variant": "dense"}),
    ("table6", "spatial_conv", {"fusion": "spatial_only", "spatial_variant": "conv"}),
    (
        "table6",
        "two_level_lstm_dense_conv",
        {"fusion": "two_level", "fm_variant": "lstm_dense", "spatial_variant": "conv"},
    ),
    ("table7", "lstm_1_layer", {"fusion": "two_level", "lstm_layers": 1}),
    ("table7", "lstm_2_layers", {"fusion": "two_level", "lstm_layers": 2}),
    ("table7", "lstm_3_layers", {"fusion": "two_level", "lstm_layers": 3}),
    ("table7", "blstm_1_layer", {"fusion": "two_level", "blstm": True}),
)


@dataclass
class AblationRow:
    table: str
    variant: str
    seeds: list
    accs: list
    fm_rgb: list
    fm_depth: list

    @property
    def mean_acc(self) -> float:
        return float(np.mean(self.accs))

    @property
    def std_acc(self) -> float:
        return float(np.std(self.accs))


def ablate(manifest: DatasetManifest, base_cfg: ModelConfig, seeds, out_csv=None) -> list[AblationRow]:
    """Train and evaluate every variant row of the three ablation tables.

    Emits mean and std of best test accuracy over the seeds, plus the mean
    feature-map attention weight per source modality where applicable.
    """
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("ablate needs at least one seed")
    rows = []
    for table, variant, overrides in ABLATION_GRID:
        row = AblationRow(table, variant, seeds, [], [], [])
        for seed in seeds:
            cfg = replace(base_cfg, seed=seed, **overrides)
            model = build_model(cfg)
            report, _ = train(model, manifest, cfg, seed)
            row.accs.append(report.best_test_acc)
            if report.fm_weight_rgb_mean is not None:
                row.fm_rgb.append(report.fm_weight_rgb_mean)
                row.fm_depth.append(report.fm_weight_depth_mean)
        rows.append(row)
    if out_csv is not None:
        write_ablation_csv(out_csv, rows)
    return rows


def write_ablation_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ABLATION_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row.table,
                    row.variant,
                    len(row.seeds),
                    f"{row.mean_acc:.6f}",
                    f"{row.std_acc:.6f}",
                    ";".join(f"{a:.6f}" for a in row.accs),
                    f"{np.mean(row.fm_rgb):.6f}" if row.fm_rgb else "",
                    f"{np.mean(row.fm_depth):.6f}" if row.fm_depth else "",
                ]
            )
