"""Training loop, Adam, rank-1 evaluation, gradient checking, ablation grid.

Runs are deterministic given (config, seed): batch order, dropout masks, and
parameter initialization all derive from explicit seed streams. The best
test-accuracy parameters are kept (and written as a checkpoint when an output
directory is given); reports carry per-epoch metrics plus the best epoch's
mean feature-map attention weights split by source modality.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import DatasetManifest, make_batches, protocol_split
from .errors import ConfigError, DataError, ShapeError, TrainingError
from .model import Model, ModelConfig, build_model, config_to_text, save_checkpoint, save_config
from .tensor import Tensor, atomic_write

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
    """Adam with bias correction and one step size ``lr``, which the caller may change between steps.

    A step checks, then updates, the parameters' blocks in two halves of about equal
    element count, each pass through ``_run_halves``."""

    # Elements per block of the update, so its scratch buffer stays in L2 cache
    # (on the desk head 2^15 measured fastest, 2^14 and 2^16 within 8%, 2^13 and 2^17 slower).
    BLOCK = 1 << 15
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, lr):
        self.params = list(params)  # (name, Tensor)
        self.lr = lr
        self.t = 0
        self.first_moments = {n: np.zeros(p.shape) for n, p in self.params}
        self.second_moments = {n: np.zeros(p.shape) for n, p in self.params}
        self._halves = _halves([p.size for _, p in self.params], self.BLOCK)

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """One update; a non-finite gradient raises TrainingError, naming the first such
        parameter, before anything changes."""
        grads = [None if p.grad is None else p.grad.reshape(-1) for _, p in self.params]
        found = _run_halves([functools.partial(_first_non_finite, grads, h) for h in self._halves])
        bad = [i for i in found if i is not None]
        if bad:  # the first half's find comes first in params order
            raise TrainingError(f"non-finite gradient for parameter {self.params[bad[0]][0]!r}")
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        c1, c2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        # Kingma & Ba's section-2 form (arXiv 1412.6980): the bias corrections fold into two scalars
        alpha, eps_hat = self.lr * np.sqrt(c2) / c1, self.EPS * np.sqrt(c2)
        for _, p in self.params:
            if not p.data.flags.c_contiguous:
                p.data = np.ascontiguousarray(p.data)
        flats = [
            (g, self.first_moments[n].reshape(-1), self.second_moments[n].reshape(-1), p.data.reshape(-1))
            for g, (n, p) in zip(grads, self.params)
        ]

        def update(blocks):  # through one scratch buffer; a missing gradient counts as 0
            scratch = np.empty(self.BLOCK)
            for i, lo, hi in blocks:
                g, m, v, w = flats[i]
                gb = np.zeros(hi - lo) if g is None else g[lo:hi]
                mb, vb, wb, s = m[lo:hi], v[lo:hi], w[lo:hi], scratch[: hi - lo]
                # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
                mb *= b1
                np.multiply(gb, 1.0 - b1, out=s)
                mb += s
                vb *= b2
                np.multiply(gb, 1.0 - b2, out=s)
                s *= gb
                vb += s
                # w -= alpha m / (sqrt(v) + eps_hat)
                np.sqrt(vb, out=s)
                s += eps_hat
                np.divide(mb, s, out=s)
                s *= alpha
                wb -= s

        _run_halves([functools.partial(update, h) for h in self._halves])


def _halves(sizes, block):
    """The blocks ``(array index, lo, hi)`` of flat arrays of these sizes, ``block`` elements
    at most, in order and cut into two halves of about equal element count."""
    blocks = [(i, lo, min(lo + block, n)) for i, n in enumerate(sizes) for lo in range(0, n, block)]
    ends = np.cumsum([hi - lo for _, lo, hi in blocks])
    cut = int(np.searchsorted(ends, ends[-1] / 2)) + 1 if blocks else 0
    return blocks[:cut], blocks[cut:]


def _run_halves(calls) -> list:
    """The results of ``calls``, run on the branch worker where this process already has
    one, else one after the other: a process that never ran two branches (an ``rgb`` or
    ``depth`` run) makes no worker here, so its BLAS keeps its own thread count."""
    return T._run_branches(calls) if T._has_branch_worker() else [call() for call in calls]


def _first_non_finite(grads, blocks):
    """The index of the first array of ``grads`` (flat, or None) with a non-finite element
    in ``blocks``, or None; checked through one bool buffer, so no full-size temporary."""
    finite = np.empty(Adam.BLOCK, dtype=bool)
    for i, lo, hi in blocks:
        if grads[i] is not None:
            ok = np.isfinite(grads[i][lo:hi], out=finite[: hi - lo])
            if not ok.all():
                return i
    return None


def adam_step(state: Adam) -> None:
    """One update from the gradients currently stored on the parameters."""
    state.step()


# -- evaluation -----------------------------------------------------------------


def eval_stages(model: Model, records):
    """The one eval loop: ``(batch, model.forward_features(...))`` over fixed, seed-0 batches."""
    if not records:
        raise ConfigError("evaluation needs at least one record")
    return ((b, model.forward_features(b.rgb, b.depth)) for b in make_batches(records, model.cfg.batch_size, seed=0))


def _evaluate(model: Model, records):
    """One eval pass: rank-1 accuracy, N x N confusion counts and ``attention_weight_means``."""
    n, k = model.cfg.classes, model.cfg.feature_channels
    confusion = np.zeros((n, n), dtype=np.int64)
    total = np.zeros(2 * k)
    count = 0
    for batch, stages in eval_stages(model, records):
        for sid, label in zip(batch.sample_ids, batch.labels):
            if not 0 <= label < n:
                raise DataError(f"label {int(label)} of sample {sid} out of range [0, {n})")
        np.add.at(confusion, (batch.labels, stages["logits"].data.argmax(axis=1)), 1)
        if "fm_weights" in stages:
            w = stages["fm_weights"].data
            total += w.sum(axis=0)
            count += w.shape[0]
        del batch, stages  # the next batch's forward need not hold this one's images and volumes
    accuracy = float(np.trace(confusion) / confusion.sum())
    if not count:
        return accuracy, confusion, None
    mean = total / count
    return accuracy, confusion, (float(mean[:k].mean()), float(mean[k:].mean()))


def evaluate(model: Model, records):
    """Rank-1 accuracy and an N x N confusion-count matrix over the records."""
    return _evaluate(model, records)[:2]


def attention_weight_means(model: Model, records):
    """Mean feature-map attention weight over (RGB-, depth-derived) channels; None without that level."""
    return _evaluate(model, records)[2]


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
        best = [self.best_epoch, f"{self.best_test_acc:.17g}"] if self.epochs else ["", ""]  # empty: none evaluated
        with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(SUMMARY_COLUMNS)
            writer.writerow(
                [
                    self.seed,
                    *best,
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


def _flat_arrays(model: Model) -> list[np.ndarray]:
    """Flat views of ``model.arrays()``, in record order; each is C-contiguous (built so,
    kept so by Adam, rebound to fresh arrays by batchnorm), so a view writes through."""
    return [a.reshape(-1) for a in model.arrays().values()]


def _copy_halves(dst, src, halves) -> None:
    """``dst[i][lo:hi] = src[i][lo:hi]`` for the blocks of both ``halves``, through ``_run_halves``."""

    def copy(blocks):
        for i, lo, hi in blocks:
            dst[i][lo:hi] = src[i][lo:hi]

    _run_halves([functools.partial(copy, h) for h in halves])


def _snapshot(model: Model, buffer, halves) -> list[np.ndarray]:
    """Copy the model's arrays into ``buffer`` (a flat array per model array, made here when
    None) and return it. Not one block for all: glibc maps a block that size fresh and
    unmaps it when freed, so the next model built would fault its pages in again."""
    arrays = _flat_arrays(model)
    if buffer is None:
        buffer = [np.empty(a.size) for a in arrays]
    _copy_halves(buffer, arrays, halves)
    return buffer


def _restore(model: Model, buffer, halves) -> None:
    _copy_halves(_flat_arrays(model), buffer, halves)


def _train_step(model: Model, optimizer: Adam, batch) -> tuple[float, int]:
    """One forward, backward and Adam update; returns (loss, correct predictions).

    A non-finite loss or gradient raises TrainingError before any parameter changes.
    The backward sweep frees each graph node once its closure has run; only ``loss``
    and ``logits`` are held here, so the activations are gone before the Adam update.
    """
    logits = model.forward(batch.rgb, batch.depth, "train")
    loss = T.cross_entropy(logits, batch.labels)
    if not np.isfinite(loss.item()):
        raise TrainingError("loss became non-finite")
    optimizer.zero_grad()
    T.backward(loss, [p for _, p in optimizer.params])
    optimizer.step()
    return loss.item(), int((logits.data.argmax(axis=1) == batch.labels).sum())


def train(model: Model, manifest: DatasetManifest, cfg: ModelConfig | None = None, *, out_dir=None):
    """Adam training of ``model`` under ``model.cfg`` (``cfg`` may only repeat it), with
    per-epoch evaluation; the best parameters are kept in memory and, where a later step
    changed them, restored at the end.

    Epoch 0 only evaluates; epoch e > 0 steps at ``learning_rate * lr_decay ** (e - 1)``. With
    ``out_dir`` the best parameters are written once, as ``best.ckpt``, beside the reports.
    Returns (RunReport, checkpoint path or None). If an epoch fails (a non-finite loss or
    gradient, a bad image) the best parameters (the initial ones before any evaluation) are
    restored, everything is written with ``aborted=true``, and the same error type names the best epoch."""
    if cfg is not None and cfg != model.cfg:
        raise ConfigError("train reads every setting from model.cfg; pass cfg=None or model.cfg itself")
    cfg = model.cfg
    protocol = f"fivefold:{cfg.fold}" if cfg.protocol == "fivefold" else cfg.protocol
    train_records, test_records = protocol_split(manifest, protocol)

    optimizer = Adam(model.parameters(), cfg.learning_rate)
    out_dir = Path(out_dir) if out_dir is not None else None
    ckpt_path = out_dir / "best.ckpt" if out_dir else None
    if out_dir:
        T.make_output_dir(out_dir)

    started = time.perf_counter()
    report = RunReport(config_text=config_to_text(cfg), seed=cfg.seed)
    # The best parameters (before any evaluation, the initial ones) are copied only just before a
    # step would change them, into buffers reused for the run, and restored only if changed.
    halves = _halves([a.size for a in model.arrays().values()], Adam.BLOCK)
    best, holds_best = None, True
    failure = None
    try:
        for epoch in range(cfg.epochs + 1):
            optimizer.lr = cfg.learning_rate * cfg.lr_decay ** max(epoch - 1, 0)
            train_loss = train_acc = None
            if epoch:
                loss_sum, hits, seen = 0.0, 0, 0
                for batch in make_batches(train_records, cfg.batch_size, seed=_epoch_seed(cfg.seed, epoch)):
                    if batch.labels.size < 2:
                        continue  # batchnorm train mode needs at least 2 samples
                    if holds_best:
                        best, holds_best = _snapshot(model, best, halves), False
                    batch_loss, batch_hits = _train_step(model, optimizer, batch)
                    loss_sum += batch_loss * batch.labels.size
                    hits += batch_hits
                    seen += batch.labels.size
                train_loss, train_acc = loss_sum / max(seen, 1), hits / max(seen, 1)
            acc, _, fm_means = _evaluate(model, test_records)
            report.epochs.append(EpochStats(epoch, train_loss, train_acc, acc, optimizer.lr))
            if epoch == 0 or acc > report.best_test_acc:
                holds_best = True
                report.best_epoch, report.best_test_acc = epoch, acc
                if fm_means is not None:
                    report.fm_weight_rgb_mean, report.fm_weight_depth_mean = fm_means
    except (TrainingError, DataError, ShapeError) as exc:
        report.aborted, failure = True, exc

    if not holds_best:
        _restore(model, best, halves)
    report.wall_time_s = time.perf_counter() - started
    if out_dir:
        save_checkpoint(model, ckpt_path, epoch=report.best_epoch)
        report.write_csv(out_dir / "report.csv")
        report.write_summary_csv(out_dir / "summary.csv")
        save_config(out_dir / "config.txt", cfg)
    if failure is not None:
        raise type(failure)(f"{failure}; best checkpoint from epoch {report.best_epoch} retained") from failure
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


GRADCHECK_ATOL = 1e-9
GRADCHECK_REL_FLOOR = 1e-6


def gradcheck(
    seed: int = 0,
    variant: str = "two_level",
    max_coords: int = 500,
    tolerance: float = 1e-4,
    h: float = 1e-5,
) -> GradcheckReport:
    """Backward pass versus central finite differences on the variant's toy model.

    Dropout is off and batchnorm runs on frozen (eval) statistics so the loss
    is a deterministic function of the parameters. Per parameter group, up to
    ``max_coords`` coordinates are probed; a coordinate passes on relative
    error < tolerance, or on absolute error < ``GRADCHECK_ATOL`` where the gradient
    is too small for finite differences to resolve. Reported relative errors
    cover coordinates above ``GRADCHECK_REL_FLOOR``; below it the central-difference
    roundoff (~1e-11 at h=1e-5) dominates the quotient.
    """
    if max_coords < 1:
        raise ConfigError(f"gradcheck needs max_coords >= 1, got {max_coords}")
    cfg = replace(gradcheck_config(variant), seed=seed)
    model = build_model(cfg)
    rng = np.random.default_rng(seed + 1)
    b = cfg.batch_size
    rgb = Tensor(rng.random((b, cfg.input_size, cfg.input_size, 3)))
    depth = Tensor(rng.random((b, cfg.input_size, cfg.input_size, 1)))
    labels = [i % cfg.classes for i in range(b)]

    def loss() -> Tensor:
        return T.cross_entropy(model.forward(rgb, depth, "eval"), labels)

    params = model.parameters()
    for _, p in params:
        p.zero_grad()
    T.backward(loss(), [p for _, p in params])

    coord_rng = np.random.default_rng(seed + 2)
    groups = []
    for name, p in params:
        grad = p.grad.reshape(-1)
        if p.size <= max_coords:
            coords = np.arange(p.size)
        else:
            coords = coord_rng.choice(p.size, size=max_coords, replace=False)
        max_rel = 0.0
        max_abs = 0.0
        ok = True
        for idx in coords:
            fd = T.central_difference(lambda _: loss(), p, idx, h)
            a = grad[idx]
            diff = abs(a - fd)
            scale = max(abs(a), abs(fd))
            max_abs = max(max_abs, diff)
            if scale > GRADCHECK_REL_FLOOR:
                max_rel = max(max_rel, diff / scale)
            if diff > max(tolerance * scale, GRADCHECK_ATOL):
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
    # each table-7 row pins the LSTM stack its label names, whatever the base config holds
    ("table7", "lstm_1_layer", {"fusion": "two_level", "fm_variant": "lstm_dense", "lstm_layers": 1, "blstm": False}),
    ("table7", "lstm_2_layers", {"fusion": "two_level", "fm_variant": "lstm_dense", "lstm_layers": 2, "blstm": False}),
    ("table7", "lstm_3_layers", {"fusion": "two_level", "fm_variant": "lstm_dense", "lstm_layers": 3, "blstm": False}),
    ("table7", "blstm_1_layer", {"fusion": "two_level", "fm_variant": "lstm_dense", "lstm_layers": 1, "blstm": True}),
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
    feature-map attention weight per source modality where applicable. A run is
    a pure function of its config (seed included), so rows that resolve to the
    same config share one run.
    """
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("ablate needs at least one seed")
    # every run's config is built, and so checked, before the first run starts
    grid = [
        (table, variant, [replace(base_cfg, seed=s, **overrides) for s in seeds])
        for table, variant, overrides in ABLATION_GRID
    ]
    if out_csv is not None:
        T.check_output_path(out_csv)
    rows = []
    reports = {}  # config text -> RunReport
    for table, variant, cfgs in grid:
        row = AblationRow(table, variant, seeds, [], [], [])
        for cfg in cfgs:
            key = config_to_text(cfg)
            if key not in reports:
                reports[key], _ = train(build_model(cfg), manifest, cfg)
            report = reports[key]
            row.accs.append(report.best_test_acc)
            if report.fm_weight_rgb_mean is not None:
                row.fm_rgb.append(report.fm_weight_rgb_mean)
                row.fm_depth.append(report.fm_weight_depth_mean)
        rows.append(row)
    if out_csv is not None:
        write_ablation_csv(out_csv, rows)
    return rows


def write_ablation_csv(path, rows) -> None:
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
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
