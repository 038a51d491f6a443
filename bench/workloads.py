"""The benchmark workloads: seeded inputs, set-up, the timed call, and output checks.

Every workload follows one protocol. The constructor writes the inputs for a
seed into a work directory; it is never timed. ``setup()`` is the program's
set-up (``load_manifest`` plus ``build_model`` or ``load_checkpoint``) and is
timed as ``setup_s``. ``call()`` runs the timed operation and returns how many
samples it processed and the seconds its public entry point took. ``check()``
returns the failures found in the outputs of the last call; an empty list
means the call was correct. ``describe()`` gives the run's figures under the
names the workload's users know them by.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from rgbdfuse import cli, netpbm
from rgbdfuse import data as D
from rgbdfuse import model as M
from rgbdfuse import tensor as T
from rgbdfuse import trainer as TR

REFERENCE_PATH = Path(__file__).with_name("reference_losses.json")

# Per-epoch train losses must match the committed reference to this relative
# tolerance. Reruns of the same code on the same machine agree bit for bit.
# A change that alters summation order may move the loss, but by far less than
# this: reversing the summation order of every matmul moved the epoch-2 loss by
# 1e-9 (desk_train, seed 5) and 6e-9 (attn_train, seed 7), one BLAS thread
# instead of two by 2e-16. A change to the maths itself fails the check; if
# that is intended, re-record with make_reference.py and say so.
LOSS_RTOL = 1e-6

# Desk scale: the criterion-6 model (112x112, widths 8/16/32/32, 1-layer
# LSTM H=64, head 2048/1024/512, B=20) on 10 classes.
DESK = M.ModelConfig(classes=10, epochs=2)

# Feature-map-attention heavy: 32x32 input and widths 8/32/128 give 256 fused
# 4x4 maps, scored by the table-7 two-layer LSTM (H=64) ahead of a small head.
ATTN = M.ModelConfig(
    input_size=32,
    backbone_widths=(8, 32, 128),
    lstm_layers=2,
    lstm_hidden=64,
    classifier_widths=(64, 48, 32),
    classes=10,
    epochs=2,
)

# Tiny shapes for the harness self-test (--toy); its numbers mean nothing.
TOY = dict(classes=3, input_size=16, backbone_widths=(2, 3), lstm_hidden=4, classifier_widths=(8, 6, 4), batch_size=4)


def load_references() -> dict:
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


class TrainWorkload:
    """One ``trainer.train(..., out_dir=...)`` call per iteration on a fresh model.

    Each call trains 2 epochs on 10 classes x 3 pairs (20 train, 10 test
    records: the criterion-6 2:1 split at a tenth of its size, one full batch
    per epoch), so a run holds several calls and reports their median.
    """

    per_class = 3

    def __init__(self, name: str, cfg, seed: int, work: Path, toy: bool):
        self.work = work
        self.cfg = replace(cfg, seed=seed)
        classes, per_class = self.cfg.classes, self.per_class
        if toy:
            self.cfg = replace(self.cfg, **TOY)
            classes, per_class = TOY["classes"], 6
        self.manifest_path = D.generate_synthetic(
            work / "data", classes=classes, per_class=per_class, size=self.cfg.input_size, seed=seed
        )
        self.reference = None if toy else load_references().get(name, {}).get(str(seed))
        self.model = None
        self.trajectories: list = []

    def setup(self) -> None:
        self.manifest = D.load_manifest(self.manifest_path)
        self.model = M.build_model(self.cfg)

    def call(self) -> tuple[int, float]:
        model, self.model = self.model, None
        started = time.perf_counter()
        report, self.ckpt = TR.train(model, self.manifest, self.cfg, out_dir=self.work / "run")
        elapsed = time.perf_counter() - started
        self.trajectories.append([e.train_loss for e in report.epochs if e.train_loss is not None])
        train_records = sum(r.split == "train" for r in self.manifest.records)
        return self.cfg.epochs * train_records, elapsed

    def check(self) -> list[str]:
        got = self.trajectories[-1]
        failures = []
        if len(got) != self.cfg.epochs or not all(math.isfinite(x) for x in got):
            failures.append(f"loss trajectory {got} is not {self.cfg.epochs} finite epochs")
        if got != self.trajectories[0]:
            failures.append(f"loss trajectory {got} differs from the first call's {self.trajectories[0]}")
        if self.reference is not None and not np.allclose(got, self.reference, rtol=LOSS_RTOL, atol=0.0):
            failures.append(f"loss trajectory {got} differs from the reference {self.reference}")
        if self.ckpt is None or not self.ckpt.is_file():
            failures.append("no best.ckpt written")
        return failures

    def describe(self, rate: float) -> list[str]:
        checked = (f"matches the committed reference (rtol {LOSS_RTOL:g})" if self.reference is not None
                   else "no committed reference for this seed, so checked for determinism only")
        return [
            f"train_samples_per_s {rate:.6g} 1/s (epochs x train records / trainer.train wall)",
            f"train_loss_final {self.trajectories[-1][-1]!r} (epoch {self.cfg.epochs})",
            f"checks: per-epoch loss trajectory {checked}; identical on every call; best.ckpt written",
        ]

    def probe_model(self):
        return M.build_model(self.cfg), self.manifest.records


class InferWorkload:
    """``load_checkpoint`` of a desk model, then ``evaluate`` over all records
    and ``extract_embedding`` per batch: the ``eval`` and ``embed`` paths."""

    def __init__(self, name: str, cfg, seed: int, work: Path, toy: bool):
        cfg = replace(cfg, seed=seed)
        classes, per_class = cfg.classes, 10
        if toy:
            cfg = replace(cfg, **TOY)
            classes, per_class = TOY["classes"], 4
        self.manifest_path = D.generate_synthetic(
            work / "data", classes=classes, per_class=per_class, size=cfg.input_size, seed=seed
        )
        self.ckpt_path = work / "desk.ckpt"
        M.save_checkpoint(M.build_model(cfg), self.ckpt_path)
        self.embed_ms: list[float] = []
        self.first = None  # (accuracy, confusion) of the first call

    def setup(self) -> None:
        self.manifest = D.load_manifest(self.manifest_path)
        self.model = M.load_checkpoint(self.ckpt_path)

    def call(self) -> tuple[int, float]:
        records = self.manifest.records
        started = time.perf_counter()
        self.result = TR.evaluate(self.model, records)
        self.eval_s = time.perf_counter() - started
        self.embeddings = []
        for batch in D.make_batches(records, self.model.cfg.batch_size, seed=0):
            t0 = time.perf_counter()
            emb = self.model.extract_embedding(batch.rgb, batch.depth)
            self.embed_ms.append((time.perf_counter() - t0) * 1e3)
            self.embeddings.append((batch.labels.size, emb.data))
        return len(records), self.eval_s

    def check(self) -> list[str]:
        failures = []
        accuracy, confusion = self.result
        if self.first is None:
            # evaluate must agree with the argmax of forward on the same records
            hits = 0
            with T.no_grad():
                for batch in D.make_batches(self.manifest.records, self.model.cfg.batch_size, seed=0):
                    logits = self.model.forward(batch.rgb, batch.depth, "eval").data
                    hits += int((logits.argmax(axis=1) == batch.labels).sum())
            if hits / len(self.manifest.records) != accuracy:
                failures.append(f"evaluate accuracy {accuracy} != forward argmax {hits / len(self.manifest.records)}")
            self.first = (accuracy, confusion)
        elif accuracy != self.first[0] or not np.array_equal(confusion, self.first[1]):
            failures.append("evaluate result differs from the first call")
        if confusion.sum() != len(self.manifest.records):
            failures.append(f"confusion counts {confusion.sum()} records, expected {len(self.manifest.records)}")
        width = self.model.cfg.classifier_widths[-1]
        for rows, emb in self.embeddings:
            if emb.shape != (rows, width) or not np.all(np.isfinite(emb)):
                failures.append(f"embedding batch {emb.shape} not finite [{rows} x {width}]")
        return failures

    def probe_model(self):
        return self.model, self.manifest.records

    def describe(self, rate: float) -> list[str]:
        ms = self.embed_ms
        p50, p90 = (statistics.median(ms), statistics.quantiles(ms, n=10)[-1]) if len(ms) > 1 else (ms[0], ms[0])
        return [
            f"eval_samples_per_s {rate:.6g} 1/s (records / trainer.evaluate wall)",
            f"embed_batch_ms_p50 {p50:.6g} ms, embed_batch_ms_p90 {p90:.6g} ms (n={len(ms)} batches)",
            "checks: evaluate accuracy equals forward argmax; same result every call; "
            "embeddings finite and classifier_widths[-1] wide",
        ]


class PrepWorkload:
    """``rgbdfuse preprocess --augment`` over raw pairs larger than the model input,
    with 16-bit depth, so depth clipping, crop/resize, augmentation and netpbm
    writes all run and no model layer does."""

    def __init__(self, name: str, cfg, seed: int, work: Path, toy: bool):
        self.seed = seed
        self.work = work
        self.size, raw_size, classes, per_class = (16, 20, 3, 3) if toy else (112, 144, 10, 10)
        self.raw = work / "raw"
        D.generate_synthetic(self.raw, classes=classes, per_class=per_class, size=raw_size, seed=seed)
        # generate_synthetic writes 8-bit depth; rewrite it as 16-bit samples with holes
        rng = np.random.default_rng(seed)
        for path in sorted((self.raw / "images").glob("*_depth.pgm")):
            depth8 = netpbm.read_pgm(path).astype(np.int64)
            depth16 = 400 + 12 * depth8 + rng.integers(0, 12, size=depth8.shape)
            depth16[rng.random(depth8.shape) < 0.02] = 0  # missing readings
            netpbm.write_pgm(path, depth16.astype(np.uint16))
        self.calls = 0

    def setup(self) -> None:
        self.manifest = D.load_manifest(self.raw / "manifest.csv")

    def call(self) -> tuple[int, float]:
        self.calls += 1
        self.out = self.work / f"prep{self.calls}"
        argv = ["preprocess", "--in", str(self.raw), "--out", str(self.out), "--size", str(self.size),
                "--augment", "--seed", str(self.seed)]
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            self.status = cli.main(argv)
        return len(self.manifest.records), time.perf_counter() - started

    def check(self) -> list[str]:
        failures = []
        if self.status != 0:
            return [f"preprocess exited {self.status}"]
        pairs = len(self.manifest.records)
        train_pairs = sum(r.split == "train" for r in self.manifest.records)
        out = D.load_manifest(self.out / "manifest.csv")
        if len(out.records) != pairs + 3 * train_pairs:
            failures.append(f"{len(out.records)} records, expected {pairs} + 3 x {train_pairs}")
        for r in out.records:
            rgb, depth = netpbm.read_ppm(r.rgb), netpbm.read_pgm(r.depth)
            if rgb.dtype != np.uint8 or rgb.shape != (self.size, self.size, 3):
                failures.append(f"{r.rgb.name}: {rgb.dtype} {rgb.shape}")
            if depth.dtype != np.uint8 or depth.shape != (self.size, self.size):
                failures.append(f"{r.depth.name}: {depth.dtype} {depth.shape}")
        # The outputs stay until the run's work directory is removed: deleting
        # them here would leave the filesystem freeing (and, on a disk mounted
        # with discard, trimming) their blocks during the next timed call.
        return failures

    def probe_model(self):
        return None, None

    def describe(self, rate: float) -> list[str]:
        return [
            f"prep_pairs_per_s {rate:.6g} 1/s (raw pairs / preprocess wall)",
            "checks: records = pairs + 3 x train pairs; every output re-reads as uint8 at the target shape",
        ]


# name -> (class, model config, why). These names are part of the benchmark's interface.
# BENCHMARK.json gates desk_train, desk_infer and prep_augment. attn_train is
# left out of it so that the runs of the other three can be long enough to be
# steady within the contract's total time; it still runs by name.
WORKLOADS = {
    # Conv, pool and backward take about 75% of a step and Adam on the
    # 9M-parameter head about 20%, the LSTM under 5%: backbone, optimizer and
    # memory changes show here.
    "desk_train": (TrainWorkload, DESK, "desk-scale training: conv/pool/backward ~75% and Adam ~20% of a step"),
    # Feature-map attention is about 70% of the forward pass and a step records
    # about 14k graph nodes, against ~10% backbone and ~1% Adam: packed LSTM
    # gates and per-node overhead show here; a backbone-only change predicts
    # no change.
    "attn_train": (TrainWorkload, ATTN, "256 fused maps through a 2-layer LSTM: attention and per-node overhead dominate"),
    # Forward only, no backward or Adam: reads the model where the train
    # workloads update it. Eval without a graph and forward conv changes show
    # here; an Adam change predicts no change.
    "desk_infer": (InferWorkload, DESK, "forward only (evaluate + embed) on a loaded desk checkpoint; no backward or Adam"),
    # The only workload that runs preprocess (depth clip, crop/resize,
    # augment) and netpbm writes; no model layer runs, so model changes
    # predict no change.
    "prep_augment": (PrepWorkload, None, "preprocess --augment of larger raw pairs with 16-bit depth; no model layer runs"),
}


def make(name: str, seed: int, work: Path, toy: bool = False):
    cls, cfg, _ = WORKLOADS[name]
    return cls(name, cfg, seed, work, toy)

