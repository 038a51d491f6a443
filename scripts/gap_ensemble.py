#!/usr/bin/env python3
"""Criterion 7's attention gap under last-bit nudges of the learning rate: its noise floor.

Acceptance criterion 7 trains its config on a task whose depth images are all noise
and reads the RGB-minus-depth feature-map attention gap at the best epoch, for seeds
0-4. A change that moves the numbers by a rounding error can move that gap a lot,
because the best epoch is the first to reach the top test accuracy and the gap is
still climbing there. This script reruns the same task and config with
``learning_rate`` nudged by k ulp, k in -2..2, and prints per seed:

- the range of best epochs over the five nudges;
- the range of the gap at the best epoch (criterion 7's number; k=0 is its run);
- the range of the gap at the last epoch;
- the smallest gap from epoch 5 on, over every epoch of every nudge.

Each epoch's gap is read by wrapping ``trainer._evaluate``, so no package change is
needed. A change that moves numbers runs it at the parent and at the change and
states whether the change's gaps fall inside the parent's ranges:

    python3 scripts/gap_ensemble.py

The script imports the package from the ``src/`` beside it, so it needs no
``PYTHONPATH``. The 25 runs take a few minutes on a 2-CPU machine.
"""

import dataclasses
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rgbdfuse import trainer as TR  # noqa: E402
from rgbdfuse.data import generate_synthetic, load_manifest  # noqa: E402
from rgbdfuse.model import ModelConfig, build_model  # noqa: E402

# criterion 7's config and noisy task (tests/test_acceptance.py)
BASE = ModelConfig(
    input_size=32,
    backbone_widths=(4, 8, 16),
    classifier_widths=(64, 48, 32),
    lstm_hidden=16,
    batch_size=6,
    classes=6,
    epochs=20,
    learning_rate=3e-3,
    dropout=0.3,
)
SEEDS = range(5)
ULPS = range(-2, 3)
SETTLED_EPOCH = 5  # the smallest gap is read from this epoch on


def nudged(x: float, ulps: int) -> float:
    """``x`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, np.inf if ulps > 0 else -np.inf))
    return x


def epoch_gaps(cfg: ModelConfig, manifest) -> tuple[int, list[float]]:
    """Train ``cfg``; returns the best epoch and the RGB-minus-depth gap of each epoch's evaluation."""
    gaps = []
    real = TR._evaluate

    def recording(model, records):
        accuracy, confusion, means = real(model, records)
        gaps.append(means[0] - means[1])
        return accuracy, confusion, means

    TR._evaluate = recording
    try:
        report, _ = TR.train(build_model(cfg), manifest, cfg)
    finally:
        TR._evaluate = real
    return report.best_epoch, gaps


def span(values, fmt: str) -> str:
    lo, hi = min(values), max(values)
    return format(lo, fmt) if lo == hi else f"{lo:{fmt}} … {hi:{fmt}}"


def main() -> int:
    start = time.perf_counter()
    print(f"| seed | gap at k=0 | best epoch | gap at best epoch | gap at epoch {BASE.epochs} | min gap, epoch >= {SETTLED_EPOCH} |")
    print("|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        noisy = load_manifest(
            generate_synthetic(tmp, classes=6, per_class=18, size=32, noise_depth_classes=tuple(range(6)), seed=100)
        )
        for seed in SEEDS:
            runs = {}
            for k in ULPS:
                cfg = dataclasses.replace(BASE, seed=seed, learning_rate=nudged(BASE.learning_rate, k))
                runs[k] = epoch_gaps(cfg, noisy)
            best = [b for b, _ in runs.values()]
            at_best = [gaps[b] for b, gaps in runs.values()]
            last = [gaps[-1] for _, gaps in runs.values()]
            settled = min(min(gaps[SETTLED_EPOCH:]) for _, gaps in runs.values())
            k0_best, k0_gaps = runs[0]
            print(
                f"| {seed} | {k0_gaps[k0_best]:+.4f} | {span(best, 'd')} | {span(at_best, '+.4f')} "
                f"| {span(last, '+.4f')} | {settled:+.4f} |"
            )
    print(f"\n{len(SEEDS) * len(ULPS)} runs in {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
