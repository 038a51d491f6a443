#!/usr/bin/env python3
"""Full ablation sweep on two synthetic tasks.

Task "complementary": class pairs share an RGB template, depth separates them,
so fusion has something to gain. Task "noise-depth": depth is pure noise for
every class, so the feature-map attention should learn to down-weight the
depth-derived channels (reported per row as fm_weight_*_mean columns).

Writes one CSV per task with every row of the three variant tables, averaged
over the requested seeds.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rgbdfuse.data import generate_synthetic, load_manifest  # noqa: E402
from rgbdfuse.model import ModelConfig  # noqa: E402
from rgbdfuse.trainer import ablate  # noqa: E402

BASE = dict(
    input_size=32,
    backbone_widths=(4, 8, 16),
    classifier_widths=(64, 48, 32),
    lstm_hidden=16,
    batch_size=6,
    learning_rate=3e-3,
    dropout=0.3,
)


def run(args) -> int:
    work = Path(args.work_dir)
    seeds = [int(s) for s in args.seeds.split(",")]
    cfg = ModelConfig(classes=args.classes, epochs=args.epochs, **BASE)

    tasks = {
        "complementary": dict(shared_rgb_pairs=True),
        "noise_depth": dict(noise_depth_classes=tuple(range(args.classes))),
    }
    for name, extra in tasks.items():
        manifest_path = work / name / "manifest.csv"
        if not manifest_path.exists():
            generate_synthetic(
                work / name, classes=args.classes, per_class=args.per_class, size=32, seed=100, **extra
            )
        manifest = load_manifest(manifest_path)
        out_csv = work / f"ablation_{name}.csv"
        print(f"== task {name} ({len(seeds)} seeds) ==")
        rows = ablate(manifest, cfg, seeds, out_csv=out_csv)
        for row in rows:
            extras = ""
            if row.fm_rgb:
                import numpy as np

                extras = f"  fm_rgb={np.mean(row.fm_rgb):.3f} fm_depth={np.mean(row.fm_depth):.3f}"
            print(f"  {row.table:7s} {row.variant:28s} {row.mean_acc:.4f} +/- {row.std_acc:.4f}{extras}")
        print(f"  -> {out_csv}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work-dir", default="ablation_run")
    parser.add_argument("--classes", type=int, default=6)
    parser.add_argument("--per-class", type=int, default=18)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--seeds", default="0,1,2,3,4")
    sys.exit(run(parser.parse_args()))
