"""Command-line entry points.

Subcommands: synth, preprocess, train, eval, gradcheck, ablate, embed.
Each prints a short human-readable summary; file outputs are CSV or binary
checkpoints as documented in the README.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import netpbm
from .attention import write_weights_csv
from .data import generate_synthetic, load_manifest, write_manifest, write_pair
from .errors import CheckpointError, ConfigError, DataError, ShapeError, TrainingError, UsageError
from .model import build_model, load_checkpoint, load_config, parse_int_list
from .preprocess import DepthImage, augment_expand, crop_resize, depth_clip_normalize
from .tensor import atomic_write, check_output_path, make_output_dir
from .trainer import ablate, eval_stages, evaluate, gradcheck, train


def _parse_int_list(raw: str, flag: str) -> tuple[int, ...]:
    try:
        return parse_int_list(raw)
    except ValueError as exc:
        raise ConfigError(f"{flag} must be a comma list of integers, got {raw!r}") from exc


def _parse_class_list(raw: str, n_classes: int, flag: str):
    if raw.strip().lower() == "all":
        return tuple(range(n_classes))
    classes = _parse_int_list(raw, flag)
    bad = [c for c in classes if not 0 <= c < n_classes]
    if bad:
        raise ConfigError(f"{flag} names class {bad[0]}, outside 0..{n_classes - 1}")
    return classes


def _check_class_count(cfg, manifest) -> None:
    if manifest.class_count != cfg.classes:
        raise ConfigError(f"config says {cfg.classes} classes but manifest has {manifest.class_count}")


def cmd_synth(args) -> int:
    noise_depth = _parse_class_list(args.noise_depth_classes, args.classes, "--noise-depth-classes")
    noise_rgb = _parse_class_list(args.noise_rgb_classes, args.classes, "--noise-rgb-classes")
    path = generate_synthetic(
        args.out,
        classes=args.classes,
        per_class=args.per_class,
        size=args.size,
        noise_depth_classes=noise_depth,
        noise_rgb_classes=noise_rgb,
        shared_rgb_pairs=args.shared_rgb_pairs,
        seed=args.seed,
        test_fraction=args.test_fraction,
    )
    print(f"wrote {args.classes * args.per_class} pairs, manifest at {path}")
    return 0


def cmd_preprocess(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    manifest = load_manifest(Path(args.in_dir) / "manifest.csv")
    if args.augment and all(r.split != "train" for r in manifest.records):
        raise DataError("--augment needs at least one train pair")

    # every pair is read before anything is written, so a bad input leaves no output
    processed = []  # (record, rgb array, depth array)
    for r in manifest.records:
        rgb = netpbm.read_ppm(r.rgb)
        depth_raw = netpbm.read_pgm(r.depth)
        if depth_raw.dtype == np.uint16:
            depth = depth_clip_normalize(DepthImage(depth_raw))
        else:
            depth = depth_raw
        rgb = crop_resize(rgb, args.size, args.crop_ratio)
        depth = crop_resize(depth, args.size, args.crop_ratio)
        processed.append((r, rgb, depth))

    out_dir = Path(args.out)
    make_output_dir(out_dir / "images")

    def row(r, sample, rgb, depth):
        return (r.subject, sample, *write_pair(out_dir, r.subject, sample, rgb, depth), r.split, r.fold)

    rng = np.random.default_rng(args.seed)
    rows, copy_rows = [], []  # the manifest lists every original before the copies
    for r, rgb, depth in processed:
        rows.append(row(r, r.sample, rgb, depth))
        if args.augment and r.split == "train":
            for j, rec in enumerate(augment_expand([(rgb, depth, r.label)], seed=rng)[1:], start=1):
                copy_rows.append(row(r, f"{r.sample}_a{j}", rec.rgb, rec.depth))
    write_manifest(out_dir / "manifest.csv", rows + copy_rows)
    print(f"processed {len(processed)} pairs -> {len(rows) + len(copy_rows)} records at {out_dir / 'manifest.csv'}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    manifest = load_manifest(args.manifest)
    _check_class_count(cfg, manifest)
    model = build_model(cfg)
    report, ckpt = train(model, manifest, cfg, out_dir=args.out)
    print(f"best test accuracy {report.best_test_acc:.4f} at epoch {report.best_epoch}")
    if ckpt:
        print(f"checkpoint: {ckpt}")
    return 0


def _select_records(manifest, split: str):
    if split == "all":
        return manifest.records
    records = [r for r in manifest.records if r.split == split]
    if not records:
        tags = sorted({r.split for r in manifest.records})
        raise DataError(f"no records with split {split!r}; manifest has {tags}")
    return records


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.manifest)
    _check_class_count(model.cfg, manifest)
    records = _select_records(manifest, args.split)
    accuracy, confusion = evaluate(model, records)
    print(f"rank-1 accuracy {accuracy:.4f} over {len(records)} records (split={args.split})")
    per_class = confusion.sum(axis=1)
    for c, total in enumerate(per_class):
        if total:
            print(f"  class {c}: {confusion[c, c]}/{total}")
    return 0


def cmd_gradcheck(args) -> int:
    report = gradcheck(variant=args.variant, seed=args.seed, max_coords=args.max_coords)
    for line in report.lines():
        print(line)
    print(f"{'PASS' if report.passed else 'FAIL'} overall: max rel err {report.max_rel_err:.3e}")
    return 0 if report.passed else 1


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    manifest = load_manifest(args.manifest)
    _check_class_count(cfg, manifest)
    seeds = _parse_int_list(args.seeds, "--seeds")
    rows = ablate(manifest, cfg, seeds, out_csv=args.out)
    for row in rows:
        print(f"{row.table} {row.variant}: {row.mean_acc:.4f} +/- {row.std_acc:.4f}")
    print(f"report: {args.out}")
    return 0


def cmd_embed(args) -> int:
    for out in (args.out, args.attention_out):
        if out:
            check_output_path(out)
    model = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.manifest)
    records = _select_records(manifest, args.split)
    width = model.cfg.classifier_widths[-1]
    if args.attention_out and model.fm_attention is None:
        raise ConfigError("checkpoint has no feature-map attention to dump")
    if args.attention_out and Path(args.attention_out).resolve() == Path(args.out).resolve():
        raise ConfigError("--attention-out must name a different file from --out")
    weights_out = atomic_write(args.attention_out, "w", encoding="utf-8") if args.attention_out else nullcontext()
    with atomic_write(args.out, "w", encoding="utf-8") as fh, weights_out as weights_fh:
        fh.write("sample_id,label," + ",".join(f"dim{i}" for i in range(width)) + "\n")
        if weights_fh is not None:
            weights_fh.write("sample_id,weight_index,value\n")
        for batch, stages in eval_stages(model, records):
            if weights_fh is not None:
                write_weights_csv(weights_fh, batch.sample_ids, stages["fm_weights"])
            for sid, label, row in zip(batch.sample_ids, batch.labels, stages["embedding"].data):
                fh.write(f"{sid},{label}," + ",".join(f"{v:.17g}" for v in row) + "\n")
            del batch, stages  # freed before the next batch's forward
    print(f"wrote {len(records)} embeddings of width {width} to {args.out}")
    if args.attention_out:
        print(f"attention weights: {args.attention_out}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rgbdfuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic paired RGB/depth dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--size", type=int, default=112)
    p.add_argument("--noise-depth-classes", default="", help="comma list of class indices, or 'all'")
    p.add_argument("--noise-rgb-classes", default="")
    p.add_argument("--shared-rgb-pairs", action="store_true")
    p.add_argument("--test-fraction", type=float, default=1.0 / 3.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="clip/normalize depth, crop and resize, optionally augment")
    p.add_argument("--in", dest="in_dir", required=True, help="directory containing manifest.csv")
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, default=112)
    p.add_argument("--crop-ratio", type=float, default=0.8)
    p.add_argument("--augment", action="store_true", help="add 3 transformed copies per train pair")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rank-1 accuracy of a checkpoint on a manifest split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test1")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="backward pass vs central finite differences")
    p.add_argument("--variant", default="two_level")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-coords", type=int, default=500)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train and evaluate every ablation-table variant")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("embed", help="dump classifier embeddings to CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="all")
    p.add_argument("--out", required=True)
    p.add_argument("--attention-out", default=None, help="also dump per-sample feature-map attention weights")
    p.set_defaults(func=cmd_embed)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CheckpointError, ConfigError, DataError, ShapeError, TrainingError, UsageError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
