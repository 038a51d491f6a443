#!/usr/bin/env python3
"""Desk-scale end-to-end run: synthesize data, train, evaluate, dump embeddings.

Produces a work directory with the dataset, best checkpoint, per-epoch report,
and an embedding CSV. Finishes in a few minutes on a desktop CPU.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rgbdfuse.cli import main as cli  # noqa: E402


def run(args) -> int:
    work = Path(args.work_dir)
    data = work / "data"
    if not (data / "manifest.csv").exists():
        code = cli(
            [
                "synth",
                "--classes", str(args.classes),
                "--per-class", str(args.per_class),
                "--size", str(args.size),
                "--seed", str(args.seed),
                "--out", str(data),
            ]
        )
        if code:
            return code

    config = work / "config.txt"
    if not config.exists():
        widths = {112: "8,16,32,32", 32: "4,8,16", 16: "2,3"}.get(args.size, "8,16,32,32")
        config.write_text(
            "\n".join(
                [
                    f"input_size={args.size}",
                    f"backbone_widths={widths}",
                    "classifier_widths=2048,1024,512" if args.size >= 112 else "classifier_widths=64,48,32",
                    f"classes={args.classes}",
                    "lstm_hidden=64" if args.size >= 112 else "lstm_hidden=16",
                    f"epochs={args.epochs}",
                    f"seed={args.seed}",
                    "learning_rate=0.001",
                ]
            )
            + "\n"
        )

    run_dir = work / "run"
    for step in (
        ["train", "--manifest", str(data / "manifest.csv"), "--config", str(config), "--out", str(run_dir)],
        ["eval", "--checkpoint", str(run_dir / "best.ckpt"), "--manifest", str(data / "manifest.csv"), "--split", "test1"],
        ["embed", "--checkpoint", str(run_dir / "best.ckpt"), "--manifest", str(data / "manifest.csv"),
         "--split", "test1", "--out", str(work / "embeddings.csv")],
    ):
        code = cli(step)
        if code:
            return code
    print(f"artifacts in {work}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work-dir", default="desk_run")
    parser.add_argument("--classes", type=int, default=10)
    parser.add_argument("--per-class", type=int, default=30)
    parser.add_argument("--size", type=int, default=112)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    sys.exit(run(parser.parse_args()))
