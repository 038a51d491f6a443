#!/usr/bin/env python3
"""Run one workload over several seeds and report each end-to-end metric's spread.

    python3 bench/spread.py --workload desk_train --seeds 1-10

The spread is the distance between the first and third quartile of the
values (``statistics.quantiles(values, n=4)``) as a share of their median,
printed next to the metric's bound from BENCHMARK.json. Runs are sequential,
one fresh process each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'a-b' or a comma list")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        row = {name: result["metrics"][name]["value"] for name in values}
        for name, value in row.items():
            values[name].append(value)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{args.workload} {m['name']}: median {med:.6g} {m['unit']}, spread {(q3 - q1) / med:.4f} "
              f"(bound {m['bound']}, a third {m['bound'] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
