#!/usr/bin/env python3
"""Record the per-epoch train-loss reference of the train workloads.

    python3 bench/make_reference.py --seeds 0-99

Runs one call of ``desk_train`` and ``attn_train`` per seed, exactly as
``run.py`` does, and writes ``bench/reference_losses.json``. Re-record only
when a change is meant to alter the numbers, and say so with the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from run import WORK, limit_threads  # noqa: E402
from spread import parse_seeds  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-99", help="'a-b' or a comma list")
    args = parser.parse_args(argv)
    limit_threads()  # before numpy loads, as in run.py
    import workloads

    out = {}
    for name in ("desk_train", "attn_train"):
        out[name] = {}
        for seed in parse_seeds(args.seeds):
            work = WORK / f"reference-{name}-{seed}"
            try:
                wl = workloads.make(name, seed, work)
                wl.setup()
                wl.call()
                out[name][str(seed)] = wl.trajectories[0]
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(name, seed, wl.trajectories[0], flush=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
