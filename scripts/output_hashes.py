#!/usr/bin/env python3
"""Print a sha256 for every numeric output of a set of small models, one ``name sha256`` line each.

For each config it builds the model at a fixed seed, runs one train-mode forward
on a fixed batch and hashes:

- ``<config>/logits``: the train-mode logits;
- ``<config>/grad/<parameter>``: each parameter's gradient of the cross-entropy loss;
- ``<config>/stage/<name>``: each array ``forward_features`` returns;
- ``<config>/array/<record>``: each ``arrays()`` record after one Adam step.

Only array shapes and bytes are hashed, never config or checkpoint text, so two
revisions that compute the same numbers print the same lines, and ``diff`` of the
two outputs names each artefact that moved:

    python3 scripts/output_hashes.py > after.txt

The script imports the package from the ``src/`` beside it, so it needs no
``PYTHONPATH`` and always hashes the checkout it sits in.
"""

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rgbdfuse import tensor as T  # noqa: E402
from rgbdfuse.model import ModelConfig, build_model  # noqa: E402
from rgbdfuse.trainer import Adam  # noqa: E402

BASE = dict(
    input_size=16,
    backbone_widths=(2, 3, 4),
    classifier_widths=(16, 12, 8),
    lstm_hidden=8,
    classes=3,
    dropout=0.5,
    seed=7,
)

CONFIGS = {
    "default": {},
    "concat_only": {"fusion": "concat_only"},
    "feature_map_only": {"fusion": "feature_map_only"},
    "spatial_only": {"fusion": "spatial_only"},
    "dense_attention": {"fm_variant": "dense_only", "spatial_variant": "dense"},
    "lstm2": {"lstm_layers": 2},
    "lstm3": {"lstm_layers": 3},
    "blstm": {"blstm": True},
    "rgb": {"modality": "rgb"},
    "depth": {"modality": "depth"},
    "bypass": {"attention_bypass": True},
}

BATCH = 4


def digest(a) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def output_hashes(name: str):
    """Yield (artefact, sha256) for every output of the config ``CONFIGS[name]``."""
    cfg = ModelConfig(**BASE, **CONFIGS[name])
    model = build_model(cfg)
    rng = np.random.default_rng(11)
    s = cfg.input_size
    rgb = T.Tensor(rng.random((BATCH, s, s, 3)))
    depth = T.Tensor(rng.random((BATCH, s, s, 1)))
    labels = np.arange(BATCH) % cfg.classes

    logits = model.forward(rgb, depth, "train")
    yield f"{name}/logits", digest(logits.data)
    optimizer = Adam(model.parameters(), cfg.learning_rate, cfg.lr_decay)
    T.backward(T.cross_entropy(logits, labels), [p for _, p in optimizer.params])
    for pname, p in optimizer.params:
        yield f"{name}/grad/{pname}", digest(p.grad)
    optimizer.step()
    for stage, value in model.forward_features(rgb, depth).items():
        yield f"{name}/stage/{stage}", digest(value.data)
    for record, a in model.arrays().items():
        yield f"{name}/array/{record}", digest(a)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", help=f"any of {', '.join(CONFIGS)}; default: all")
    args = parser.parse_args(argv)
    for name in args.configs:
        if name not in CONFIGS:
            parser.error(f"unknown config {name!r}")
    for name in args.configs or CONFIGS:
        for artefact, sha in output_hashes(name):
            print(f"{artefact} {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
