#!/usr/bin/env python3
"""Print a sha256 for every numeric output of a set of small models and of preprocessing, one ``name sha256`` line each.

For each config it builds the model at a fixed seed, runs one train-mode forward
on a fixed batch and hashes:

- ``<config>/logits``: the train-mode logits;
- ``<config>/grad/<parameter>``: each parameter's gradient of the cross-entropy loss;
- ``<config>/stage/<name>``: each array ``forward_features`` returns;
- ``<config>/array/<record>``: each ``arrays()`` record after one Adam step.

The config ``bands`` is the default one at 112x112 input with a batch of 2. There
stage 0's conv blocks are row bands of one image; every other config's blocks
hold whole images.

The name ``preprocess`` hashes, on fixed seeded images: ``crop_resize`` of a uint8
RGB image, ``depth_clip_normalize`` of a 16-bit depth map with holes, ``augment``
of both under each kind at fixed parameters, ``resize_bilinear`` of a float
template and the RGB and depth images of one ``generate_synthetic`` pair.

The name ``single`` hashes the weights, refined volume and gradients (of the
volume and of each parameter the level uses) of ``feature_map_attention``,
``spatial_attention`` and ``two_level_attention`` run on one [M x M x C] volume
through the batch-of-one boundary: the volume goes in through
``tensor.add_batch_axis`` and each output comes out through
``tensor.drop_batch_axis``.

The name ``train`` hashes a 2-epoch ``train`` run of ``TRAIN`` on a small
synthetic dataset: every numeric field of its ``RunReport.canonical()`` (the
per-epoch metrics, the best epoch and accuracy, the feature-map attention means)
and each record of the ``best.ckpt`` it writes. Its best epoch is 1, so the
checkpoint and the means come from a restored, not the final, state.

Only array shapes and bytes are hashed, never config or checkpoint text, so two
revisions that compute the same numbers print the same lines, and ``diff`` of the
two outputs names each artefact that moved:

    python3 scripts/output_hashes.py > after.txt

Run with no names, it first prints a ``#`` line keying the hashes on what besides the
code decides them: the numpy version and the OpenBLAS runtime config string (which
names the CPU kernels in use). ``tests/golden/output_hashes.txt`` is that output, and a
tier-1 test compares the checkout against it wherever the key matches. After a change
that moves outputs on purpose, re-record it with

    python3 scripts/output_hashes.py > tests/golden/output_hashes.txt

Given ``--against FILE`` (an earlier output, say of a parent checkout), it prints no
hashes but how many lines moved, were added or went missing against FILE, one line per
config and output kind (the first two parts of a name, e.g. ``default/grad moved 13``),
then a total. Only the names asked for are compared:

    python3 scripts/output_hashes.py --against tests/golden/output_hashes.txt

The script imports the package from the ``src/`` beside it, so it needs no
``PYTHONPATH`` and always hashes the checkout it sits in.
"""

import argparse
import ctypes
import hashlib
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rgbdfuse import attention as A  # noqa: E402
from rgbdfuse import netpbm  # noqa: E402
from rgbdfuse import preprocess as P  # noqa: E402
from rgbdfuse import tensor as T  # noqa: E402
from rgbdfuse.data import generate_synthetic, load_manifest  # noqa: E402
from rgbdfuse.model import ModelConfig, build_model, read_checkpoint  # noqa: E402
from rgbdfuse.trainer import Adam, train  # noqa: E402

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
    "bands": {"input_size": 112},
}

# a run whose test accuracy rises at epoch 1 and falls back at epoch 2
TRAIN = dict(
    input_size=16,
    backbone_widths=(4, 6),
    classifier_widths=(10, 8, 6),
    lstm_hidden=6,
    classes=2,
    dropout=0.0,
    seed=7,
    batch_size=2,
    learning_rate=0.1,
    epochs=2,
)

BATCH = 4
BATCHES = {"bands": 2}  # configs whose batch is not BATCH

AUGMENTS = (
    P.AugmentParams("rotation", rotation_deg=-23.5),
    P.AugmentParams("shear", shear_deg=11.25),
    P.AugmentParams("flip", flip=True),
    P.AugmentParams("perspective", perspective_scale=0.65),
)


def digest(a) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def numeric_key() -> str:
    """The numpy version and the OpenBLAS config string of the library numpy loaded."""
    here = Path(np.__file__).parent
    for lib in sorted((here.parent / "numpy.libs").glob("*openblas*")) + sorted((here / ".libs").glob("*openblas*")):
        for symbol in ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return f"numpy {np.__version__}; {fn().decode()}"
    return f"numpy {np.__version__}; no OpenBLAS found"


def output_hashes(name: str):
    """Yield (artefact, sha256) for every output of the config ``CONFIGS[name]``."""
    cfg = ModelConfig(**(BASE | CONFIGS[name]))
    model = build_model(cfg)
    rng = np.random.default_rng(11)
    s = cfg.input_size
    batch = BATCHES.get(name, BATCH)
    rgb = T.Tensor(rng.random((batch, s, s, 3)))
    depth = T.Tensor(rng.random((batch, s, s, 1)))
    labels = np.arange(batch) % cfg.classes

    logits = model.forward(rgb, depth, "train")
    yield f"{name}/logits", digest(logits.data)
    optimizer = Adam(model.parameters(), cfg.learning_rate)
    T.backward(T.cross_entropy(logits, labels), [p for _, p in optimizer.params])
    for pname, p in optimizer.params:
        yield f"{name}/grad/{pname}", digest(p.grad)
    optimizer.step()
    for stage, value in model.forward_features(rgb, depth).items():
        yield f"{name}/stage/{stage}", digest(value.data)
    for record, a in model.arrays().items():
        yield f"{name}/array/{record}", digest(a)


def preprocess_hashes():
    """Yield (artefact, sha256) for each preprocessing output named in the module docstring."""
    rng = np.random.default_rng(13)
    rgb = P.crop_resize(rng.integers(0, 256, size=(37, 45, 3), dtype=np.uint8), 24)
    yield "preprocess/crop_resize", digest(rgb)
    samples = rng.integers(400, 65536, size=(29, 31)).astype(np.uint16)
    samples[rng.random(samples.shape) < 0.05] = 0
    depth = P.depth_clip_normalize(P.DepthImage(samples))
    yield "preprocess/depth_clip_normalize", digest(depth)
    for params in AUGMENTS:
        yield f"preprocess/augment/{params.kind}/rgb", digest(P.augment(rgb, params))
        yield f"preprocess/augment/{params.kind}/depth", digest(P.augment(depth, params))
    yield "preprocess/resize_bilinear", digest(P.resize_bilinear(rng.uniform(30.0, 225.0, size=(5, 5, 3)), 21))
    with tempfile.TemporaryDirectory() as tmp:
        record = load_manifest(generate_synthetic(tmp, classes=2, per_class=2, size=16, seed=5)).records[0]
        yield "preprocess/synthetic/rgb", digest(netpbm.read_ppm(record.rgb))
        yield "preprocess/synthetic/depth", digest(netpbm.read_pgm(record.depth))


def single_hashes():
    """Yield (artefact, sha256) for each attention level run on one [M x M x C] volume as a batch of one."""
    m, c = 4, 6
    for level in ("feature_map_attention", "spatial_attention", "two_level_attention"):
        rng = np.random.default_rng(17)
        fm = A.FeatureMapAttention.init(c, m, rng, hidden=5)
        sp = A.SpatialAttention.init(m, rng)
        volume = T.parameter(rng.standard_normal((m, m, c)))
        params = {"volume": volume}
        if level == "two_level_attention":
            outputs = A.two_level_attention(fm, sp, T.add_batch_axis(volume))._asdict()
        else:
            att = fm if level == "feature_map_attention" else sp
            outputs = dict(zip(("weights", "refined"), getattr(A, level)(att, T.add_batch_axis(volume))))
        outputs = {key: T.drop_batch_axis(value) for key, value in outputs.items()}
        if level != "spatial_attention":
            params |= {f"fm.{n}": p for n, p in fm.parameters()}
        if level != "feature_map_attention":
            params |= {f"spatial.{n}": p for n, p in sp.parameters()}
        T.backward(T.tsum(outputs["refined"] * T.Tensor(rng.standard_normal((m, m, c)))), params.values())
        for key, value in outputs.items():
            yield f"single/{level}/{key}", digest(value.data)
        for pname, p in params.items():
            yield f"single/{level}/grad/{pname}", digest(p.grad)


def train_hashes():
    """Yield (artefact, sha256) for each numeric report field and checkpoint record of a 2-epoch run."""
    cfg = ModelConfig(**TRAIN)
    with tempfile.TemporaryDirectory() as tmp:
        manifest = load_manifest(generate_synthetic(Path(tmp) / "data", classes=2, per_class=12, size=16, seed=5))
        report, ckpt = train(build_model(cfg), manifest, out_dir=Path(tmp) / "run")
        _, _, records = read_checkpoint(ckpt)
    fields = report.canonical()
    numeric = [(f"epochs/{i}/{k}", v) for i, stats in enumerate(fields.pop("epochs")) for k, v in stats.items()]
    for key, value in numeric + list(fields.items()):
        if isinstance(value, (int, float)):
            yield f"train/report/{key}", digest(np.asarray(value))
    for record, a in records.items():
        yield f"train/ckpt/{record}", digest(a)


NAMES = (*CONFIGS, "preprocess", "single", "train")
HASHERS = {"preprocess": preprocess_hashes, "single": single_hashes, "train": train_hashes}


def against(got: dict, path, names) -> None:
    """Print, per config and output kind, how many hashes of ``got`` moved, were added or went missing against ``path``."""
    recorded = Path(path).read_text(encoding="utf-8").splitlines()
    for key in (line for line in recorded if line.startswith("# ") and line != f"# {numeric_key()}"):
        print(f"# {path} was recorded under {key[2:]!r}, not {numeric_key()!r}")
    hashes = (line.split(" ") for line in recorded if not line.startswith("#"))
    want = {n: sha for n, sha in hashes if n.split("/")[0] in names}
    counts, total = Counter(), Counter()
    for n in {**got, **want}:  # got's order, then the names only the file has
        kind = "added" if n not in want else "missing" if n not in got else "moved" if got[n] != want[n] else None
        if kind:
            counts["/".join(n.split("/")[:2]), kind] += 1
            total[kind] += 1
    for (group, kind), count in counts.items():
        print(f"{group} {kind} {count}")
    print(f"total: {total['moved']} moved, {total['added']} added, {total['missing']} missing of {len(want)} lines in {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help=f"any of {', '.join(NAMES)}; default: all")
    parser.add_argument("--against", metavar="FILE", help="print how many lines moved, were added or went missing against FILE")
    args = parser.parse_args(argv)
    for name in args.names:
        if name not in NAMES:
            parser.error(f"unknown name {name!r}")
    if args.against and not Path(args.against).is_file():
        parser.error(f"--against: no file {args.against!r}")
    names = args.names or NAMES
    hashes = (pair for name in names for pair in (HASHERS[name]() if name in HASHERS else output_hashes(name)))
    if args.against:
        against(dict(hashes), args.against, names)
        return 0
    if not args.names:
        print(f"# {numeric_key()}")
    for artefact, sha in hashes:
        print(f"{artefact} {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
