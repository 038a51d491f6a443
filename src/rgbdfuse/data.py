"""Dataset manifests, split protocols, batch assembly, synthetic data.

A manifest is a UTF-8 CSV with header ``subject,sample,rgb,depth,split,fold``;
image paths are taken relative to the manifest's directory. Subjects map to
contiguous class indices in sorted-id order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import netpbm
from .errors import ConfigError, DataError
from .preprocess import resize_bilinear
from .tensor import Tensor, atomic_write, make_output_dir

MANIFEST_COLUMNS = ("subject", "sample", "rgb", "depth", "split", "fold")


@dataclass(frozen=True)
class ManifestRecord:
    subject: str
    sample: str
    rgb: Path
    depth: Path
    split: str
    fold: int
    label: int


@dataclass
class DatasetManifest:
    records: list
    classes: list
    path: Path

    @property
    def class_count(self) -> int:
        return len(self.classes)


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"manifest not found: {path}")
    root = path.parent
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            lines = list(reader)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:  # e.g. a field over the csv module's size limit, or a NUL byte
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    if not lines or tuple(h.strip() for h in lines[0]) != MANIFEST_COLUMNS:
        raise DataError(f"{path}: expected header {','.join(MANIFEST_COLUMNS)}")
    rows = []
    seen = {}
    for lineno, row in enumerate(lines[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(MANIFEST_COLUMNS):
            raise DataError(f"{path}:{lineno}: expected {len(MANIFEST_COLUMNS)} columns, got {len(row)}")
        subject, sample, rgb, depth, split, fold = (c.strip() for c in row)
        key = (subject, sample)
        if key in seen:
            raise DataError(f"{path}:{lineno}: duplicate record {key} (first at line {seen[key]})")
        seen[key] = lineno
        rgb_path = root / rgb
        depth_path = root / depth
        for p in (rgb_path, depth_path):
            try:
                found = p.is_file()
            except OSError as exc:  # e.g. a name too long for the filesystem
                raise DataError(f"{path}:{lineno}: cannot look up referenced file: {exc.strerror}") from exc
            if not found:
                raise DataError(f"{path}:{lineno}: referenced file does not exist: {p}")
        try:
            fold_idx = int(fold)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: fold must be an integer, got {fold!r}") from exc
        rows.append((subject, sample, rgb_path, depth_path, split, fold_idx))
    if not rows:
        raise DataError(f"{path}: manifest has no records")
    classes = sorted({r[0] for r in rows})
    label = {s: i for i, s in enumerate(classes)}
    records = [ManifestRecord(s, sm, rp, dp, sp, f, label[s]) for s, sm, rp, dp, sp, f in rows]
    return DatasetManifest(records, classes, path)


def write_manifest(path, rows) -> None:
    """Rows of (subject, sample, rgb_relpath, depth_relpath, split, fold)."""
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        writer.writerows(rows)


def write_pair(out_dir, subject: str, sample: str, rgb, depth):
    """Write ``images/<subject>_<sample>_rgb.ppm`` / ``_depth.pgm`` under out_dir; return both relative paths."""
    rgb_rel, depth_rel = f"images/{subject}_{sample}_rgb.ppm", f"images/{subject}_{sample}_depth.pgm"
    netpbm.write_ppm(Path(out_dir) / rgb_rel, rgb)
    netpbm.write_pgm(Path(out_dir) / depth_rel, depth)
    return rgb_rel, depth_rel


def protocol_split(manifest: DatasetManifest, protocol: str):
    """Partition records into (train, test) per the named protocol.

    ``fivefold:k`` trains on records whose fold column equals k and tests on
    the rest (the small-train orientation: the five train folds partition the
    data). ``fixed`` honors split tags: train vs every test* tag;
    ``fixed:test1`` / ``fixed:test2`` select one test tag.
    """
    name, _, arg = protocol.partition(":")
    if name == "fivefold":
        try:
            k = int(arg)
        except ValueError as exc:
            raise ConfigError(f"fivefold needs a fold index, got {protocol!r}") from exc
        folds = {r.fold for r in manifest.records}
        if not 0 <= k < 5:
            raise ConfigError(f"fold index must be in [0, 5), got {k}")
        if k not in folds:
            raise ConfigError(f"manifest has no records with fold {k} (folds present: {sorted(folds)})")
        train = [r for r in manifest.records if r.fold == k]
        test = [r for r in manifest.records if r.fold != k]
    elif name == "fixed":
        tags = {r.split for r in manifest.records}
        if arg:
            if arg not in tags:
                raise ConfigError(f"manifest has no split tag {arg!r} (tags present: {sorted(tags)})")
            test = [r for r in manifest.records if r.split == arg]
        else:
            test = [r for r in manifest.records if r.split != "train"]
        train = [r for r in manifest.records if r.split == "train"]
    else:
        raise ConfigError(f"unknown protocol {protocol!r}; use 'fivefold:k' or 'fixed[:tag]'")
    if not train:
        raise ConfigError(f"protocol {protocol!r} selects an empty train split")
    if not test:
        raise ConfigError(f"protocol {protocol!r} selects an empty test split")
    train_subjects = {r.subject for r in train}
    test_subjects = {r.subject for r in test}
    for subject in manifest.classes:
        if subject not in train_subjects or subject not in test_subjects:
            raise ConfigError(f"subject {subject!r} lacks train or test records under {protocol!r}")
    return train, test


@dataclass
class Batch:
    rgb: Tensor  # [B x S x S x 3], scaled to [0, 1]
    depth: Tensor  # [B x S x S x 1]
    labels: np.ndarray
    sample_ids: list


def _load_pair(record: ManifestRecord):
    rgb = netpbm.read_ppm(record.rgb).astype(np.float64) / 255.0
    depth_raw = netpbm.read_pgm(record.depth)
    scale = 255.0 if depth_raw.dtype == np.uint8 else 65535.0
    depth = depth_raw.astype(np.float64) / scale
    return rgb, depth[..., None]


def make_batches(records, batch_size: int, seed: int):
    """Seeded shuffle, then lazily loaded batches; the last one may be short."""
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    records = list(records)
    order = np.random.default_rng(seed).permutation(len(records))
    for start in range(0, len(records), batch_size):
        chunk = [records[i] for i in order[start : start + batch_size]]
        rgbs, depths = zip(*(_load_pair(r) for r in chunk))
        sample_ids = [f"{r.subject}/{r.sample}" for r in chunk]
        for kind, images in (("rgb", rgbs), ("depth", depths)):
            for sid, image in zip(sample_ids, images):
                if image.shape != images[0].shape:
                    sizes = f"{image.shape[:2]}, {sample_ids[0]} in its batch {images[0].shape[:2]}"
                    raise DataError(f"{kind} image {sid} is {sizes}: a batch needs one image size")
        yield Batch(
            rgb=Tensor(np.stack(rgbs)),
            depth=Tensor(np.stack(depths)),
            labels=np.array([r.label for r in chunk], dtype=np.int64),
            sample_ids=sample_ids,
        )


# -- synthetic data -----------------------------------------------------------


def _smooth_template(rng, size, channels):
    coarse = rng.uniform(30.0, 225.0, size=(5, 5, channels) if channels > 1 else (5, 5))
    return resize_bilinear(coarse, size)


def generate_synthetic(
    out_dir,
    classes: int,
    per_class: int,
    size: int,
    noise_depth_classes=(),
    noise_rgb_classes=(),
    shared_rgb_pairs: bool = False,
    seed: int = 0,
    test_fraction: float = 1.0 / 3.0,
) -> Path:
    """Write a paired RGB/depth dataset of smooth per-class templates plus noise.

    Classes listed in ``noise_depth_classes`` (or ``noise_rgb_classes``) get
    pure-noise images for that modality, so it carries no identity signal.
    ``shared_rgb_pairs`` gives classes 2k and 2k+1 the same RGB template,
    leaving depth as the only separator within a pair. Returns the manifest
    path; everything is deterministic given the seed.
    """
    if classes < 2:
        raise ConfigError(f"need at least 2 classes, got {classes}")
    if size < 16:
        raise ConfigError(f"size must be >= 16, got {size}")
    if per_class < 2:
        raise ConfigError(f"need at least 2 samples per class, got {per_class}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    noise_depth = set(noise_depth_classes)
    noise_rgb = set(noise_rgb_classes)

    rgb_templates = []
    depth_templates = []
    for c in range(classes):
        if shared_rgb_pairs and c % 2 == 1:
            rgb_templates.append(rgb_templates[c - 1])
        else:
            rgb_templates.append(_smooth_template(rng, size, 3))
        depth_templates.append(_smooth_template(rng, size, 1))
    out_dir = Path(out_dir)
    make_output_dir(out_dir / "images")  # after the templates, so a size too big to hold makes no directory

    test_n = max(1, round(per_class * test_fraction))
    if test_n >= per_class:
        test_n = per_class - 1
    shift_max = max(1, size // 16)
    rows = []
    for c in range(classes):
        subject = f"s{c:03d}"
        for i in range(per_class):
            dy, dx = rng.integers(-shift_max, shift_max + 1, size=2)
            if c in noise_rgb:
                rgb = rng.uniform(0.0, 255.0, size=(size, size, 3))
            else:
                rgb = np.roll(rgb_templates[c], (dy, dx), axis=(0, 1)) + rng.normal(0.0, 8.0, (size, size, 3))
            if c in noise_depth:
                depth = rng.uniform(0.0, 255.0, size=(size, size))
            else:
                depth = np.roll(depth_templates[c], (dy, dx), axis=(0, 1)) + rng.normal(0.0, 8.0, (size, size))
            rgb8 = np.clip(np.floor(rgb + 0.5), 0, 255).astype(np.uint8)
            depth8 = np.clip(np.floor(depth + 0.5), 0, 255).astype(np.uint8)
            split = "train" if i < per_class - test_n else "test1"
            rows.append((subject, f"{i:03d}", *write_pair(out_dir, subject, f"{i:03d}", rgb8, depth8), split, i % 5))
    manifest_path = out_dir / "manifest.csv"
    write_manifest(manifest_path, rows)
    return manifest_path
