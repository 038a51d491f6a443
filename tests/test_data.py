"""Manifests, protocols, batching, synthetic dataset separability."""

import numpy as np
import pytest

from rgbdfuse import data as D
from rgbdfuse import netpbm
from rgbdfuse.errors import ConfigError, DataError


def make_images(root, subject, sample, size=16, value=100):
    (root / "images").mkdir(parents=True, exist_ok=True)
    rgb_rel = f"images/{subject}_{sample}_rgb.ppm"
    depth_rel = f"images/{subject}_{sample}_depth.pgm"
    netpbm.write_ppm(root / rgb_rel, np.full((size, size, 3), value, dtype=np.uint8))
    netpbm.write_pgm(root / depth_rel, np.full((size, size), value, dtype=np.uint8))
    return rgb_rel, depth_rel


def write_dataset(root, spec):
    """spec: list of (subject, sample, split, fold)."""
    rows = []
    for subject, sample, split, fold in spec:
        rgb, depth = make_images(root, subject, sample)
        rows.append((subject, sample, rgb, depth, split, fold))
    D.write_manifest(root / "manifest.csv", rows)
    return root / "manifest.csv"


# -- manifest loading -----------------------------------------------------------


def test_minimal_manifest_two_subjects(tmp_path):
    path = write_dataset(
        tmp_path,
        [("b", "0", "train", 0), ("a", "0", "train", 0), ("b", "1", "test1", 1), ("a", "1", "test1", 1)],
    )
    manifest = D.load_manifest(path)
    assert manifest.class_count == 2
    assert manifest.classes == ["a", "b"]
    by_subject = {r.subject: r.label for r in manifest.records}
    assert by_subject == {"a": 0, "b": 1}


def test_manifest_dangling_path_names_file(tmp_path):
    rgb, depth = make_images(tmp_path, "a", "0")
    rows = [("a", "0", rgb, depth, "train", 0), ("a", "1", rgb, "images/nope.pgm", "test1", 0)]
    D.write_manifest(tmp_path / "manifest.csv", rows)
    with pytest.raises(DataError, match="nope.pgm"):
        D.load_manifest(tmp_path / "manifest.csv")


def test_manifest_duplicate_key_reports_line(tmp_path):
    rgb, depth = make_images(tmp_path, "a", "0")
    rows = [("a", "0", rgb, depth, "train", 0), ("a", "0", rgb, depth, "test1", 1)]
    D.write_manifest(tmp_path / "manifest.csv", rows)
    with pytest.raises(DataError, match=":3:"):
        D.load_manifest(tmp_path / "manifest.csv")


def test_manifest_missing_file_and_bad_header(tmp_path):
    with pytest.raises(DataError, match="not found"):
        D.load_manifest(tmp_path / "none.csv")
    (tmp_path / "bad.csv").write_text("a,b,c\n")
    with pytest.raises(DataError, match="header"):
        D.load_manifest(tmp_path / "bad.csv")


# -- protocols --------------------------------------------------------------------


def small_train_fivefold_manifest(tmp_path, subjects=2, per_fold=4, extra_in_last=1):
    """Per subject: folds 0..4 of `per_fold` records, last fold gets extras."""
    spec = []
    for s in range(subjects):
        i = 0
        for fold in range(5):
            n = per_fold + (extra_in_last if fold == 4 else 0)
            for _ in range(n):
                spec.append((f"s{s}", f"{i:03d}", "all", fold))
                i += 1
    return D.load_manifest(write_dataset(tmp_path, spec))


def test_fivefold_matches_small_train_counts(tmp_path):
    manifest = small_train_fivefold_manifest(tmp_path)
    for k in range(4):
        train, test = D.protocol_split(manifest, f"fivefold:{k}")
        per_subject_train = sum(r.subject == "s0" for r in train)
        per_subject_test = sum(r.subject == "s0" for r in test)
        assert per_subject_train == 4
        assert per_subject_test == 17


def test_fivefold_train_sets_partition_records(tmp_path):
    manifest = small_train_fivefold_manifest(tmp_path)
    seen = []
    for k in range(5):
        train, test = D.protocol_split(manifest, f"fivefold:{k}")
        assert not set((r.subject, r.sample) for r in train) & set((r.subject, r.sample) for r in test)
        seen += [(r.subject, r.sample) for r in train]
    assert sorted(seen) == sorted((r.subject, r.sample) for r in manifest.records)
    assert len(seen) == len(set(seen))


def test_fixed_split_counts(tmp_path):
    spec = []
    for s in range(2):
        for i in range(18):
            spec.append((f"s{s}", f"tr{i:03d}", "train", 0))
        for i in range(30):
            spec.append((f"s{s}", f"t1{i:03d}", "test1", 0))
        for i in range(39):
            spec.append((f"s{s}", f"t2{i:03d}", "test2", 0))
    manifest = D.load_manifest(write_dataset(tmp_path, spec))

    train, test = D.protocol_split(manifest, "fixed")
    assert sum(r.subject == "s0" for r in train) == 18
    assert sum(r.subject == "s0" for r in test) == 69
    _, test1 = D.protocol_split(manifest, "fixed:test1")
    assert sum(r.subject == "s0" for r in test1) == 30
    _, test2 = D.protocol_split(manifest, "fixed:test2")
    assert sum(r.subject == "s0" for r in test2) == 39
    assert {r.split for r in train} == {"train"}


def test_protocol_errors(tmp_path):
    manifest = D.load_manifest(
        write_dataset(tmp_path, [("a", "0", "train", 0), ("a", "1", "test1", 1), ("b", "0", "train", 0), ("b", "1", "test1", 1)])
    )
    with pytest.raises(ConfigError):
        D.protocol_split(manifest, "fivefold:9")
    with pytest.raises(ConfigError):
        D.protocol_split(manifest, "fixed:test7")
    with pytest.raises(ConfigError):
        D.protocol_split(manifest, "holdout")

    only_train = D.load_manifest(write_dataset(tmp_path / "sub", [("a", "0", "train", 0), ("b", "0", "train", 0)]))
    with pytest.raises(ConfigError, match="empty test"):
        D.protocol_split(only_train, "fixed")


def test_protocol_requires_every_subject_on_both_sides(tmp_path):
    manifest = D.load_manifest(
        write_dataset(
            tmp_path,
            [("a", "0", "train", 0), ("a", "1", "test1", 0), ("b", "0", "train", 0)],
        )
    )
    with pytest.raises(ConfigError, match="'b'"):
        D.protocol_split(manifest, "fixed")


# -- batching -------------------------------------------------------------------------


def batch_manifest(tmp_path, n=45):
    spec = [(f"s{i % 3}", f"{i:03d}", "train" if i % 3 else "test1", i % 5) for i in range(n)]
    return D.load_manifest(write_dataset(tmp_path, spec))


def test_batch_sizes_with_short_tail(tmp_path):
    manifest = batch_manifest(tmp_path, 45)
    batches = list(D.make_batches(manifest.records, 20, seed=0))
    assert [b.rgb.shape[0] for b in batches] == [20, 20, 5]
    for b in batches:
        assert b.rgb.shape[1:] == (16, 16, 3)
        assert b.depth.shape[1:] == (16, 16, 1)
        assert np.all((b.labels >= 0) & (b.labels < manifest.class_count))


def test_batch_shuffle_determinism(tmp_path):
    manifest = batch_manifest(tmp_path, 12)
    ids_a = [i for b in D.make_batches(manifest.records, 5, seed=3) for i in b.sample_ids]
    ids_b = [i for b in D.make_batches(manifest.records, 5, seed=3) for i in b.sample_ids]
    ids_c = [i for b in D.make_batches(manifest.records, 5, seed=4) for i in b.sample_ids]
    assert ids_a == ids_b
    assert ids_a != ids_c
    assert sorted(ids_a) == sorted(ids_c)


def test_pixel_scaling_endpoint(tmp_path):
    root = tmp_path
    (root / "images").mkdir()
    netpbm.write_ppm(root / "images/x_rgb.ppm", np.full((4, 4, 3), 255, dtype=np.uint8))
    netpbm.write_pgm(root / "images/x_depth.pgm", np.full((4, 4), 255, dtype=np.uint8))
    D.write_manifest(root / "manifest.csv", [("a", "0", "images/x_rgb.ppm", "images/x_depth.pgm", "train", 0)])
    manifest = D.load_manifest(root / "manifest.csv")
    batch = next(D.make_batches(manifest.records, 1, seed=0))
    assert batch.rgb.data.max() == 1.0
    assert batch.depth.data.max() == 1.0


def test_unreadable_image_is_data_error_with_path(tmp_path):
    manifest = batch_manifest(tmp_path, 4)
    victim = manifest.records[0].rgb
    victim.unlink()
    with pytest.raises(DataError, match=victim.name):
        list(D.make_batches(manifest.records, 2, seed=0))


def test_batch_rows_pair_rgb_and_depth_from_same_record(tmp_path):
    root = tmp_path
    (root / "images").mkdir()
    rows = []
    for i in range(6):
        netpbm.write_ppm(root / f"images/{i}_rgb.ppm", np.full((4, 4, 3), 10 * i, dtype=np.uint8))
        netpbm.write_pgm(root / f"images/{i}_depth.pgm", np.full((4, 4), 10 * i, dtype=np.uint8))
        rows.append((f"s{i % 2}", str(i), f"images/{i}_rgb.ppm", f"images/{i}_depth.pgm", "train", 0))
    D.write_manifest(root / "manifest.csv", rows)
    manifest = D.load_manifest(root / "manifest.csv")
    for batch in D.make_batches(manifest.records, 4, seed=5):
        for row in range(batch.rgb.shape[0]):
            assert batch.rgb.data[row, 0, 0, 0] == batch.depth.data[row, 0, 0, 0]


# -- synthetic ---------------------------------------------------------------------------


def test_synthetic_counts_and_labels(tmp_path):
    path = D.generate_synthetic(tmp_path, classes=10, per_class=20, size=16, seed=1)
    manifest = D.load_manifest(path)
    assert len(manifest.records) == 200
    assert manifest.class_count == 10
    assert sorted({r.label for r in manifest.records}) == list(range(10))


def test_write_pair_is_the_one_image_layout(tmp_path):
    rng = np.random.default_rng(3)
    rgb = rng.integers(0, 256, (5, 4, 3), dtype=np.uint8)
    depth = rng.integers(0, 65536, (5, 4), dtype=np.uint16)
    (tmp_path / "images").mkdir()
    assert D.write_pair(tmp_path, "s7", "002_a1", rgb, depth) == ("images/s7_002_a1_rgb.ppm", "images/s7_002_a1_depth.pgm")
    assert np.array_equal(netpbm.read_ppm(tmp_path / "images/s7_002_a1_rgb.ppm"), rgb)
    assert np.array_equal(netpbm.read_pgm(tmp_path / "images/s7_002_a1_depth.pgm"), depth)
    manifest = D.load_manifest(D.generate_synthetic(tmp_path / "synth", classes=2, per_class=2, size=16, seed=1))
    root = tmp_path / "synth"
    assert [(r.rgb, r.depth) for r in manifest.records] == [
        (root / f"images/{r.subject}_{r.sample}_rgb.ppm", root / f"images/{r.subject}_{r.sample}_depth.pgm")
        for r in manifest.records
    ]


def test_synthetic_deterministic(tmp_path):
    p1 = D.generate_synthetic(tmp_path / "a", classes=3, per_class=4, size=16, seed=7)
    p2 = D.generate_synthetic(tmp_path / "b", classes=3, per_class=4, size=16, seed=7)
    m1, m2 = D.load_manifest(p1), D.load_manifest(p2)
    for r1, r2 in zip(m1.records, m2.records):
        assert np.array_equal(netpbm.read_ppm(r1.rgb), netpbm.read_ppm(r2.rgb))
        assert np.array_equal(netpbm.read_pgm(r1.depth), netpbm.read_pgm(r2.depth))


def test_synthetic_split_sizes(tmp_path):
    path = D.generate_synthetic(tmp_path, classes=2, per_class=30, size=16, seed=2)
    manifest = D.load_manifest(path)
    train, test = D.protocol_split(manifest, "fixed")
    assert sum(r.subject == "s000" for r in train) == 20
    assert sum(r.subject == "s000" for r in test) == 10


def test_synthetic_nearest_mean_classifier_is_perfect(tmp_path):
    path = D.generate_synthetic(tmp_path, classes=5, per_class=12, size=16, seed=3)
    manifest = D.load_manifest(path)
    train, test = D.protocol_split(manifest, "fixed")

    def flat(record):
        rgb = netpbm.read_ppm(record.rgb).astype(float).reshape(-1)
        depth = netpbm.read_pgm(record.depth).astype(float).reshape(-1)
        return np.concatenate([rgb, depth])

    means = {}
    for c in range(manifest.class_count):
        vecs = [flat(r) for r in train if r.label == c]
        means[c] = np.mean(vecs, axis=0)
    hits = 0
    for r in test:
        v = flat(r)
        pred = min(means, key=lambda c: np.linalg.norm(v - means[c]))
        hits += pred == r.label
    assert hits == len(test)


def test_synthetic_noise_depth_classes_carry_no_signal(tmp_path):
    path = D.generate_synthetic(tmp_path, classes=2, per_class=6, size=16, seed=4, noise_depth_classes=(0, 1))
    manifest = D.load_manifest(path)
    depths = [netpbm.read_pgm(r.depth).astype(float) for r in manifest.records if r.label == 0]
    spread = np.std(np.stack(depths), axis=0).mean()
    assert spread > 40  # iid uniform noise, not a stable template


def test_synthetic_shared_rgb_pairs(tmp_path):
    path = D.generate_synthetic(tmp_path, classes=4, per_class=16, size=16, seed=5, shared_rgb_pairs=True)
    manifest = D.load_manifest(path)

    def mean_rgb(label):
        imgs = [netpbm.read_ppm(r.rgb).astype(float) for r in manifest.records if r.label == label]
        return np.mean(imgs, axis=0)

    within_pair = np.abs(mean_rgb(0) - mean_rgb(1)).mean()  # shared template, shift/noise only
    across_pairs = np.abs(mean_rgb(0) - mean_rgb(2)).mean()  # distinct templates
    assert within_pair < 0.5 * across_pairs


@pytest.mark.parametrize(
    "field, match",
    [
        (b"\xff\xfe", "UTF-8"),  # undecodable bytes
        (b"x" * (200 << 10), "field larger"),  # over the csv module's 128 KiB field limit
        (b"a" * 300 + b".ppm", "cannot look up"),  # a name too long for the filesystem
    ],
    ids=["invalid-utf8", "oversized-field", "overlong-name"],
)
def test_manifest_undecodable_row_is_data_error(tmp_path, field, match):
    rgb, depth = make_images(tmp_path, "a", "0")
    header = ",".join(D.MANIFEST_COLUMNS).encode()
    row = b"a,0," + field + b"," + depth.encode() + b",train,0"
    (tmp_path / "manifest.csv").write_bytes(header + b"\n" + row + b"\n")
    with pytest.raises(DataError, match=match):
        D.load_manifest(tmp_path / "manifest.csv")
