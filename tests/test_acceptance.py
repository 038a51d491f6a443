"""Acceptance gate: one test per criterion, each printing its own PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The slow criteria (desk
training, the seed sweeps) budget a few minutes each; the whole module tracks
well under the stated limits on a desktop CPU.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from rgbdfuse import attention as A
from rgbdfuse import tensor as T
from rgbdfuse import trainer as TR
from rgbdfuse.data import generate_synthetic, load_manifest, make_batches
from rgbdfuse.model import ModelConfig, build_model, load_checkpoint, save_checkpoint
from rgbdfuse.preprocess import (
    AUGMENT_KINDS,
    AugmentParams,
    DepthImage,
    augment,
    augment_expand,
    depth_clip_normalize,
    identity_params,
)


def verdict(number, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} {name}{suffix}"


@pytest.fixture(scope="module")
def desk_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    return load_manifest(
        generate_synthetic(root, classes=10, per_class=30, size=112, seed=42)
    )  # 20 train + 10 test pairs per class


@pytest.fixture(scope="module")
def micro_kit(tmp_path_factory):
    root = tmp_path_factory.mktemp("acc_micro")
    manifest = load_manifest(generate_synthetic(root, classes=3, per_class=6, size=16, seed=11))
    cfg = ModelConfig(
        input_size=16,
        backbone_widths=(2, 3),
        classifier_widths=(10, 8, 6),
        lstm_hidden=6,
        batch_size=4,
        classes=3,
        epochs=2,
        learning_rate=1e-3,
    )
    return manifest, cfg


def test_criterion_1_gradient_fidelity():
    started = time.perf_counter()
    report = TR.gradcheck(variant="two_level", seed=0, max_coords=500, tolerance=1e-4, h=1e-5)
    elapsed = time.perf_counter() - started
    cfg = TR.gradcheck_config("two_level")
    assert cfg.input_size == 16 and cfg.feature_extent == 2 and cfg.fused_channels == 8 and cfg.classes == 2
    coords = sum(g.checked for g in report.groups)
    verdict(
        1,
        "gradient fidelity",
        report.passed and elapsed < 300.0,
        f"{len(report.groups)} parameter groups, {coords} coords, max rel err {report.max_rel_err:.2e}, {elapsed:.0f}s",
    )


def test_criterion_2_analytic_attention_fixtures():
    rng = np.random.default_rng(0)
    fm = A.FeatureMapAttention.init(8, 2, np.random.default_rng(1), hidden=6)
    sp = A.SpatialAttention.init(2, np.random.default_rng(2))
    for module in (fm, sp):
        for _, p in module.parameters():
            p.data[:] = 0.0
    f = T.Tensor(rng.standard_normal((2, 2, 8)))  # one volume, run as a batch of one

    weights, refined = (T.drop_batch_axis(t) for t in A.feature_map_attention(fm, T.add_batch_axis(f)))
    fm_exact = np.array_equal(weights.data, np.full(8, 0.5)) and np.array_equal(refined.data, 0.5 * f.data)

    composed = A.two_level_attention(fm, sp, T.add_batch_axis(f))
    quarter_exact = np.array_equal(T.drop_batch_axis(composed.refined).data, 0.25 * f.data)

    base = ModelConfig(
        input_size=16, backbone_widths=(2, 3), classifier_widths=(10, 8, 6), lstm_hidden=6, classes=3, seed=5
    )
    bypass_cfg = dataclasses.replace(base, fusion="two_level", attention_bypass=True)
    concat_cfg = dataclasses.replace(base, fusion="concat_only")
    rgb = T.Tensor(rng.random((2, 16, 16, 3)))
    depth = T.Tensor(rng.random((2, 16, 16, 1)))
    bypass_logits = build_model(bypass_cfg).forward(rgb, depth, "eval").data
    concat_logits = build_model(concat_cfg).forward(rgb, depth, "eval").data
    bypass_exact = np.array_equal(bypass_logits, concat_logits)

    verdict(
        2,
        "analytic attention fixtures",
        fm_exact and quarter_exact and bypass_exact,
        f"0.5 fixture {fm_exact}, 0.25 composition {quarter_exact}, bypass bit-exact {bypass_exact}",
    )


def test_criterion_3_paper_scale_shapes():
    cfg = ModelConfig(
        input_size=224,
        backbone_widths=(64, 128, 256, 512, 512),
        lstm_hidden=1024,
        classes=106,
        learning_rate=1e-5,
        batch_size=20,
    )
    model = build_model(cfg)
    rng = np.random.default_rng(3)
    stages = model.forward_features(
        T.Tensor(rng.random((1, 224, 224, 3))), T.Tensor(rng.random((1, 224, 224, 1)))
    )
    checks = {
        "f_rgb": stages["f_rgb"].shape == (1, 7, 7, 512),
        "f_depth": stages["f_depth"].shape == (1, 7, 7, 512),
        "f_concat": stages["f_concat"].shape == (1, 7, 7, 1024),
        "fm_weights": stages["fm_weights"].shape == (1, 1024),
        "spatial_weights": stages["spatial_weights"].shape == (1, 7, 7),
        "refined": stages["features"].shape == (1, 7, 7, 1024),
    }
    verdict(3, "paper-scale shape conformance", all(checks.values()), str(checks))


def test_criterion_4_preprocessing_oracle():
    rng = np.random.default_rng(4)
    failures = 0
    for _ in range(1000):
        n = int(10 ** rng.uniform(1.0, 5.0))
        high = int(rng.integers(2, 60000))
        samples = rng.integers(0, high, size=n, dtype=np.uint16).reshape(1, n)
        if not samples.any():
            samples[0, 0] = 1
        got = depth_clip_normalize(DepthImage(samples))

        # independent route: pure-python nearest-rank selection
        ordered = sorted(int(v) for v in samples[0] if v > 0)
        p25 = ordered[max(1, math.ceil(0.25 * len(ordered))) - 1]
        p90 = ordered[max(1, math.ceil(0.90 * len(ordered))) - 1]
        if p25 == p90:
            expected = np.zeros_like(samples, dtype=np.uint8)
        else:
            clipped = np.clip(samples.astype(float), p25, p90)
            expected = np.floor(255.0 * (clipped - p25) / (p90 - p25) + 0.5).astype(np.uint8)
            expected[samples == 0] = 0
        if not np.array_equal(got, expected) or got.min() < 0 or got.max() > 255:
            failures += 1
    verdict(4, "preprocessing percentile oracle", failures == 0, f"{failures}/1000 mismatches")


def test_criterion_5_augmentation_properties():
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, size=(24, 24, 3), dtype=np.uint8)

    flip = AugmentParams(kind="flip", flip=True)
    involution = np.array_equal(augment(augment(img, flip), flip), img)

    identity_ok = all(np.array_equal(augment(img, identity_params(kind)), img) for kind in AUGMENT_KINDS)

    pairs = [
        (
            rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8),
            rng.integers(0, 256, size=(16, 16), dtype=np.uint8),
            i % 4,
        )
        for i in range(25)
    ]
    expanded = augment_expand(pairs, seed=6)
    expansion_ok = len(expanded) == 4 * len(pairs)
    labels_ok = all(expanded[4 * i + j].label == pairs[i][2] for i in range(len(pairs)) for j in range(4))

    verdict(
        5,
        "augmentation properties",
        involution and identity_ok and expansion_ok and labels_ok,
        f"flip involution {involution}, identity {identity_ok}, 4x expansion {expansion_ok}, labels {labels_ok}",
    )


def test_criterion_6_desk_scale_learning(desk_manifest):
    cfg = ModelConfig(classes=10, epochs=18, seed=0)  # defaults: 112 input, 8/16/32/32, lr 1e-3
    model = build_model(cfg)
    started = time.perf_counter()
    report, _ = TR.train(model, desk_manifest)
    elapsed = time.perf_counter() - started
    best_train = max(e.train_acc for e in report.epochs if e.train_acc is not None)
    ok = best_train >= 0.99 and report.best_test_acc >= 0.90 and elapsed < 1800.0
    verdict(
        6,
        "desk-scale learning",
        ok,
        f"train {best_train:.3f}, test {report.best_test_acc:.3f}, {elapsed:.0f}s for {cfg.epochs} epochs",
    )


def test_criterion_7_ablation_ordering(tmp_path_factory):
    root = tmp_path_factory.mktemp("acc_tasks")
    base = ModelConfig(
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
    seeds = [0, 1, 2, 3, 4]

    complementary = load_manifest(
        generate_synthetic(root / "comp", classes=6, per_class=18, size=32, shared_rgb_pairs=True, seed=101)
    )
    means = {}
    for fusion in ("two_level", "concat_only"):
        accs = []
        for seed in seeds:
            cfg = dataclasses.replace(base, fusion=fusion, seed=seed)
            report, _ = TR.train(build_model(cfg), complementary, cfg)
            accs.append(report.best_test_acc)
        means[fusion] = float(np.mean(accs))
    ordering_ok = means["two_level"] >= means["concat_only"] - 0.01
    print(
        f"\n  complementary task (reported): two_level {means['two_level']:.4f} vs "
        f"concat_only {means['concat_only']:.4f}, ordering holds: {ordering_ok}"
    )

    noisy = load_manifest(
        generate_synthetic(
            root / "noise", classes=6, per_class=18, size=32, noise_depth_classes=tuple(range(6)), seed=100
        )
    )
    separated = 0
    for seed in seeds:
        cfg = dataclasses.replace(base, seed=seed)
        report, _ = TR.train(build_model(cfg), noisy, cfg)
        gap = report.fm_weight_rgb_mean - report.fm_weight_depth_mean
        print(f"  noise-depth seed {seed}: rgb-depth attention gap {gap:+.4f}")
        separated += gap > 0
    verdict(
        7,
        "attention weight separation",
        separated >= 4,
        f"depth weights below rgb in {separated}/5 seeds; accuracy ordering reported above",
    )


def test_criterion_8_determinism_and_persistence(micro_kit, tmp_path):
    manifest, cfg = micro_kit
    r1, _ = TR.train(build_model(cfg), manifest)
    r2, _ = TR.train(build_model(cfg), manifest)
    reports_equal = r1.canonical() == r2.canonical()

    model = build_model(cfg)
    TR.train(model, manifest)
    batch = next(make_batches(manifest.records, 6, seed=1))
    before = model.forward(batch.rgb, batch.depth, "eval").data
    path = tmp_path / "acc.ckpt"
    save_checkpoint(model, path, epoch=2)
    after = load_checkpoint(path).forward(batch.rgb, batch.depth, "eval").data
    round_trip = np.array_equal(before, after)

    verdict(
        8,
        "determinism and persistence",
        reports_equal and round_trip,
        f"identical reports {reports_equal}, checkpoint logits bit-exact {round_trip}",
    )


def test_criterion_9_variant_coverage(micro_kit, tmp_path):
    manifest, cfg = micro_kit
    out_csv = tmp_path / "ablation.csv"
    rows = TR.ablate(manifest, cfg, seeds=[0], out_csv=out_csv)

    tables = {}
    for row in rows:
        tables.setdefault(row.table, []).append(row.variant)
    structure_ok = (
        len(tables.get("table5", [])) == 6
        and len(tables.get("table6", [])) == 5
        and len(tables.get("table7", [])) == 4
    )
    lines = out_csv.read_text().splitlines()
    csv_ok = lines[0] == ",".join(TR.ABLATION_COLUMNS) and len(lines) == 1 + len(rows)
    accs_ok = all(0.0 <= row.mean_acc <= 1.0 for row in rows)
    verdict(
        9,
        "ablation variant coverage",
        structure_ok and csv_ok and accs_ok,
        f"{len(rows)} variants ran; table rows 6/5/4 {structure_ok}, csv {csv_ok}",
    )
