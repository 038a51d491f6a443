"""End-to-end CLI flows: synth -> preprocess -> train -> eval/embed, gradcheck, ablate."""

import dataclasses

import numpy as np
import pytest

from rgbdfuse import netpbm
from rgbdfuse.cli import main
from rgbdfuse.data import load_manifest
from rgbdfuse.errors import UsageError
from rgbdfuse.model import ModelConfig, build_model, config_to_text, save_checkpoint
from rgbdfuse.preprocess import DepthImage, depth_clip_normalize

MICRO_CFG = ModelConfig(
    input_size=16,
    backbone_widths=(2, 3),
    classifier_widths=(10, 8, 6),
    lstm_hidden=6,
    batch_size=4,
    classes=3,
    epochs=1,
    learning_rate=1e-3,
)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_synth")
    assert main(["synth", "--classes", "3", "--per-class", "6", "--size", "16", "--seed", "5", "--out", str(root)]) == 0
    return root


def test_synth_writes_manifest(synth_dir):
    manifest = load_manifest(synth_dir / "manifest.csv")
    assert len(manifest.records) == 18
    assert manifest.class_count == 3


def test_preprocess_resizes_and_can_augment(tmp_path, synth_dir):
    out = tmp_path / "proc"
    assert main(["preprocess", "--in", str(synth_dir), "--out", str(out), "--size", "16", "--crop-ratio", "1.0"]) == 0
    manifest = load_manifest(out / "manifest.csv")
    assert len(manifest.records) == 18
    assert netpbm.read_ppm(manifest.records[0].rgb).shape == (16, 16, 3)

    out2 = tmp_path / "proc_aug"
    assert main(
        ["preprocess", "--in", str(synth_dir), "--out", str(out2), "--size", "16", "--augment", "--seed", "3"]
    ) == 0
    manifest2 = load_manifest(out2 / "manifest.csv")
    n_train = sum(r.split == "train" for r in load_manifest(synth_dir / "manifest.csv").records)
    n_test = 18 - n_train
    assert len(manifest2.records) == 4 * n_train + n_test


def test_preprocess_handles_16bit_depth(tmp_path):
    root = tmp_path / "raw"
    (root / "images").mkdir(parents=True)
    rng = np.random.default_rng(0)
    rows = []
    for s in range(2):
        for i in range(2):
            rgb = rng.integers(0, 256, size=(20, 20, 3), dtype=np.uint8)
            depth16 = rng.integers(100, 5000, size=(20, 20), dtype=np.uint16)
            netpbm.write_ppm(root / f"images/{s}_{i}_rgb.ppm", rgb)
            netpbm.write_pgm(root / f"images/{s}_{i}_depth.pgm", depth16)
            rows.append((f"s{s}", str(i), f"images/{s}_{i}_rgb.ppm", f"images/{s}_{i}_depth.pgm", "train" if i == 0 else "test1", 0))
    from rgbdfuse.data import write_manifest

    write_manifest(root / "manifest.csv", rows)
    out = tmp_path / "proc16"
    assert main(["preprocess", "--in", str(root), "--out", str(out), "--size", "16"]) == 0
    manifest = load_manifest(out / "manifest.csv")
    depth = netpbm.read_pgm(manifest.records[0].depth)
    assert depth.dtype == np.uint8
    assert depth.shape == (16, 16)

    # the 8-bit depth matches clip-normalize then crop/resize of the raw image
    raw = netpbm.read_pgm(root / "images/0_0_depth.pgm")
    expected = depth_clip_normalize(DepthImage(raw))
    from rgbdfuse.preprocess import crop_resize

    by_key = {(r.subject, r.sample): r for r in manifest.records}
    got = netpbm.read_pgm(by_key[("s0", "0")].depth)
    assert np.array_equal(got, crop_resize(expected, 16, 0.8))


def test_train_eval_embed_round_trip(tmp_path, synth_dir):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(config_to_text(MICRO_CFG))
    run_dir = tmp_path / "run"
    assert main(["train", "--manifest", str(synth_dir / "manifest.csv"), "--config", str(cfg_path), "--out", str(run_dir)]) == 0
    assert (run_dir / "best.ckpt").is_file()
    assert (run_dir / "report.csv").is_file()

    assert main(["eval", "--checkpoint", str(run_dir / "best.ckpt"), "--manifest", str(synth_dir / "manifest.csv"), "--split", "test1"]) == 0

    emb_path = tmp_path / "emb.csv"
    att_path = tmp_path / "attention.csv"
    assert main(
        [
            "embed",
            "--checkpoint", str(run_dir / "best.ckpt"),
            "--manifest", str(synth_dir / "manifest.csv"),
            "--out", str(emb_path),
            "--attention-out", str(att_path),
        ]
    ) == 0
    lines = emb_path.read_text().splitlines()
    assert lines[0].startswith("sample_id,label,dim0")
    assert len(lines) == 19
    assert len(lines[1].split(",")) == 2 + MICRO_CFG.classifier_widths[-1]

    att_lines = att_path.read_text().splitlines()
    assert att_lines[0] == "sample_id,weight_index,value"
    assert len(att_lines) == 1 + 18 * MICRO_CFG.fused_channels
    values = [float(line.split(",")[2]) for line in att_lines[1:]]
    assert all(0.0 < v < 1.0 for v in values)


def test_train_class_count_mismatch(tmp_path, synth_dir):
    import dataclasses

    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(config_to_text(dataclasses.replace(MICRO_CFG, classes=7)))
    code = main(["train", "--manifest", str(synth_dir / "manifest.csv"), "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 2


def test_gradcheck_cli(capsys):
    assert main(["gradcheck", "--variant", "concat_only", "--max-coords", "10"]) == 0
    out = capsys.readouterr().out
    assert "PASS overall" in out


def test_ablate_cli_single_seed(tmp_path, synth_dir, monkeypatch):
    from rgbdfuse import trainer

    monkeypatch.setattr(trainer, "ABLATION_GRID", trainer.ABLATION_GRID[:2])
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(config_to_text(MICRO_CFG))
    out_csv = tmp_path / "ablation.csv"
    assert main(
        [
            "ablate",
            "--manifest",
            str(synth_dir / "manifest.csv"),
            "--config",
            str(cfg_path),
            "--seeds",
            "0",
            "--out",
            str(out_csv),
        ]
    ) == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 3


def test_eval_missing_split_fails_cleanly(tmp_path, synth_dir):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(config_to_text(MICRO_CFG))
    run_dir = tmp_path / "run2"
    main(["train", "--manifest", str(synth_dir / "manifest.csv"), "--config", str(cfg_path), "--out", str(run_dir)])
    code = main(["eval", "--checkpoint", str(run_dir / "best.ckpt"), "--manifest", str(synth_dir / "manifest.csv"), "--split", "test9"])
    assert code == 2


def _assert_clean_exit(code, capsys, match):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and match in err
    assert "Traceback" not in err


def test_truncated_checkpoint_is_a_clean_exit(tmp_path, synth_dir, capsys):
    path = tmp_path / "best.ckpt"
    save_checkpoint(build_model(MICRO_CFG), path)
    path.write_bytes(path.read_bytes()[:-5])
    code = main(["eval", "--checkpoint", str(path), "--manifest", str(synth_dir / "manifest.csv")])
    _assert_clean_exit(code, capsys, "truncated")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_training_is_a_clean_exit(tmp_path, synth_dir, capsys):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(config_to_text(dataclasses.replace(MICRO_CFG, learning_rate=1e300)))
    run_dir = tmp_path / "run"
    code = main(["train", "--manifest", str(synth_dir / "manifest.csv"), "--config", str(cfg_path), "--out", str(run_dir)])
    _assert_clean_exit(code, capsys, "non-finite")
    assert (run_dir / "summary.csv").is_file()


def test_checkpoint_of_another_input_size_is_a_clean_exit(tmp_path, synth_dir, capsys):
    path = tmp_path / "best.ckpt"
    save_checkpoint(build_model(dataclasses.replace(MICRO_CFG, input_size=32)), path)
    code = main(["eval", "--checkpoint", str(path), "--manifest", str(synth_dir / "manifest.csv")])
    _assert_clean_exit(code, capsys, "rgb batch must be")


def test_usage_error_is_a_clean_exit(capsys, monkeypatch):
    from rgbdfuse import cli

    def misused(**kwargs):
        raise UsageError("batchnorm train mode needs a batch of at least 2")

    monkeypatch.setattr(cli, "gradcheck", misused)
    _assert_clean_exit(main(["gradcheck", "--max-coords", "1"]), capsys, "batchnorm")
