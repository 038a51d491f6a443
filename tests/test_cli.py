"""End-to-end CLI flows: synth -> preprocess -> train -> eval/embed, gradcheck, ablate."""

import contextlib
import dataclasses
import shutil

import numpy as np
import pytest

from rgbdfuse import netpbm
from rgbdfuse.cli import main
from rgbdfuse.data import load_manifest, write_manifest
from rgbdfuse.errors import UsageError
from rgbdfuse.model import ModelConfig, build_model, config_to_text, save_checkpoint
from rgbdfuse.preprocess import DepthImage, augment_expand, crop_resize, depth_clip_normalize
from tests.test_model import old_config_text, with_config_text, write_header_only_checkpoint

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


def micro_config_text_with(line):
    """MICRO_CFG's config text with ``line``'s key set to its value, one ModelConfig itself may refuse."""
    key = line.partition("=")[0]
    return "".join(f"{line if old.partition('=')[0] == key else old}\n" for old in config_to_text(MICRO_CFG).splitlines())


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


def test_preprocess_augment_writes_what_one_expand_call_over_all_train_pairs_gives(tmp_path, synth_dir):
    out = tmp_path / "proc"
    assert main(["preprocess", "--in", str(synth_dir), "--out", str(out), "--size", "12", "--augment", "--seed", "3"]) == 0

    records = load_manifest(synth_dir / "manifest.csv").records
    pairs = [(crop_resize(netpbm.read_ppm(r.rgb), 12), crop_resize(netpbm.read_pgm(r.depth), 12)) for r in records]
    train = [(r, rgb, depth) for r, (rgb, depth) in zip(records, pairs) if r.split == "train"]
    expanded = augment_expand([(rgb, depth, r.label) for r, rgb, depth in train], seed=3)
    expected = tmp_path / "expected"
    (expected / "images").mkdir(parents=True)
    rows = []

    def put(r, sample, rgb, depth):
        rgb_rel, depth_rel = f"images/{r.subject}_{sample}_rgb.ppm", f"images/{r.subject}_{sample}_depth.pgm"
        netpbm.write_ppm(expected / rgb_rel, rgb)
        netpbm.write_pgm(expected / depth_rel, depth)
        rows.append((r.subject, sample, rgb_rel, depth_rel, r.split, r.fold))

    for r, (rgb, depth) in zip(records, pairs):
        put(r, r.sample, rgb, depth)
    for i, (r, _, _) in enumerate(train):
        for j in (1, 2, 3):
            put(r, f"{r.sample}_a{j}", expanded[4 * i + j].rgb, expanded[4 * i + j].depth)
    write_manifest(expected / "manifest.csv", rows)

    files = sorted(p.relative_to(expected) for p in expected.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    assert len(files) == 1 + 2 * len(rows)
    for rel in files:
        assert (out / rel).read_bytes() == (expected / rel).read_bytes(), rel


def test_preprocess_to_a_size_below_one_pixel_exits_2_and_writes_nothing(tmp_path, synth_dir, capsys):
    out = tmp_path / "proc"
    code = main(["preprocess", "--in", str(synth_dir), "--out", str(out), "--size", "0"])
    _assert_clean_exit(code, capsys, "at least 1 pixel")
    assert not out.exists()


def test_preprocess_with_a_corrupt_last_input_writes_nothing(tmp_path, synth_dir, capsys):
    raw = tmp_path / "raw"
    shutil.copytree(synth_dir, raw)
    last = load_manifest(raw / "manifest.csv").records[-1]
    last.depth.write_bytes(last.depth.read_bytes()[:-7])
    out = tmp_path / "proc"
    code = main(["preprocess", "--in", str(raw), "--out", str(out), "--size", "16", "--augment"])
    _assert_clean_exit(code, capsys, "truncated")
    assert not out.exists()


def test_preprocess_augment_without_train_pairs_exits_2_and_writes_nothing(tmp_path, synth_dir, capsys):
    raw = tmp_path / "raw"
    shutil.copytree(synth_dir, raw)
    header, *rows = (raw / "manifest.csv").read_text().splitlines()
    (raw / "manifest.csv").write_text("\n".join([header] + [row for row in rows if ",train," not in row]) + "\n")
    out = tmp_path / "proc"
    code = main(["preprocess", "--in", str(raw), "--out", str(out), "--size", "16", "--augment"])
    _assert_clean_exit(code, capsys, "train pair")
    assert not out.exists()


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


def test_embed_with_attention_out_runs_one_forward_per_batch(tmp_path, synth_dir, monkeypatch):
    from rgbdfuse.model import Model

    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(build_model(MICRO_CFG), ckpt)
    args = ["embed", "--checkpoint", str(ckpt), "--manifest", str(synth_dir / "manifest.csv")]
    assert main(args + ["--out", str(tmp_path / "plain.csv")]) == 0

    fused = {"n": 0}
    real_fuse = Model._fuse

    def counted_fuse(self, rgb, depth):
        fused["n"] += 1
        return real_fuse(self, rgb, depth)

    monkeypatch.setattr(Model, "_fuse", counted_fuse)
    att_path = tmp_path / "attention.csv"
    assert main(args + ["--out", str(tmp_path / "emb.csv"), "--attention-out", str(att_path)]) == 0
    assert fused["n"] == -(-18 // MICRO_CFG.batch_size)
    assert (tmp_path / "emb.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    # the weights are the feature-map weights of the same forward, as before
    from rgbdfuse.attention import write_weights_csv
    from rgbdfuse.data import make_batches
    from rgbdfuse.model import load_checkpoint

    model = load_checkpoint(ckpt)
    with open(tmp_path / "expected.csv", "w", encoding="utf-8") as fh:
        fh.write("sample_id,weight_index,value\n")
        for batch in make_batches(load_manifest(synth_dir / "manifest.csv").records, MICRO_CFG.batch_size, seed=0):
            write_weights_csv(fh, batch.sample_ids, model.forward_features(batch.rgb, batch.depth)["fm_weights"])
    assert att_path.read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_embed_to_one_file_for_both_outputs_is_a_clean_exit(tmp_path, synth_dir, capsys):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(build_model(MICRO_CFG), ckpt)
    out = tmp_path / "emb.csv"
    args = ["embed", "--checkpoint", str(ckpt), "--manifest", str(synth_dir / "manifest.csv")]
    code = main(args + ["--out", str(out), "--attention-out", str(tmp_path / "." / "emb.csv")])
    _assert_clean_exit(code, capsys, "different file")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


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


def test_gradcheck_of_no_coordinates_is_a_clean_exit(capsys):
    code = main(["gradcheck", "--variant", "concat_only", "--max-coords", "0"])
    _assert_clean_exit(code, capsys, "max_coords")


def test_train_on_a_config_with_no_classifier_width_is_a_clean_exit(tmp_path, synth_dir, capsys):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(config_to_text(MICRO_CFG).replace("classifier_widths=10,8,6", "classifier_widths="))
    run_dir = tmp_path / "run"
    code = main(["train", "--manifest", str(synth_dir / "manifest.csv"), "--config", str(cfg_path), "--out", str(run_dir)])
    _assert_clean_exit(code, capsys, "classifier widths")
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "flag, value, match",
    [
        ("--noise-depth-classes", "x", "comma list of integers"),
        ("--noise-rgb-classes", "x", "comma list of integers"),
        ("--noise-depth-classes", "7", "outside 0..1"),
        ("--noise-rgb-classes", "0,-1", "outside 0..1"),
    ],
)
def test_synth_with_a_bad_class_list_is_a_clean_exit(tmp_path, capsys, flag, value, match):
    out = tmp_path / "synth"
    code = main(["synth", "--classes", "2", "--per-class", "3", "--size", "16", flag, value, "--out", str(out)])
    _assert_clean_exit(code, capsys, match)
    assert not out.exists()


def test_ablate_with_a_bad_seed_list_is_a_clean_exit(tmp_path, synth_dir, capsys):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(config_to_text(MICRO_CFG))
    args = ["ablate", "--manifest", str(synth_dir / "manifest.csv"), "--config", str(cfg_path)]
    code = main(args + ["--seeds", "a", "--out", str(tmp_path / "ablation.csv")])
    _assert_clean_exit(code, capsys, "--seeds")
    assert not (tmp_path / "ablation.csv").exists()


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


def test_checkpoint_config_of_an_impossible_model_is_a_clean_exit(tmp_path, synth_dir, capsys):
    path = tmp_path / "best.ckpt"
    write_header_only_checkpoint(path, MICRO_CFG)
    # ModelConfig refuses a 2^62-wide head, so only its text can name one
    with_config_text(path, micro_config_text_with("classifier_widths=4611686018427387904"))
    code = main(["eval", "--checkpoint", str(path), "--manifest", str(synth_dir / "manifest.csv")])
    _assert_clean_exit(code, capsys, "bytes of parameters")


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


def test_non_utf8_checkpoint_is_a_clean_exit(tmp_path, synth_dir, capsys):
    path = tmp_path / "best.ckpt"
    save_checkpoint(build_model(MICRO_CFG), path)
    raw = bytearray(path.read_bytes())
    raw[12] = 0xFF  # first byte of the config text
    path.write_bytes(bytes(raw))
    code = main(["eval", "--checkpoint", str(path), "--manifest", str(synth_dir / "manifest.csv")])
    _assert_clean_exit(code, capsys, "not UTF-8")


def test_checkpoint_with_a_retired_key_set_is_a_clean_exit(tmp_path, synth_dir, capsys):
    path = tmp_path / "best.ckpt"
    save_checkpoint(build_model(MICRO_CFG), path)
    with_config_text(path, old_config_text(MICRO_CFG, share_backbones="true"))
    code = main(["eval", "--checkpoint", str(path), "--manifest", str(synth_dir / "manifest.csv")])
    _assert_clean_exit(code, capsys, "retired")


class _FailSecondWrite:
    """A file whose second write fails, as on a full disk."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            raise OSError("disk full")
        return self.fh.write(data)


@pytest.mark.parametrize("target", ["image", "manifest", "embed"])
def test_a_write_failing_part_way_keeps_the_previous_file(tmp_path, synth_dir, monkeypatch, target):
    from rgbdfuse import cli, data

    rng = np.random.default_rng(3)
    if target == "image":
        module, outputs = netpbm, [tmp_path / "x.ppm"]

        def write():
            netpbm.write_ppm(outputs[0], rng.integers(0, 256, size=(4, 5, 3), dtype=np.uint8))

    elif target == "manifest":
        module, outputs = data, [tmp_path / "manifest.csv"]

        def write():
            write_manifest(outputs[0], [("s0", str(rng.integers(1000)), "a.ppm", "a.pgm", "train", 0)])

    else:
        module, outputs = cli, [tmp_path / "emb.csv", tmp_path / "attention.csv"]
        ckpt = tmp_path / "model.ckpt"

        def write():
            save_checkpoint(build_model(dataclasses.replace(MICRO_CFG, seed=int(rng.integers(1000)))), ckpt)
            args = ["embed", "--checkpoint", str(ckpt), "--manifest", str(synth_dir / "manifest.csv")]
            assert main(args + ["--out", str(outputs[0]), "--attention-out", str(outputs[1])]) == 0

    write()
    before = [p.read_bytes() for p in outputs]
    real_atomic_write = module.atomic_write

    @contextlib.contextmanager
    def failing_atomic_write(path, mode="w", **kwargs):
        with real_atomic_write(path, mode, **kwargs) as fh:
            yield _FailSecondWrite(fh)

    monkeypatch.setattr(module, "atomic_write", failing_atomic_write)
    with pytest.raises(OSError, match="disk full"):
        write()
    assert [p.read_bytes() for p in outputs] == before
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("command, name", [("eval", "nope.ckpt"), ("embed", "nope.ckpt"), ("eval", ".")])
def test_a_checkpoint_that_cannot_be_opened_is_a_clean_exit(tmp_path, synth_dir, capsys, command, name):
    path = tmp_path / name  # a missing file, or a directory
    args = [command, "--checkpoint", str(path), "--manifest", str(synth_dir / "manifest.csv")]
    code = main(args + (["--out", str(tmp_path / "emb.csv")] if command == "embed" else []))
    _assert_clean_exit(code, capsys, f"cannot open checkpoint {path}")
    assert not (tmp_path / "emb.csv").exists()


@pytest.mark.parametrize("content", [None, b"classes=3\xff\n"], ids=["missing", "not-utf8"])
def test_a_config_that_cannot_be_read_is_a_clean_exit_that_writes_nothing(tmp_path, synth_dir, capsys, content):
    path, run_dir = tmp_path / "config.txt", tmp_path / "run"
    if content is not None:
        path.write_bytes(content)
    code = main(["train", "--manifest", str(synth_dir / "manifest.csv"), "--config", str(path), "--out", str(run_dir)])
    _assert_clean_exit(code, capsys, f"cannot read config {path}")
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "config_line, extra, match",
    [
        ("", ["--seed", "-1"], "seed"),
        ("batch_size=0", [], "batch_size"),
        ("batch_size=1", [], "batch_size"),
        ("epochs=-2", [], "epochs"),
        ("learning_rate=nan", [], "learning_rate"),
        ("learning_rate=inf", [], "learning_rate"),
        ("learning_rate=0", [], "learning_rate"),
        ("learning_rate=-0.001", [], "learning_rate"),
        ("lr_decay=nan", [], "lr_decay"),
        ("lr_decay=inf", [], "lr_decay"),
        ("lr_decay=0", [], "lr_decay"),
        ("lr_decay=-0.9", [], "lr_decay"),
    ],
    ids=[
        "seed",
        "batch_size",
        "batch_size_1",
        "epochs",
        "lr_nan",
        "lr_inf",
        "lr_zero",
        "lr_negative",
        "decay_nan",
        "decay_inf",
        "decay_zero",
        "decay_negative",
    ],
)
def test_train_with_a_negative_seed_an_empty_batch_or_negative_epochs_writes_nothing(
    tmp_path, synth_dir, capsys, config_line, extra, match
):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(micro_config_text_with(config_line))
    run_dir = tmp_path / "run"
    args = ["train", "--manifest", str(synth_dir / "manifest.csv"), "--config", str(cfg_path), "--out", str(run_dir)]
    _assert_clean_exit(main(args + extra), capsys, match)
    assert not run_dir.exists()


def test_ablate_with_a_negative_seed_is_a_clean_exit_before_any_run(tmp_path, synth_dir, capsys, monkeypatch):
    from rgbdfuse import trainer

    def no_training(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(trainer, "train", no_training)
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(config_to_text(MICRO_CFG))
    args = ["ablate", "--manifest", str(synth_dir / "manifest.csv"), "--config", str(cfg_path)]
    code = main(args + ["--seeds", "0,-1", "--out", str(tmp_path / "ablation.csv")])
    _assert_clean_exit(code, capsys, "seed")
    assert not (tmp_path / "ablation.csv").exists()


@pytest.mark.parametrize(
    "option, value, match",
    [
        ("--seed", "-1", "seed"),
        *(("--test-fraction", v, "test fraction") for v in ("nan", "inf", "-1", "0", "1", "2")),
    ],
    ids=["seed", *(f"test_fraction_{v}" for v in ("nan", "inf", "-1", "0", "1", "2"))],
)
def test_synth_with_a_negative_seed_writes_nothing(tmp_path, capsys, option, value, match):
    out = tmp_path / "synth"
    code = main(["synth", "--classes", "2", "--per-class", "3", "--size", "16", option, value, "--out", str(out)])
    _assert_clean_exit(code, capsys, match)
    assert not out.exists()


def test_preprocess_with_a_negative_seed_writes_nothing(tmp_path, synth_dir, capsys):
    out = tmp_path / "proc"
    code = main(["preprocess", "--in", str(synth_dir), "--out", str(out), "--size", "16", "--augment", "--seed", "-1"])
    _assert_clean_exit(code, capsys, "--seed")
    assert not out.exists()


def test_eval_on_a_manifest_of_another_class_count_is_a_clean_exit(tmp_path, synth_dir, capsys):
    path = tmp_path / "best.ckpt"
    save_checkpoint(build_model(dataclasses.replace(MICRO_CFG, classes=2)), path)
    code = main(["eval", "--checkpoint", str(path), "--manifest", str(synth_dir / "manifest.csv")])
    _assert_clean_exit(code, capsys, "config says 2 classes but manifest has 3")


@pytest.mark.parametrize("command", ["synth", "preprocess", "train"])
def test_an_output_directory_that_is_a_file_is_a_clean_exit(tmp_path, synth_dir, capsys, command):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(config_to_text(MICRO_CFG))
    args = {
        "synth": ["synth", "--classes", "2", "--per-class", "3", "--size", "16"],
        "preprocess": ["preprocess", "--in", str(synth_dir), "--size", "16"],
        "train": ["train", "--manifest", str(synth_dir / "manifest.csv"), "--config", str(cfg_path)],
    }[command]
    out = tmp_path / "run"
    out.write_text("kept")
    _assert_clean_exit(main(args + ["--out", str(out)]), capsys, "cannot make output directory")
    assert out.read_text() == "kept"


@pytest.mark.parametrize(
    "flag, target, match",
    [
        ("--out", "missing/emb.csv", "output directory {tmp}/missing does not exist"),
        ("--attention-out", "missing/att.csv", "output directory {tmp}/missing does not exist"),
        ("--out", ".", "output {tmp} is a directory"),
    ],
    ids=["out-missing-dir", "attention-out-missing-dir", "out-is-a-dir"],
)
def test_embed_into_a_path_that_cannot_take_a_file_is_a_clean_exit(
    tmp_path, synth_dir, capsys, monkeypatch, flag, target, match
):
    from rgbdfuse import cli

    def no_load(path):
        raise AssertionError("the checkpoint was read")

    monkeypatch.setattr(cli, "load_checkpoint", no_load)
    outputs = {"--out": str(tmp_path / "emb.csv"), flag: str(tmp_path / target)}
    args = ["embed", "--checkpoint", str(tmp_path / "model.ckpt"), "--manifest", str(synth_dir / "manifest.csv")]
    code = main(args + [a for pair in outputs.items() for a in pair])
    _assert_clean_exit(code, capsys, match.format(tmp=tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_ablate_into_a_missing_directory_is_a_clean_exit_before_any_run(tmp_path, synth_dir, capsys, monkeypatch):
    from rgbdfuse import trainer

    def no_training(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(trainer, "train", no_training)
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(config_to_text(MICRO_CFG))
    out = tmp_path / "missing" / "ablation.csv"
    args = ["ablate", "--manifest", str(synth_dir / "manifest.csv"), "--config", str(cfg_path)]
    code = main(args + ["--seeds", "0", "--out", str(out)])
    _assert_clean_exit(code, capsys, f"output directory {out.parent} does not exist")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.txt"]


# Each size below is either refused with the config or makes the first array it asks for at least
# 2^58 bytes, more than any address space holds, so the allocation fails at once and touches no memory.
@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize(
    "config_line, match",
    [
        ("classifier_widths=4503599627370496", "Unable to allocate"),  # 2^52: 96 x 2^52 weights
        ("classifier_widths=4611686018427387904", "bytes of parameters"),  # 2^62
        ("lstm_hidden=3037000500", "bytes of parameters"),
    ],
    ids=["head-allocation", "head-past-2^63-bytes", "lstm-past-2^63-bytes"],
)
def test_a_model_too_big_to_allocate_is_a_clean_exit_before_any_run(
    tmp_path, synth_dir, capsys, monkeypatch, command, config_line, match
):
    from rgbdfuse import trainer

    def no_training(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(trainer, "train", no_training)
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(micro_config_text_with(config_line))
    args = [command, "--manifest", str(synth_dir / "manifest.csv"), "--config", str(cfg_path)]
    args += ["--out", str(tmp_path / "run")] if command == "train" else ["--seeds", "0", "--out", str(tmp_path / "a.csv")]
    _assert_clean_exit(main(args), capsys, match)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.txt"]


@pytest.mark.parametrize("command", ["synth", "preprocess"])
def test_an_image_size_too_big_to_allocate_is_a_clean_exit_that_writes_nothing(tmp_path, synth_dir, capsys, command):
    size = str(1 << 55)  # a row of 2^55 float64 coordinates is 2^58 bytes
    args = {
        "synth": ["synth", "--classes", "2", "--per-class", "3"],
        "preprocess": ["preprocess", "--in", str(synth_dir)],
    }[command]
    out = tmp_path / "out"
    _assert_clean_exit(main(args + ["--size", size, "--out", str(out)]), capsys, "Unable to allocate")
    assert not out.exists()


def _copy_with_one_train_record(tmp_path, synth_dir):
    """A copy of the synthetic dataset and its first train record, whose images a test may spoil."""
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    return data / "manifest.csv", next(r for r in load_manifest(data / "manifest.csv").records if r.split == "train")


@pytest.mark.parametrize("command", ["train", "eval", "embed"])
@pytest.mark.parametrize("kind", ["rgb", "depth"])
def test_images_of_two_sizes_in_one_batch_are_a_clean_exit(tmp_path, synth_dir, capsys, kind, command):
    manifest, record = _copy_with_one_train_record(tmp_path, synth_dir)
    if kind == "rgb":
        netpbm.write_ppm(record.rgb, np.zeros((20, 20, 3), dtype=np.uint8))
    else:
        netpbm.write_pgm(record.depth, np.zeros((20, 20), dtype=np.uint8))
    cfg_path, ckpt = tmp_path / "config.txt", tmp_path / "model.ckpt"
    cfg_path.write_text(config_to_text(MICRO_CFG))
    save_checkpoint(build_model(MICRO_CFG), ckpt)
    args = {
        "train": ["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")],
        "eval": ["eval", "--checkpoint", str(ckpt), "--split", "train"],
        "embed": ["embed", "--checkpoint", str(ckpt), "--out", str(tmp_path / "emb.csv")],
    }[command]
    code = main(args + ["--manifest", str(manifest)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and "Traceback" not in err
    for part in (f"{kind} image", f"{record.subject}/{record.sample}", "(20, 20)", "(16, 16)"):
        assert part in err, part


def test_a_truncated_train_image_restores_the_best_and_writes_every_report(tmp_path, synth_dir, capsys):
    manifest, record = _copy_with_one_train_record(tmp_path, synth_dir)
    record.rgb.write_bytes(record.rgb.read_bytes()[:-7])
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(config_to_text(MICRO_CFG))
    run = tmp_path / "run"
    code = main(["train", "--manifest", str(manifest), "--config", str(cfg_path), "--out", str(run)])
    _assert_clean_exit(code, capsys, "best checkpoint from epoch 0 retained")
    assert sorted(p.name for p in run.iterdir()) == ["best.ckpt", "config.txt", "report.csv", "summary.csv"]
    assert (run / "summary.csv").read_text().splitlines()[1].endswith(",true")


def test_a_truncated_test_image_met_by_the_untrained_evaluation_writes_every_report(tmp_path, synth_dir, capsys):
    manifest, _ = _copy_with_one_train_record(tmp_path, synth_dir)
    record = next(r for r in load_manifest(manifest).records if r.split != "train")
    record.rgb.write_bytes(record.rgb.read_bytes()[:-7])
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(config_to_text(MICRO_CFG))
    run = tmp_path / "run"
    code = main(["train", "--manifest", str(manifest), "--config", str(cfg_path), "--out", str(run)])
    _assert_clean_exit(code, capsys, "best checkpoint from epoch 0 retained")
    assert sorted(p.name for p in run.iterdir()) == ["best.ckpt", "config.txt", "report.csv", "summary.csv"]
    assert (run / "summary.csv").read_text().splitlines()[1].endswith(",true")


def test_train_of_a_model_built_from_another_config_is_a_clean_exit(tmp_path, synth_dir, capsys, monkeypatch):
    from rgbdfuse import cli

    # the CLI builds the model from the config it trains with; a model of another seed must not mix with it
    monkeypatch.setattr(cli, "build_model", lambda cfg: build_model(dataclasses.replace(cfg, seed=cfg.seed + 1)))
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(config_to_text(MICRO_CFG))
    run = tmp_path / "run"
    code = main(["train", "--manifest", str(synth_dir / "manifest.csv"), "--config", str(cfg_path), "--out", str(run)])
    _assert_clean_exit(code, capsys, "model.cfg")
    assert not run.exists()
