"""Model assembly, forward determinism, parameter arithmetic, checkpoints."""

import dataclasses
import io
import struct
from pathlib import Path

import numpy as np
import pytest

from rgbdfuse import model as M
from rgbdfuse import tensor as T
from rgbdfuse.errors import CheckpointError, ConfigError, DataError

TINY = dict(
    input_size=16,
    backbone_widths=(2, 3),
    classifier_widths=(8, 6, 4),
    lstm_hidden=4,
    classes=3,
    seed=123,
)


def tiny_cfg(**overrides):
    merged = {**TINY, **overrides}
    return M.ModelConfig(**merged)


def tiny_batch(cfg, b=2, seed=0):
    rng = np.random.default_rng(seed)
    rgb = rng.random((b, cfg.input_size, cfg.input_size, 3))
    depth = rng.random((b, cfg.input_size, cfg.input_size, 1))
    return T.Tensor(rgb), T.Tensor(depth)


# -- config ------------------------------------------------------------------


def test_config_text_round_trip():
    cfg = tiny_cfg(fusion="spatial_only", dropout=0.25, blstm=True)
    back = M.config_from_text(M.config_to_text(cfg))
    assert back == cfg


def old_config_text(
    cfg,
    share_backbones="false",
    classifier_input="flatten",
    decay_per_step="false",
    attention_activation="sigmoid",
    transposed_sequence="false",
):
    """``cfg``'s text as written before the retired keys were removed, each at its old place."""
    after = {
        "backbone_widths": f"share_backbones={share_backbones}",
        "blstm": f"attention_activation={attention_activation}\ntransposed_sequence={transposed_sequence}",
        "classifier_widths": f"classifier_input={classifier_input}",
        "lr_decay": f"decay_per_step={decay_per_step}",
    }
    lines = []
    for line in M.config_to_text(cfg).splitlines():
        lines.append(line)
        if line.partition("=")[0] in after:
            lines.append(after[line.partition("=")[0]])
    return "\n".join(lines) + "\n"


def test_config_with_retired_keys_at_their_old_values_parses():
    cfg = tiny_cfg(fusion="spatial_only")
    assert M.config_from_text(old_config_text(cfg)) == cfg


@pytest.mark.parametrize(
    "retired",
    [
        {"share_backbones": "true"},
        {"classifier_input": "pool"},
        {"decay_per_step": "true"},
        {"attention_activation": "softmax"},
        {"transposed_sequence": "true"},
    ],
)
def test_config_with_a_retired_key_at_another_value_is_config_error(tmp_path, retired):
    path = tmp_path / "config.txt"
    path.write_text(old_config_text(tiny_cfg(), **retired))
    key = next(iter(retired))
    with pytest.raises(ConfigError, match=f"{key}.*retired"):
        M.load_config(path)


def test_config_comments_run_to_the_end_of_the_line():
    text = "# a whole-line comment\nclasses=3   # a trailing comment\nfusion=concat_only#no space\n"
    assert M.config_from_text(text) == M.ModelConfig(classes=3, fusion="concat_only")


def test_readme_config_block_parses_to_the_defaults_and_names_every_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Config files") :]
    block = section.split("```")[1]
    assert M.config_from_text(block) == M.ModelConfig()
    named = {line.partition("#")[0].partition("=")[0].strip() for line in block.splitlines()} - {""}
    assert named == {f.name for f in dataclasses.fields(M.ModelConfig)}


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        tiny_cfg(classes=1)
    with pytest.raises(ConfigError):
        tiny_cfg(fusion="late")
    with pytest.raises(ConfigError):
        tiny_cfg(input_size=18)
    with pytest.raises(ConfigError):
        M.config_from_text("nonsense_key=3\n")
    with pytest.raises(ConfigError):
        M.config_from_text("classes=abc\n")
    with pytest.raises(ConfigError, match=r"'classes' is given twice, on lines 2 and 4"):
        M.config_from_text("# header\nclasses=2\nseed=1\nclasses=3\n")


def test_config_text_with_no_classifier_width_is_refused(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text(M.config_to_text(tiny_cfg()).replace("classifier_widths=8,6,4", "classifier_widths="))
    with pytest.raises(ConfigError, match="classifier widths"):
        M.load_config(path)


def test_desk_scale_fused_shape():
    cfg = M.ModelConfig()
    assert cfg.feature_extent == 7
    assert cfg.feature_channels == 32
    assert cfg.fused_channels == 64
    assert cfg.classifier_widths == (2048, 1024, 512)  # embedding width 512


# -- build ---------------------------------------------------------------------


def test_build_same_seed_identical_parameters():
    cfg = tiny_cfg()
    a = M.build_model(cfg)
    b = M.build_model(cfg)
    for (name_a, pa), (name_b, pb) in zip(a.parameters(), b.parameters()):
        assert name_a == name_b
        assert np.array_equal(pa.data, pb.data), name_a


def test_build_desk_scale_concat_shape():
    cfg = M.ModelConfig(classes=4, classifier_widths=(16, 12, 8), lstm_hidden=8)
    model = M.build_model(cfg)
    rgb, depth = tiny_batch(cfg, b=1)
    stages = model.forward_features(rgb, depth)
    assert stages["f_rgb"].shape == (1, 7, 7, 32)
    assert stages["f_depth"].shape == (1, 7, 7, 32)
    assert stages["f_concat"].shape == (1, 7, 7, 64)
    assert stages["fm_weights"].shape == (1, 64)
    assert stages["spatial_weights"].shape == (1, 7, 7)
    assert stages["features"].shape == (1, 7, 7, 64)


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"fusion": "concat_only"},
        {"fusion": "feature_map_only"},
        {"fusion": "spatial_only"},
        {"fm_variant": "dense_only"},
        {"spatial_variant": "dense"},
        {"lstm_layers": 2},
        {"lstm_layers": 3},
        {"blstm": True},
        {"fusion": "feature_map_only", "blstm": True},
        {"fm_variant": "dense_only", "spatial_variant": "dense"},
        {"modality": "rgb"},
        {"modality": "depth"},
        {"fusion": "spatial_only", "spatial_variant": "dense"},
    ],
)
def test_parameter_count_oracle_matches_build(overrides):
    cfg = tiny_cfg(**overrides)
    model = M.build_model(cfg)
    built = sum(p.size for _, p in model.parameters())
    assert built == M.parameter_count(cfg), overrides


# -- forward ----------------------------------------------------------------------


def test_concat_only_equals_bypassed_two_level_bit_exact():
    base = tiny_cfg(fusion="concat_only")
    bypass = tiny_cfg(fusion="two_level", attention_bypass=True)
    rgb, depth = tiny_batch(base)
    out_a = M.build_model(base).forward(rgb, depth, "eval")
    out_b = M.build_model(bypass).forward(rgb, depth, "eval")
    assert np.array_equal(out_a.data, out_b.data)


def test_eval_batch_independence():
    # no batch-statistic leakage in eval mode; equality is up to BLAS
    # reduction order in the dense layers (observed stable to ~1e-19)
    cfg = tiny_cfg()
    model = M.build_model(cfg)
    rgb, depth = tiny_batch(cfg, b=1)
    single = model.forward(rgb, depth, "eval").data
    rgb2 = T.Tensor(np.concatenate([rgb.data, rgb.data]))
    depth2 = T.Tensor(np.concatenate([depth.data, depth.data]))
    double = model.forward(rgb2, depth2, "eval").data
    for row in double:
        assert np.allclose(row, single[0], rtol=0, atol=1e-12)
        assert row.argmax() == single[0].argmax()


def test_forward_batch_mismatch_is_data_error():
    cfg = tiny_cfg()
    model = M.build_model(cfg)
    rgb, _ = tiny_batch(cfg, b=2)
    _, depth = tiny_batch(cfg, b=3)
    with pytest.raises(DataError):
        model.forward(rgb, depth)


def test_every_parameter_reaches_loss():
    cfg = tiny_cfg(dropout=0.0)
    model = M.build_model(cfg)
    rgb, depth = tiny_batch(cfg, b=4, seed=7)
    logits = model.forward(rgb, depth, "train")
    loss = T.cross_entropy(logits, [0, 1, 2, 0])
    params = [p for _, p in model.parameters()]
    T.backward(loss, params)
    for name, p in model.parameters():
        assert p.grad is not None and np.all(np.isfinite(p.grad)), name
        if name.startswith(("fm_attention", "spatial_attention")):
            assert np.abs(p.grad).sum() > 0, name


def test_single_modality_forward_shapes():
    for modality in ("rgb", "depth"):
        cfg = tiny_cfg(modality=modality)
        model = M.build_model(cfg)
        rgb, depth = tiny_batch(cfg)
        assert model.forward(rgb, depth).shape == (2, 3)


def _train_step_outputs(cfg, rgb, depth):
    """Train-mode logits and every parameter's gradient of a fresh model."""
    model = M.build_model(cfg)
    logits = model.forward(rgb, depth, "train")
    T.backward(T.cross_entropy(logits, np.arange(rgb.shape[0]) % cfg.classes), [p for _, p in model.parameters()])
    return logits.data, {name: p.grad for name, p in model.parameters()}


def test_concurrent_backbones_equal_a_sequential_run_bit_for_bit(monkeypatch):
    cfg = tiny_cfg(input_size=32, backbone_widths=(4, 8), dropout=0.5)
    rgb, depth = tiny_batch(cfg, b=6, seed=8)
    logits, grads = _train_step_outputs(cfg, rgb, depth)
    monkeypatch.setattr(T, "_branch_worker", lambda: None)
    seq_logits, seq_grads = _train_step_outputs(cfg, rgb, depth)
    assert np.array_equal(logits, seq_logits)
    assert grads.keys() == seq_grads.keys()
    for name in grads:
        assert np.array_equal(grads[name], seq_grads[name]), name


@pytest.mark.parametrize("modality, branch", [("rgb", "f_rgb"), ("depth", "f_depth")])
def test_a_single_modality_model_runs_its_one_branch_without_the_branch_worker(monkeypatch, modality, branch):
    def no_worker():
        raise AssertionError("a single-branch forward or backward made the branch worker")

    monkeypatch.setattr(T, "_branch_worker", no_worker)
    cfg = tiny_cfg(modality=modality)
    rgb, depth = tiny_batch(cfg)
    stages = M.build_model(cfg).forward_features(rgb, depth)
    assert [name for name in stages if name.startswith("f_")] == [branch, "f_concat"]
    assert np.array_equal(stages[branch].data, stages["features"].data)
    assert np.array_equal(stages["f_concat"].data, stages["features"].data)
    logits, grads = _train_step_outputs(cfg, rgb, depth)
    assert np.isfinite(logits).all() and all(g is not None for g in grads.values())


def _forward_and_exit(model, rgb, depth, expected):
    logits = model.forward(rgb, depth, "eval").data
    raise SystemExit(0 if np.array_equal(logits, expected) else 3)


def test_a_forked_child_runs_the_backbones_after_its_parent_did():
    import multiprocessing

    cfg = tiny_cfg()
    model = M.build_model(cfg)
    rgb, depth = tiny_batch(cfg)
    expected = model.forward(rgb, depth, "eval").data  # the parent's branch worker now exists
    child = multiprocessing.get_context("fork").Process(target=_forward_and_exit, args=(model, rgb, depth, expected))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child's forward did not finish within 60 s")
    assert child.exitcode == 0


def test_logits_golden_regression():
    # frozen output of the reference build (generated once, then pinned)
    cfg = tiny_cfg()
    model = M.build_model(cfg)
    rgb, depth = tiny_batch(cfg, b=2, seed=42)
    logits = model.forward(rgb, depth, "eval").data
    expected = np.array(GOLDEN_LOGITS)
    assert logits.shape == expected.shape
    assert np.array_equal(logits, expected)


GOLDEN_LOGITS = [
    [-3.036921055565071e-05, -0.00013900469656110697, 6.911382827497369e-05],
    [-0.00017400874497992353, -2.3158780405851416e-05, -8.903444839898185e-05],
]


# -- embeddings ----------------------------------------------------------------------


def test_embedding_width_and_determinism():
    cfg = tiny_cfg()
    model = M.build_model(cfg)
    rgb, depth = tiny_batch(cfg)
    emb1 = M.extract_embedding(model, rgb, depth)
    emb2 = M.extract_embedding(model, rgb, depth)
    assert emb1.shape == (2, cfg.classifier_widths[-1])
    assert np.array_equal(emb1.data, emb2.data)


def test_embeddings_differ_across_seeds():
    rgb, depth = tiny_batch(tiny_cfg())
    emb_a = M.extract_embedding(M.build_model(tiny_cfg(seed=1)), rgb, depth)
    emb_b = M.extract_embedding(M.build_model(tiny_cfg(seed=2)), rgb, depth)
    assert np.abs(emb_a.data - emb_b.data).max() > 1e-6


# -- checkpoints -----------------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg = tiny_cfg()
    model = M.build_model(cfg)
    rgb, depth = tiny_batch(cfg, b=3, seed=9)
    # move batchnorm stats off their init values so persistence is actually exercised
    model.forward(rgb, depth, "train")
    before = model.forward(rgb, depth, "eval").data

    path = tmp_path / "model.ckpt"
    M.save_checkpoint(model, path, epoch=4)
    restored = M.load_checkpoint(path)
    after = restored.forward(rgb, depth, "eval").data
    assert np.array_equal(before, after)

    cfg_back, epoch, _ = M.read_checkpoint(path)
    assert epoch == 4
    assert cfg_back == cfg


def with_config_text(path, text):
    """Rewrite the FCKP file at ``path`` with ``text`` in place of its config text."""
    raw = path.read_bytes()
    clen = struct.unpack("<I", raw[8:12])[0]
    body = text.encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(body)) + body + raw[12 + clen :])


def test_checkpoint_with_retired_config_keys_loads(tmp_path):
    cfg = tiny_cfg()
    model = M.build_model(cfg)
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(model, path)
    with_config_text(path, old_config_text(cfg))
    for key, value in M.RETIRED_KEYS.items():
        assert f"{key}={value}".encode() in path.read_bytes()
    rgb, depth = tiny_batch(cfg)
    restored = M.load_checkpoint(path)
    assert restored.cfg == cfg
    assert np.array_equal(restored.forward(rgb, depth).data, model.forward(rgb, depth).data)


def test_loaded_model_draws_the_same_dropout_masks_as_a_built_one(tmp_path):
    cfg = tiny_cfg(dropout=0.5)
    built = M.build_model(cfg)
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(built, path)
    loaded = M.load_checkpoint(path)
    fresh = M.build_model(cfg)
    rgb, depth = tiny_batch(cfg, b=4, seed=8)
    for _ in range(3):  # consecutive train-mode passes draw consecutive masks
        want = fresh.forward(rgb, depth, "train").data
        assert np.array_equal(loaded.forward(rgb, depth, "train").data, want)
    for (name, a), b in zip(loaded.arrays().items(), fresh.arrays().values()):
        assert np.array_equal(a, b), name


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    cfg = tiny_cfg()
    first = M.build_model(cfg)
    path = tmp_path / "best.ckpt"
    M.save_checkpoint(first, path)

    written = {"n": 0}
    real_write = T.write_tensor

    def failing_write(stream, t):
        written["n"] += 1
        if written["n"] == 3:
            raise OSError("disk full")
        real_write(stream, t)

    monkeypatch.setattr(T, "write_tensor", failing_write)
    with pytest.raises(OSError, match="disk full"):
        M.save_checkpoint(M.build_model(tiny_cfg(seed=7)), path)
    monkeypatch.undo()

    assert sorted(p.name for p in tmp_path.iterdir()) == ["best.ckpt"]
    restored = M.load_checkpoint(path)
    for (name, a), (_, b) in zip(first.parameters(), restored.parameters()):
        assert np.array_equal(a.data, b.data), name


def test_checkpoint_truncated_file(tmp_path):
    cfg = tiny_cfg()
    model = M.build_model(cfg)
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(model, path)
    raw = path.read_bytes()
    for cut in (2, 8, 40, len(raw) - 5):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError):
            M.load_checkpoint(bad)


def test_checkpoint_version_mismatch(tmp_path):
    cfg = tiny_cfg()
    model = M.build_model(cfg)
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        M.load_checkpoint(path)


def test_checkpoint_missing_record_names_entry(tmp_path, monkeypatch):
    cfg = tiny_cfg()
    model = M.build_model(cfg)
    path = tmp_path / "model.ckpt"

    real_arrays = M.Model.arrays
    monkeypatch.setattr(M.Model, "arrays", lambda m: dict(list(real_arrays(m).items())[1:]))
    M.save_checkpoint(model, path)
    monkeypatch.undo()
    dropped = model.parameters()[0][0]
    with pytest.raises(CheckpointError, match=dropped.replace(".", r"\.")):
        M.load_checkpoint(path)


def test_checkpoint_record_given_twice_names_it(tmp_path):
    model = M.build_model(tiny_cfg())
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(model, path)
    name = "backbone_rgb.stage0.kernels"
    extra = io.BytesIO()
    extra.write(struct.pack("<I", len(name)) + name.encode())
    T.write_tensor(extra, T.Tensor(model.arrays()[name]))
    raw = bytearray(path.read_bytes() + extra.getvalue())
    at = 12 + struct.unpack("<I", raw[8:12])[0] + 8  # the record count, after the config text and epoch
    raw[at : at + 4] = struct.pack("<I", struct.unpack("<I", raw[at : at + 4])[0] + 1)
    path.write_bytes(bytes(raw))
    for read in (M.read_checkpoint, M.load_checkpoint):
        with pytest.raises(CheckpointError, match=r"'backbone_rgb\.stage0\.kernels' appears twice"):
            read(path)


def test_checkpoint_extra_optimizer_record_names_entry(tmp_path, monkeypatch):
    model = M.build_model(tiny_cfg())
    path = tmp_path / "model.ckpt"
    real_arrays = M.Model.arrays
    monkeypatch.setattr(M.Model, "arrays", lambda m: real_arrays(m) | {"adam.t": np.array(3.0)})
    M.save_checkpoint(model, path)
    monkeypatch.undo()
    with pytest.raises(CheckpointError, match=r"'adam\.t'"):
        M.load_checkpoint(path)


def test_checkpoint_shape_mismatch_names_entry(tmp_path):
    cfg = tiny_cfg()
    model = M.build_model(cfg)
    model.final.bias.data = np.zeros(cfg.classes + 2)  # lies about its own config
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(model, path)
    with pytest.raises(CheckpointError, match=r"classifier\.final\.b"):
        M.load_checkpoint(path)


def test_checkpoint_overflowing_tensor_header_is_checkpoint_error(tmp_path):
    cfg = tiny_cfg()
    model = M.build_model(cfg)
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    first = raw.index(b"FTNS")
    assert raw[first + 4] == 4  # the first record is a conv kernel; its first two dims become 2^32
    raw[first + 5 : first + 21] = (2**32).to_bytes(8, "little") * 2
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="bytes"):
        M.read_checkpoint(path)
    with pytest.raises(CheckpointError, match="bytes"):
        M.load_checkpoint(path)


def write_header_only_checkpoint(path, cfg):
    """An FCKP file with ``cfg``'s text and no records."""
    text = M.config_to_text(cfg).encode("utf-8")
    head = M.CHECKPOINT_MAGIC + struct.pack("<II", M.CHECKPOINT_VERSION, len(text))
    path.write_bytes(head + text + struct.pack("<QI", 0, 0))


# a head of width 2^52 still passes ModelConfig's 2^63-byte bound (a config past it is refused
# before any checkpoint is read), yet its first weight matrix alone needs 2^61.6 bytes
@pytest.mark.parametrize("overrides", [{"classifier_widths": (1 << 52,)}, {"input_size": 112}])
def test_checkpoint_config_larger_than_file_is_refused_before_assembly(tmp_path, overrides):
    path = tmp_path / "model.ckpt"
    write_header_only_checkpoint(path, tiny_cfg(**overrides))
    with pytest.raises(CheckpointError, match="bytes of parameters"):
        M.load_checkpoint(path)


def test_checkpoint_size_arithmetic(tmp_path):
    cfg = tiny_cfg()
    model = M.build_model(cfg)
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(model, path)

    config_len = len(M.config_to_text(cfg).encode())
    expected = 4 + 4 + 4 + config_len + 8 + 4
    for name, a in model.arrays().items():
        expected += 4 + len(name.encode())
        expected += 4 + 1 + 8 * a.ndim + 8 * a.size
    assert path.stat().st_size == expected
    params_and_state = M.parameter_count(cfg) + 2 * sum(cfg.classifier_widths)  # + bn running stats
    assert path.stat().st_size > 8 * params_and_state


def test_checkpoint_records_are_the_tobytes_layout_of_any_array(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    records = {
        "contiguous": rng.standard_normal((3, 4)),
        "transposed": rng.standard_normal((4, 3)).T,
        "empty": np.zeros((0, 5)),
    }
    assert not records["transposed"].flags.c_contiguous
    model = M.build_model(tiny_cfg())
    monkeypatch.setattr(M.Model, "arrays", lambda m: records)
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(model, path, epoch=2)

    config = M.config_to_text(model.cfg).encode()
    header = M.CHECKPOINT_MAGIC + struct.pack("<II", M.CHECKPOINT_VERSION, len(config)) + config
    header += struct.pack("<QI", 2, len(records))
    body = b""
    for name, a in records.items():
        body += struct.pack("<I", len(name)) + name.encode() + b"FTNS" + struct.pack("<B", a.ndim)
        body += b"".join(struct.pack("<Q", d) for d in a.shape) + a.astype("<f8").tobytes()
    assert path.read_bytes() == header + body

    with open(path, "rb") as fh:
        fh.seek(len(header))
        for name, a in records.items():
            assert fh.read(4 + len(name))[4:] == name.encode()
            back = T.read_tensor(fh)
            assert back.shape == a.shape and np.array_equal(back.data, a)


def test_config_validation_rejects_degenerate_values():
    for overrides in (
        dict(input_size=0),
        dict(input_size=-4),
        dict(lstm_hidden=0),
        dict(seed=-1),
        dict(batch_size=0),
        dict(batch_size=1),
        dict(epochs=-2),
        *(dict(learning_rate=v) for v in (float("nan"), float("inf"), 0.0, -1e-3)),
        *(dict(lr_decay=v) for v in (float("nan"), float("inf"), 0.0, -0.9)),
    ):
        with pytest.raises(ConfigError):
            tiny_cfg(**overrides)
    tiny_cfg(epochs=0, seed=0)


@pytest.mark.parametrize(
    "overrides, match",
    [
        (dict(lstm_layers=0), "lstm_layers"),
        (dict(lstm_layers=4), "lstm_layers"),
        (dict(blstm=True, lstm_layers=2), "exactly one layer"),
        (dict(fusion="concat_only", blstm=True, lstm_layers=3), "exactly one layer"),
        (dict(classifier_widths=(1 << 62,)), "bytes of parameters"),
        (dict(lstm_hidden=3037000500), "bytes of parameters"),
    ],
    ids=["no-layer", "four-layers", "blstm-two-layers", "blstm-unused", "classifier-2^62", "lstm-hidden"],
)
def test_config_refuses_an_lstm_stack_no_model_has_and_parameters_no_array_holds(overrides, match):
    with pytest.raises(ConfigError, match=match):
        tiny_cfg(**overrides)


def test_config_parameter_bound_is_the_tensor_record_bound():
    # 2^63 bytes are 2^60 float64 parameters; each unit of head width adds 96 dense weights,
    # a bias, a batchnorm scale and shift and 2 final weights
    base = M.parameter_count(tiny_cfg(classifier_widths=(1,), classes=2))
    assert M.parameter_count(tiny_cfg(classifier_widths=(2,), classes=2)) == base + 101
    widest = 1 + ((1 << 60) - 1 - base) // 101
    tiny_cfg(classifier_widths=(widest,), classes=2)
    with pytest.raises(ConfigError, match="bytes of parameters"):
        tiny_cfg(classifier_widths=(widest + 1,), classes=2)


@pytest.mark.parametrize("where", ["config", "record name"])
def test_checkpoint_non_utf8_text_is_checkpoint_error(tmp_path, where):
    model = M.build_model(tiny_cfg())
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    if where == "config":
        raw[12] = 0xFF  # first byte of the config text
    else:
        name = model.parameters()[0][0].encode()
        raw[raw.index(name)] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=f"{where} is not UTF-8"):
        M.read_checkpoint(path)
    with pytest.raises(CheckpointError, match=f"{where} is not UTF-8"):
        M.load_checkpoint(path)
