"""Model assembly, forward determinism, parameter arithmetic, checkpoints."""

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
    cfg = tiny_cfg(fusion="spatial_only", dropout=0.25, share_backbones=True)
    back = M.config_from_text(M.config_to_text(cfg))
    assert back == cfg


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
        {"transposed_sequence": True},
        {"share_backbones": True},
        {"modality": "rgb"},
        {"modality": "depth"},
        {"classifier_input": "pool"},
    ],
)
def test_parameter_count_oracle_matches_build(overrides):
    cfg = tiny_cfg(**overrides)
    model = M.build_model(cfg)
    built = sum(p.size for _, p in model.parameters())
    assert built == M.parameter_count(cfg), overrides


def test_shared_backbone_halves_backbone_params():
    shared = M.parameter_count(tiny_cfg(share_backbones=True))
    split = M.parameter_count(tiny_cfg())
    per_backbone = sum(9 * cin * w + w for cin, w in zip((3, 2), (2, 3)))
    assert split - shared == per_backbone


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
    for (name, a), (_, b) in zip(loaded.state_arrays(), fresh.state_arrays()):
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

    real_records = M._checkpoint_records
    monkeypatch.setattr(M, "_checkpoint_records", lambda m, o=None, **kw: real_records(m, o)[1:])
    M.save_checkpoint(model, path)
    monkeypatch.undo()
    dropped = model.parameters()[0][0]
    with pytest.raises(CheckpointError, match=dropped.replace(".", r"\.")):
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


def test_checkpoint_size_arithmetic(tmp_path):
    cfg = tiny_cfg()
    model = M.build_model(cfg)
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(model, path)

    config_len = len(M.config_to_text(cfg).encode())
    expected = 4 + 4 + 4 + config_len + 8 + 4
    for name, t in model.parameters() + [(n, T.Tensor(a)) for n, a in model.state_arrays()]:
        expected += 4 + len(name.encode())
        expected += 4 + 1 + 8 * t.ndim + 8 * t.size
    assert path.stat().st_size == expected
    params_and_state = M.parameter_count(cfg) + sum(a.size for _, a in model.state_arrays())
    assert path.stat().st_size > 8 * params_and_state
