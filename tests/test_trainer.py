"""Adam arithmetic, training loop behavior, gradcheck, ablation plumbing."""

import numpy as np
import pytest

from rgbdfuse import tensor as T
from rgbdfuse import trainer as TR
from rgbdfuse.data import make_batches, protocol_split
from rgbdfuse.errors import ConfigError, TrainingError
from rgbdfuse.model import ModelConfig, build_model, load_checkpoint
from rgbdfuse.tensor import Tensor

MICRO = dict(
    input_size=16,
    backbone_widths=(2, 3),
    classifier_widths=(10, 8, 6),
    lstm_hidden=6,
    batch_size=4,
    dropout=0.2,
    learning_rate=1e-3,
)


def micro_cfg(classes, **overrides):
    return ModelConfig(**{**MICRO, "classes": classes, **overrides})


# -- adam --------------------------------------------------------------------


def test_adam_zero_gradients_is_noop():
    p = T.parameter(np.array([1.0, -2.0]), "p")
    opt = TR.Adam([("p", p)], lr=0.1)
    p.grad = np.zeros(2)
    TR.adam_step(opt)
    assert np.array_equal(p.data, [1.0, -2.0])
    assert not opt.first_moments["p"].any()
    assert not opt.second_moments["p"].any()
    assert opt.t == 1


def test_adam_first_step_magnitude():
    p = T.parameter(np.array([0.0]), "p")
    opt = TR.Adam([("p", p)], lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    assert abs(p.data[0] + 0.1) < 1e-8  # bias-corrected first step moves lr * sign(g)


def test_adam_epoch_decay_schedule():
    p = T.parameter(np.zeros(1), "p")
    opt = TR.Adam([("p", p)], lr=1e-5, decay=0.9)
    opt.epoch = 2
    assert opt.effective_lr() == pytest.approx(8.1e-6)


def test_adam_per_step_decay_flag():
    p = T.parameter(np.zeros(1), "p")
    opt = TR.Adam([("p", p)], lr=1.0, decay=0.5, decay_per_step=True)
    p.grad = np.ones(1)
    opt.step()
    assert opt.effective_lr() == 0.5


def test_adam_nan_gradient_names_parameter():
    p = T.parameter(np.zeros(2), "classifier.final.w")
    opt = TR.Adam([("classifier.final.w", p)], lr=0.1)
    p.grad = np.array([0.0, np.nan])
    with pytest.raises(TrainingError, match="classifier.final.w"):
        opt.step()


def test_adam_failed_step_leaves_state_unchanged():
    a = T.parameter(np.array([1.0, -2.0]), "a")
    b = T.parameter(np.array([3.0]), "b")
    opt = TR.Adam([("a", a), ("b", b)], lr=0.1)
    a.grad, b.grad = np.array([0.5, -0.5]), np.array([1.0])
    opt.step()
    before = (a.data.copy(), b.data.copy(), {n: m.copy() for n, m in opt.first_moments.items()},
              {n: v.copy() for n, v in opt.second_moments.items()})
    a.grad, b.grad = np.array([0.5, -0.5]), np.array([np.nan])  # the bad gradient is the last group's
    with pytest.raises(TrainingError, match="'b'"):
        opt.step()
    assert opt.t == 1
    assert np.array_equal(a.data, before[0]) and np.array_equal(b.data, before[1])
    for name in ("a", "b"):
        assert np.array_equal(opt.first_moments[name], before[2][name])
        assert np.array_equal(opt.second_moments[name], before[3][name])


def test_adam_blocked_update_matches_whole_array_formula():
    rng = np.random.default_rng(33)
    shapes = [(2 * TR.Adam.BLOCK + 5,), (3, 4)]  # one spans three blocks, one is smaller than a block
    params = [("big", T.parameter(rng.standard_normal(shapes[0]))), ("small", T.parameter(rng.standard_normal(shapes[1])))]
    ref = {n: p.data.copy() for n, p in params}
    m = {n: np.zeros(s) for n, s in zip(ref, shapes)}
    v = {n: np.zeros(s) for n, s in zip(ref, shapes)}
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    opt = TR.Adam(params, lr=lr, decay=0.5, decay_per_step=True)
    for t in range(1, 4):
        for n, p in params:
            p.grad = rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3)
            g = p.grad
            m[n] *= b1
            m[n] += (1.0 - b1) * g
            v[n] *= b2
            v[n] += (1.0 - b2) * g * g
            ref[n] -= lr * 0.5**t * (m[n] / (1.0 - b1**t)) / (np.sqrt(v[n] / (1.0 - b2**t)) + eps)
        opt.step()
        for n, p in params:
            assert np.array_equal(p.data, ref[n]), (n, t)
            assert np.array_equal(opt.first_moments[n], m[n]) and np.array_equal(opt.second_moments[n], v[n])


def test_adam_constant_gradient_converges_on_quadratic():
    p = T.parameter(np.array([5.0]), "p")
    opt = TR.Adam([("p", p)], lr=0.2)
    for _ in range(200):
        p.grad = 2 * p.data  # d/dp of p^2
        opt.step()
    assert abs(p.data[0]) < 0.1


# -- evaluate ---------------------------------------------------------------------


class StubModel:
    """Duck-typed stand-in emitting fixed or oracle logits."""

    def __init__(self, cfg, mode):
        self.cfg = cfg
        self.mode = mode

    def forward(self, rgb, depth, mode="eval"):
        b = rgb.shape[0]
        n = self.cfg.classes
        if self.mode == "constant":
            logits = np.zeros((b, n))
            logits[:, 0] = 1.0
        else:  # perfect: the loader encodes class identity in mean brightness
            logits = np.zeros((b, n))
            for i in range(b):
                logits[i, self._label_of(depth.data[i])] = 1.0
        return Tensor(logits)

    def _label_of(self, depth_img):
        return int(np.round(depth_img.mean() * (self.cfg.classes - 1)))


def test_evaluate_constant_predictor_hits_one_over_n(micro_manifest):
    records = micro_manifest.records
    cfg = micro_cfg(classes=micro_manifest.class_count)
    acc, confusion = TR.evaluate(StubModel(cfg, "constant"), records)
    assert acc == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert confusion.sum() == len(records)
    assert confusion[:, 1:].sum() == 0


def test_evaluate_perfect_stub(tmp_path):
    from rgbdfuse import netpbm
    from rgbdfuse.data import load_manifest, write_manifest

    (tmp_path / "images").mkdir()
    rows = []
    for c in range(3):
        for i in range(4):
            level = int(round(255 * c / 2))
            netpbm.write_ppm(tmp_path / f"images/{c}_{i}_rgb.ppm", np.full((8, 8, 3), level, np.uint8))
            netpbm.write_pgm(tmp_path / f"images/{c}_{i}_depth.pgm", np.full((8, 8), level, np.uint8))
            rows.append((f"s{c}", str(i), f"images/{c}_{i}_rgb.ppm", f"images/{c}_{i}_depth.pgm", "train", 0))
    write_manifest(tmp_path / "manifest.csv", rows)
    manifest = load_manifest(tmp_path / "manifest.csv")
    cfg = micro_cfg(classes=3)
    acc, confusion = TR.evaluate(StubModel(cfg, "perfect"), manifest.records)
    assert acc == 1.0
    assert np.trace(confusion) == len(manifest.records)


def test_evaluate_invariant_to_order_and_batch_size(micro_manifest):
    cfg = micro_cfg(classes=micro_manifest.class_count, seed=5)
    model = build_model(cfg)
    records = micro_manifest.records
    acc1, conf1 = TR.evaluate(model, records, batch_size=4)
    acc2, conf2 = TR.evaluate(model, list(reversed(records)), batch_size=7)
    assert acc1 == acc2
    assert np.array_equal(conf1, conf2)


def test_evaluate_needs_records(micro_manifest):
    cfg = micro_cfg(classes=3)
    with pytest.raises(ConfigError):
        TR.evaluate(StubModel(cfg, "constant"), [])


# -- train loop -------------------------------------------------------------------


def test_loss_decreases_on_fixed_batch(separable_manifest):
    cfg = micro_cfg(classes=2, seed=3, dropout=0.0)
    model = build_model(cfg)
    train_records, _ = protocol_split(separable_manifest, "fixed")
    batch = next(make_batches(train_records, 8, seed=0))
    opt = TR.Adam(model.parameters(), lr=1e-3)
    losses = []
    for _ in range(10):
        logits = model.forward(batch.rgb, batch.depth, "train")
        loss = T.cross_entropy(logits, batch.labels)
        losses.append(loss.item())
        opt.zero_grad()
        T.backward(loss, [p for _, p in opt.params])
        opt.step()
    assert losses[-1] < losses[0]


def test_train_zero_epochs_reports_initial_eval_only(micro_manifest):
    cfg = micro_cfg(classes=micro_manifest.class_count, epochs=0, seed=1)
    model = build_model(cfg)
    report, _ = TR.train(model, micro_manifest)
    assert len(report.epochs) == 1
    assert report.epochs[0].epoch == 0
    assert report.epochs[0].train_loss is None
    assert 0.0 <= report.epochs[0].test_acc <= 1.0


def test_train_reaches_perfect_accuracy_on_separable_data(separable_manifest):
    cfg = micro_cfg(classes=2, epochs=30, seed=2, backbone_widths=(4, 6), learning_rate=3e-3)
    model = build_model(cfg)
    report, _ = TR.train(model, separable_manifest)
    final_train = [e.train_acc for e in report.epochs if e.train_acc is not None]
    assert max(final_train) == 1.0
    assert report.best_test_acc == 1.0
    assert len(report.epochs) <= 31


def test_train_determinism_identical_reports(micro_manifest):
    cfg = micro_cfg(classes=micro_manifest.class_count, epochs=2, seed=9)
    r1, _ = TR.train(build_model(cfg), micro_manifest)
    r2, _ = TR.train(build_model(cfg), micro_manifest)
    assert r1.canonical() == r2.canonical()
    assert "batch_size=4" in r1.config_text


def test_train_writes_artifacts(tmp_path, micro_manifest):
    cfg = micro_cfg(classes=micro_manifest.class_count, epochs=1, seed=4)
    model = build_model(cfg)
    report, ckpt = TR.train(model, micro_manifest, out_dir=tmp_path / "run")
    assert ckpt.is_file()
    lines = (tmp_path / "run" / "report.csv").read_text().splitlines()
    assert lines[0] == ",".join(TR.REPORT_COLUMNS)
    assert len(lines) == 2 + len(report.epochs) - 1
    summary = (tmp_path / "run" / "summary.csv").read_text().splitlines()
    assert summary[0] == ",".join(TR.SUMMARY_COLUMNS)
    assert (tmp_path / "run" / "config.txt").read_text() == report.config_text


def test_train_divergence_aborts_with_checkpoint(tmp_path, micro_manifest, monkeypatch):
    cfg = micro_cfg(classes=micro_manifest.class_count, epochs=3, seed=6)
    model = build_model(cfg)

    calls = {"n": 0}
    real = T.cross_entropy

    def exploding(logits, labels):
        calls["n"] += 1
        if calls["n"] > 2:
            return Tensor(np.nan)
        return real(logits, labels)

    monkeypatch.setattr(TR.T, "cross_entropy", exploding)
    with pytest.raises(TrainingError, match="retained"):
        TR.train(model, micro_manifest, out_dir=tmp_path / "run")
    assert (tmp_path / "run" / "best.ckpt").is_file()


def test_train_nan_gradient_restores_best_and_writes_reports(tmp_path, micro_manifest, monkeypatch):
    cfg = micro_cfg(classes=micro_manifest.class_count, epochs=3, seed=6)
    model = build_model(cfg)
    initial = {n: p.data.copy() for n, p in model.parameters()}

    steps = {"n": 0}
    real_step = TR.Adam.step

    def step_with_nan_at_third(self):
        steps["n"] += 1
        if steps["n"] == 3:
            self.params[0][1].grad[...] = np.nan
        real_step(self)

    monkeypatch.setattr(TR.Adam, "step", step_with_nan_at_third)
    run = tmp_path / "run"
    with pytest.raises(TrainingError, match=r"non-finite gradient.*retained"):
        TR.train(model, micro_manifest, out_dir=run)
    assert sorted(p.name for p in run.iterdir()) == ["best.ckpt", "config.txt", "report.csv", "summary.csv"]
    assert (run / "summary.csv").read_text().splitlines()[1].endswith(",true")

    # 12 train records in batches of 4 take 3 steps an epoch: step 3 fails in epoch 1,
    # so the best parameters are the initial ones, the ones best.ckpt holds
    best = dict(load_checkpoint(run / "best.ckpt").parameters())
    for name, p in model.parameters():
        assert np.array_equal(p.data, initial[name]), name
        assert np.array_equal(p.data, best[name].data), name


# -- gradcheck ----------------------------------------------------------------------


def test_gradcheck_two_level_toy_model():
    report = TR.gradcheck(variant="two_level", max_coords=30)
    assert report.passed, [g.name for g in report.groups if not g.passed]
    assert any(g.name.startswith("fm_attention") for g in report.groups)
    assert any(g.name.startswith("spatial_attention") for g in report.groups)


def test_gradcheck_dense_attention_tight_tolerance():
    report = TR.gradcheck(variant="dense_attention", max_coords=30, tolerance=1e-6)
    assert report.passed, [(g.name, g.max_rel_err) for g in report.groups if not g.passed]


@pytest.mark.parametrize("variant", sorted(TR.GRADCHECK_VARIANTS))
def test_gradcheck_passes_for_every_ablation_variant(variant):
    report = TR.gradcheck(variant=variant, max_coords=12)
    assert report.passed, [(g.name, g.max_rel_err) for g in report.groups if not g.passed]


def test_gradcheck_detects_corrupted_backward(monkeypatch):
    real = T.sigmoid

    def corrupted(x):
        out = real(x)
        if out._backward is not None:
            orig = out._backward
            out._backward = lambda g: orig(g * 1.05)
        return out

    monkeypatch.setattr(T, "sigmoid", corrupted)
    report = TR.gradcheck(variant="two_level", max_coords=20)
    assert not report.passed


def test_gradcheck_unknown_variant():
    with pytest.raises(ConfigError):
        TR.gradcheck_config("everything")


# -- ablation ----------------------------------------------------------------------------


def test_ablation_grid_matches_table_row_structure():
    tables = {}
    for table, variant, _ in TR.ABLATION_GRID:
        tables.setdefault(table, []).append(variant)
    assert len(tables["table5"]) == 6
    assert len(tables["table6"]) == 5
    assert len(tables["table7"]) == 4
    assert tables["table7"] == ["lstm_1_layer", "lstm_2_layers", "lstm_3_layers", "blstm_1_layer"]


def test_ablate_single_variant_single_seed(tmp_path, micro_manifest, monkeypatch):
    monkeypatch.setattr(TR, "ABLATION_GRID", TR.ABLATION_GRID[:1])
    cfg = micro_cfg(classes=micro_manifest.class_count, epochs=1)
    rows = TR.ablate(micro_manifest, cfg, seeds=[0], out_csv=tmp_path / "ablation.csv")
    assert len(rows) == 1
    assert rows[0].variant == "rgb_only"
    lines = (tmp_path / "ablation.csv").read_text().splitlines()
    assert lines[0] == ",".join(TR.ABLATION_COLUMNS)
    assert len(lines) == 2


def test_ablate_requires_seeds(micro_manifest):
    with pytest.raises(ConfigError):
        TR.ablate(micro_manifest, micro_cfg(classes=3), seeds=[])
