"""Adam arithmetic, training loop behavior, gradcheck, ablation plumbing."""

import shutil
import threading
from dataclasses import replace

import numpy as np
import pytest

from rgbdfuse import tensor as T
from rgbdfuse import trainer as TR
from rgbdfuse.data import load_manifest, make_batches, protocol_split
from rgbdfuse.errors import ConfigError, DataError, TrainingError
from rgbdfuse.model import Model, ModelConfig, build_model, load_checkpoint, read_checkpoint
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
    p = T.parameter(np.array([1.0, -2.0]))
    opt = TR.Adam([("p", p)], lr=0.1)
    p.grad = np.zeros(2)
    TR.adam_step(opt)
    assert np.array_equal(p.data, [1.0, -2.0])
    assert not opt.first_moments["p"].any()
    assert not opt.second_moments["p"].any()
    assert opt.t == 1


def test_adam_first_step_magnitude():
    p = T.parameter(np.array([0.0]))
    opt = TR.Adam([("p", p)], lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    assert abs(p.data[0] + 0.1) < 1e-8  # bias-corrected first step moves lr * sign(g)


def test_adam_epoch_decay_schedule(micro_manifest, monkeypatch):
    cfg = micro_cfg(classes=micro_manifest.class_count, epochs=3, seed=1, learning_rate=1e-5, lr_decay=0.9)
    stepped = []  # the step size of every update
    real_step = TR.Adam.step

    def recording_step(self):
        stepped.append(self.lr)
        real_step(self)

    monkeypatch.setattr(TR.Adam, "step", recording_step)
    report, _ = TR.train(build_model(cfg), micro_manifest)
    assert [e.epoch for e in report.epochs] == [0, 1, 2, 3]
    assert report.epochs[0].effective_lr == cfg.learning_rate
    for e in report.epochs[1:]:
        assert e.effective_lr == cfg.learning_rate * cfg.lr_decay ** (e.epoch - 1)
    assert report.epochs[3].effective_lr == pytest.approx(8.1e-6)
    # 12 train records in batches of 4 take 3 steps an epoch, each at its epoch's rate
    assert stepped == [e.effective_lr for e in report.epochs[1:] for _ in range(3)]


def test_adam_nan_gradient_names_parameter():
    p = T.parameter(np.zeros(2))
    opt = TR.Adam([("classifier.final.w", p)], lr=0.1)
    p.grad = np.array([0.0, np.nan])
    with pytest.raises(TrainingError, match="classifier.final.w"):
        opt.step()


def test_adam_failed_step_leaves_state_unchanged():
    a = T.parameter(np.array([1.0, -2.0]))
    b = T.parameter(np.array([3.0]))
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
    """Kingma & Ba's section-2 form, whole-array and in the update's operation order, equals the
    blocked update bit for bit; the moments are the textbook ones exactly."""
    rng = np.random.default_rng(33)
    shapes = [(2 * TR.Adam.BLOCK + 5,), (3, 4)]  # one spans three blocks, one is smaller than a block
    params = [("big", T.parameter(rng.standard_normal(shapes[0]))), ("small", T.parameter(rng.standard_normal(shapes[1])))]
    ref = {n: p.data.copy() for n, p in params}
    m = {n: np.zeros(s) for n, s in zip(ref, shapes)}
    v = {n: np.zeros(s) for n, s in zip(ref, shapes)}
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    opt = TR.Adam(params, lr=lr)
    for t in range(1, 4):
        opt.lr = lr * 0.5**t
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        alpha, eps_hat = opt.lr * np.sqrt(c2) / c1, eps * np.sqrt(c2)
        for n, p in params:
            p.grad = rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3)
            g = p.grad
            m[n] *= b1
            m[n] += (1.0 - b1) * g
            v[n] *= b2
            v[n] += (1.0 - b2) * g * g
            ref[n] -= m[n] / (np.sqrt(v[n]) + eps_hat) * alpha
        opt.step()
        for n, p in params:
            assert np.array_equal(p.data, ref[n]), (n, t)
            assert np.array_equal(opt.first_moments[n], m[n]) and np.array_equal(opt.second_moments[n], v[n])


def _split_adam(rng):
    """An Adam over parameters whose sizes are not multiples of BLOCK, one of them without a
    gradient; the last one's blocks lie in both halves."""
    sizes = [2 * TR.Adam.BLOCK + 5, 7, TR.Adam.BLOCK - 3, 3 * TR.Adam.BLOCK + 11]
    params = [(f"p{i}", T.parameter(rng.standard_normal(n))) for i, n in enumerate(sizes)]
    opt = TR.Adam(params, lr=0.01)
    assert all(opt._halves) and {i for i, _, _ in opt._halves[0]} & {i for i, _, _ in opt._halves[1]} == {3}
    return opt


def _adam_state(opt):
    return ([p.data.copy() for _, p in opt.params], {n: m.copy() for n, m in opt.first_moments.items()},
            {n: v.copy() for n, v in opt.second_moments.items()}, opt.t)


def _assert_same_adam_state(a, b):
    assert a[3] == b[3]
    for x, y in zip(a[0], b[0]):
        assert np.array_equal(x, y)
    for name in a[1]:
        assert np.array_equal(a[1][name], b[1][name]) and np.array_equal(a[2][name], b[2][name]), name


def _run_adam(opt, seed, steps=3):
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        for name, p in opt.params:
            p.grad = None if name == "p1" else rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3)
        opt.step()
    return _adam_state(opt)


def test_adam_split_update_equals_the_serial_one_bit_for_bit(monkeypatch):
    T._branch_worker()  # where the process can run two threads, the halves now run on two
    threads = set()
    real_check = TR._first_non_finite

    def recording_check(grads, blocks):
        threads.add(threading.get_ident())
        return real_check(grads, blocks)

    monkeypatch.setattr(TR, "_first_non_finite", recording_check)
    split = _run_adam(_split_adam(np.random.default_rng(41)), seed=42)
    assert len(threads) == (1 if T._branch_worker() is None else 2)
    monkeypatch.setattr(T, "_branch_worker", lambda: None)
    threads.clear()
    serial = _run_adam(_split_adam(np.random.default_rng(41)), seed=42)
    assert threads == {threading.get_ident()}
    _assert_same_adam_state(split, serial)
    assert split[3] == 3


@pytest.mark.parametrize("bad", [[0], [3], [0, 3], [2, 3]], ids=["first_half", "second_half", "both", "both_late"])
def test_adam_non_finite_gradient_in_either_half_names_the_first_and_changes_nothing(bad):
    T._branch_worker()
    opt = _split_adam(np.random.default_rng(43))
    _run_adam(opt, seed=44, steps=1)
    before = _adam_state(opt)
    rng = np.random.default_rng(45)
    for i, (name, p) in enumerate(opt.params):
        p.grad = None if name == "p1" else rng.standard_normal(p.shape)
        if i in bad:
            p.grad[-1 if i == 3 else 0] = np.inf if i == 3 else np.nan  # p3's last block is in the second half
    with pytest.raises(TrainingError, match=f"non-finite gradient for parameter 'p{bad[0]}'$"):
        opt.step()
    _assert_same_adam_state(_adam_state(opt), before)


def test_adam_update_matches_the_textbook_form_within_rounding():
    """The section-2 update differs from lr (m / c1) / (sqrt(v / c2) + eps) only by rounding: a
    relative 1e-14 (about 45 ulp), stated before measuring, over 100 updates of 50,000 elements
    with gradients spanning 1e-6 to 1e2."""
    rng = np.random.default_rng(34)
    w = T.parameter(np.zeros(50_000))
    opt = TR.Adam([("w", w)], lr=1e-3)
    worst = 0.0
    for t in range(1, 101):
        w.grad = rng.standard_normal(w.shape) * 10.0 ** rng.uniform(-6, 2, w.shape)
        before = w.data.copy()
        opt.step()
        m, v = opt.first_moments["w"], opt.second_moments["w"]
        textbook = opt.lr * (m / (1.0 - opt.BETA1**t)) / (np.sqrt(v / (1.0 - opt.BETA2**t)) + opt.EPS)
        c2 = 1.0 - opt.BETA2**t
        section2 = m / (np.sqrt(v) + opt.EPS * np.sqrt(c2)) * (opt.lr * np.sqrt(c2) / (1.0 - opt.BETA1**t))
        assert np.array_equal(before - section2, w.data), t
        worst = max(worst, float(np.max(np.abs(section2 - textbook) / np.abs(textbook))))
    assert worst <= 1e-14, worst


def test_adam_constant_gradient_converges_on_quadratic():
    p = T.parameter(np.array([5.0]))
    opt = TR.Adam([("p", p)], lr=0.2)
    for _ in range(200):
        p.grad = 2 * p.data  # d/dp of p^2
        opt.step()
    assert abs(p.data[0]) < 0.1


# -- evaluate ---------------------------------------------------------------------


class StubModel:
    """Duck-typed stand-in emitting fixed or oracle logits, and no attention weights."""

    def __init__(self, cfg, mode):
        self.cfg = cfg
        self.mode = mode

    def forward_features(self, rgb, depth):
        b = rgb.shape[0]
        n = self.cfg.classes
        if self.mode == "constant":
            logits = np.zeros((b, n))
            logits[:, 0] = 1.0
        else:  # perfect: the loader encodes class identity in mean brightness
            logits = np.zeros((b, n))
            for i in range(b):
                logits[i, self._label_of(depth.data[i])] = 1.0
        return {"logits": Tensor(logits)}

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
    cfg = micro_cfg(classes=micro_manifest.class_count, seed=5, batch_size=4)
    model = build_model(cfg)
    records = micro_manifest.records
    acc1, conf1 = TR.evaluate(model, records)
    model.cfg = replace(cfg, batch_size=7)
    acc2, conf2 = TR.evaluate(model, list(reversed(records)))
    assert acc1 == acc2
    assert np.array_equal(conf1, conf2)


def test_evaluate_needs_records(micro_manifest):
    cfg = micro_cfg(classes=3)
    with pytest.raises(ConfigError):
        TR.evaluate(StubModel(cfg, "constant"), [])
    with pytest.raises(ConfigError, match="at least one record"):
        TR.attention_weight_means(build_model(cfg), [])


def test_label_beyond_the_model_classes_is_a_data_error(micro_manifest):
    model = build_model(micro_cfg(classes=2, seed=1))  # the manifest has labels 0..2
    with pytest.raises(DataError, match="label 2 of sample"):
        TR.evaluate(model, micro_manifest.records)
    with pytest.raises(DataError, match="label 2 of sample"):
        TR.train(model, micro_manifest)


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


def test_train_runs_one_eval_pass_per_epoch_and_reports_the_best_passes_means(micro_manifest, monkeypatch):
    cfg = micro_cfg(classes=micro_manifest.class_count, epochs=3, seed=8)
    _, test_records = protocol_split(micro_manifest, "fixed")
    eval_forwards = {"n": 0}
    real_fuse = Model._fuse

    def counted_fuse(self, rgb, depth):
        eval_forwards["n"] += not T._grad_enabled
        return real_fuse(self, rgb, depth)

    monkeypatch.setattr(Model, "_fuse", counted_fuse)
    model = build_model(cfg)
    report, _ = TR.train(model, micro_manifest)
    batches = -(-len(test_records) // cfg.batch_size)
    assert eval_forwards["n"] == (cfg.epochs + 1) * batches

    # the means of the best epoch's pass are those of the restored best parameters
    means = TR.attention_weight_means(model, test_records)
    assert (report.fm_weight_rgb_mean, report.fm_weight_depth_mean) == means


def test_train_determinism_identical_reports(micro_manifest):
    cfg = micro_cfg(classes=micro_manifest.class_count, epochs=2, seed=9)
    r1, _ = TR.train(build_model(cfg), micro_manifest)
    r2, _ = TR.train(build_model(cfg), micro_manifest)
    assert r1.canonical() == r2.canonical()
    assert "batch_size=4" in r1.config_text


def test_train_fivefold_trains_on_the_fold_it_names(micro_manifest, monkeypatch):
    """``protocol=fivefold`` with ``fold=k`` splits as ``fivefold:k``; a ``fivefold:k`` protocol passes through."""
    protocols, trained = [], set()
    real_split, real_step = TR.protocol_split, TR._train_step

    def spy_split(manifest, protocol):
        protocols.append(protocol)
        return real_split(manifest, protocol)

    def spy_step(model, optimizer, batch):
        trained.update(batch.sample_ids)
        return real_step(model, optimizer, batch)

    monkeypatch.setattr(TR, "protocol_split", spy_split)
    monkeypatch.setattr(TR, "_train_step", spy_step)
    fold1 = {f"{r.subject}/{r.sample}" for r in micro_manifest.records if r.fold == 1}
    assert len(fold1) == micro_manifest.class_count  # one record per subject
    TR.train(build_model(micro_cfg(micro_manifest.class_count, epochs=1, protocol="fivefold", fold=1)), micro_manifest)
    assert protocols == ["fivefold:1"] and trained == fold1
    TR.train(build_model(micro_cfg(micro_manifest.class_count, epochs=0, protocol="fivefold:3")), micro_manifest)
    assert protocols == ["fivefold:1", "fivefold:3"]


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


def test_train_writes_the_best_checkpoint_once(tmp_path, separable_manifest, monkeypatch):
    cfg = micro_cfg(classes=2, epochs=12, seed=2, backbone_widths=(4, 6), learning_rate=3e-3)
    evaluated = []  # the parameters at each evaluation: epoch 0 first, then one per epoch
    saved = []
    real_evaluate, real_save = TR._evaluate, TR.save_checkpoint

    def recording_evaluate(model, records):
        evaluated.append({n: p.data.copy() for n, p in model.parameters()})
        return real_evaluate(model, records)

    def counted_save(*args, **kwargs):
        saved.append(kwargs["epoch"])
        real_save(*args, **kwargs)

    monkeypatch.setattr(TR, "_evaluate", recording_evaluate)
    monkeypatch.setattr(TR, "save_checkpoint", counted_save)
    report, ckpt = TR.train(build_model(cfg), separable_manifest, out_dir=tmp_path / "run")

    accs = [e.test_acc for e in report.epochs]
    improvements = [e for e in range(1, len(accs)) if accs[e] > max(accs[:e])]
    assert len(improvements) >= 2 and report.best_epoch < cfg.epochs
    assert saved == [report.best_epoch]
    _, epoch, records = read_checkpoint(ckpt)
    assert epoch == report.best_epoch
    for name, data in evaluated[report.best_epoch].items():
        assert np.array_equal(records[name], data), name


def _scripted_train(monkeypatch, manifest, accs, nan_at_step=None, **overrides):
    """``train`` with epoch e's test accuracy set to ``accs[e]``, and a NaN gradient at step
    ``nan_at_step`` (counted from 1). Returns the model, the report or the error raised, a copy
    of every model array at each evaluation, the epoch evaluated last before each snapshot
    copy, and the restore count."""
    cfg = micro_cfg(classes=manifest.class_count, epochs=len(accs) - 1, seed=6, **overrides)
    evaluated, copies, restores, steps = [], [], [], []
    real_evaluate, real_snapshot, real_restore, real_step = TR._evaluate, TR._snapshot, TR._restore, TR.Adam.step

    def scripted_evaluate(model, records):
        evaluated.append({n: a.copy() for n, a in model.arrays().items()})
        _, confusion, means = real_evaluate(model, records)
        return accs[len(evaluated) - 1], confusion, means

    def counted_snapshot(*args):
        copies.append(len(evaluated) - 1)
        return real_snapshot(*args)

    def counted_restore(*args):
        restores.append(len(evaluated) - 1)
        real_restore(*args)

    def step(self):
        steps.append(len(steps) + 1)
        if steps[-1] == nan_at_step:
            self.params[-1][1].grad[...] = np.nan
        real_step(self)

    monkeypatch.setattr(TR, "_evaluate", scripted_evaluate)
    monkeypatch.setattr(TR, "_snapshot", counted_snapshot)
    monkeypatch.setattr(TR, "_restore", counted_restore)
    monkeypatch.setattr(TR.Adam, "step", step)
    model = build_model(cfg)
    try:
        outcome, _ = TR.train(model, manifest)
    except TrainingError as exc:
        outcome = exc
    return model, outcome, evaluated, copies, len(restores)


def _assert_holds(model, arrays):
    got = model.arrays()
    assert list(got) == list(arrays)
    for name, a in arrays.items():
        assert np.array_equal(got[name], a), name


# 12 train records in batches of 4 take 3 steps an epoch
def test_a_run_whose_best_epoch_is_its_last_copies_before_each_improving_epochs_steps_and_never_restores(
    micro_manifest, monkeypatch
):
    model, report, evaluated, copies, restores = _scripted_train(monkeypatch, micro_manifest, [0.1, 0.3, 0.2, 0.5])
    assert report.best_epoch == 3 and report.best_test_acc == 0.5
    assert copies == [0, 1]  # epoch 3 improves too, but no step follows it
    assert restores == 0
    _assert_holds(model, evaluated[3])


def test_a_run_whose_best_epoch_is_earlier_is_restored_bit_for_bit(micro_manifest, monkeypatch):
    model, report, evaluated, copies, restores = _scripted_train(monkeypatch, micro_manifest, [0.1, 0.5, 0.5, 0.4])
    assert report.best_epoch == 1
    assert copies == [0, 1]  # a tie does not improve
    assert restores == 1
    _assert_holds(model, evaluated[1])
    assert any(not np.array_equal(model.arrays()[n], a) for n, a in evaluated[3].items())


def test_a_failure_in_the_epoch_after_a_best_restores_that_best(micro_manifest, monkeypatch):
    model, error, evaluated, copies, restores = _scripted_train(
        monkeypatch, micro_manifest, [0.1, 0.5, 0.2], nan_at_step=5
    )
    assert isinstance(error, TrainingError) and "epoch 1 retained" in str(error)
    assert len(evaluated) == 2 and copies == [0, 1] and restores == 1
    _assert_holds(model, evaluated[1])


@pytest.mark.parametrize("modality", ["rgb", "depth"])
def test_a_single_modality_train_makes_no_branch_worker(micro_manifest, monkeypatch, modality):
    def no_worker():
        raise AssertionError("a single-modality train made the branch worker")

    monkeypatch.setattr(T, "_branch_worker", no_worker)
    monkeypatch.setattr(T, "_branch_workers", {})  # as in a process that has run no rgbd model
    model, report, evaluated, copies, restores = _scripted_train(
        monkeypatch, micro_manifest, [0.1, 0.5, 0.2], modality=modality, fusion="concat_only"
    )
    assert copies == [0, 1] and restores == 1  # Adam, the snapshot and the restore all ran
    _assert_holds(model, evaluated[1])
    assert T._branch_workers == {}


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


@pytest.mark.parametrize("failure", ["nan_gradient", "truncated_train_image", "truncated_test_image"])
def test_a_failed_epoch_restores_best_and_writes_reports(tmp_path, micro_manifest, monkeypatch, failure):
    cfg = micro_cfg(classes=micro_manifest.class_count, epochs=3, seed=6)
    model = build_model(cfg)
    initial = {n: p.data.copy() for n, p in model.parameters()}
    manifest = micro_manifest

    if failure == "nan_gradient":
        steps = {"n": 0}
        real_step = TR.Adam.step

        def step_with_nan_at_third(self):
            steps["n"] += 1
            if steps["n"] == 3:
                self.params[0][1].grad[...] = np.nan
            real_step(self)

        monkeypatch.setattr(TR.Adam, "step", step_with_nan_at_third)
        error, match = TrainingError, r"non-finite gradient.*retained"
    else:
        shutil.copytree(micro_manifest.path.parent, tmp_path / "data")
        manifest = load_manifest(tmp_path / "data" / micro_manifest.path.name)
        in_train = failure == "truncated_train_image"
        spoiled = next(r for r in manifest.records if (r.split == "train") == in_train).rgb
        spoiled.write_bytes(spoiled.read_bytes()[:-7])
        error, match = DataError, r"truncated.*epoch 0 retained"
    run = tmp_path / "run"
    with pytest.raises(error, match=match):
        TR.train(model, manifest, out_dir=run)
    assert sorted(p.name for p in run.iterdir()) == ["best.ckpt", "config.txt", "report.csv", "summary.csv"]
    summary = (run / "summary.csv").read_text().splitlines()[1].split(",")
    assert summary[-1] == "true"
    if failure == "truncated_test_image":
        # the untrained evaluation (epoch 0) fails: no epoch is reported, so no best epoch, best
        # accuracy or attention means are known
        assert (run / "report.csv").read_text().splitlines() == [",".join(TR.REPORT_COLUMNS)]
        assert summary[1:3] == ["", ""]
        assert summary[4:6] == ["", ""]
    else:
        _, test_records = protocol_split(manifest, "fixed")
        assert (float(summary[4]), float(summary[5])) == TR.attention_weight_means(model, test_records)

    # 12 train records in batches of 4 take 3 steps an epoch: step 3 (or the batch holding the
    # truncated image) fails in epoch 1, and a truncated test image fails epoch 0, so the best
    # parameters are the initial ones, the ones best.ckpt holds
    best = dict(load_checkpoint(run / "best.ckpt").parameters())
    for name, p in model.parameters():
        assert np.array_equal(p.data, initial[name]), name
        assert np.array_equal(p.data, best[name].data), name


def test_train_refuses_a_cfg_other_than_the_models(tmp_path, micro_manifest):
    cfg = micro_cfg(classes=micro_manifest.class_count, epochs=1)
    model = build_model(cfg)
    with pytest.raises(ConfigError, match="model.cfg"):
        TR.train(model, micro_manifest, replace(cfg, batch_size=2), out_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()
    report, _ = TR.train(model, micro_manifest, replace(cfg), out_dir=tmp_path / "run")  # an equal copy is fine
    assert report.seed == cfg.seed and len(report.epochs) == 2


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


@pytest.mark.parametrize(
    "base", [{}, {"fm_variant": "dense_only"}, {"blstm": True}], ids=["default", "dense_only", "blstm"]
)
def test_each_table7_row_builds_the_lstm_stack_its_label_names(base):
    stacks = {  # label -> (layers, bidirectional)
        "lstm_1_layer": (1, False),
        "lstm_2_layers": (2, False),
        "lstm_3_layers": (3, False),
        "blstm_1_layer": (1, True),
    }
    base_cfg = micro_cfg(classes=3, **base)
    rows = {variant: overrides for table, variant, overrides in TR.ABLATION_GRID if table == "table7"}
    assert rows.keys() == stacks.keys()
    for variant, (layers, bidirectional) in stacks.items():
        att = build_model(replace(base_cfg, **rows[variant])).fm_attention
        assert att.variant == "lstm_dense", variant
        assert len(att.lstm_stack) == layers, variant
        assert (att.blstm_bwd is not None) == bidirectional, variant


def test_ablate_single_variant_single_seed(tmp_path, micro_manifest, monkeypatch):
    monkeypatch.setattr(TR, "ABLATION_GRID", TR.ABLATION_GRID[:1])
    cfg = micro_cfg(classes=micro_manifest.class_count, epochs=1)
    rows = TR.ablate(micro_manifest, cfg, seeds=[0], out_csv=tmp_path / "ablation.csv")
    assert len(rows) == 1
    assert rows[0].variant == "rgb_only"
    lines = (tmp_path / "ablation.csv").read_text().splitlines()
    assert lines[0] == ",".join(TR.ABLATION_COLUMNS)
    assert len(lines) == 2


def test_ablate_trains_each_distinct_config_once_per_seed(tmp_path, micro_manifest, monkeypatch):
    # under the default base, 4 of the 15 rows repeat another row's config
    cfg = micro_cfg(classes=micro_manifest.class_count, epochs=1)
    real_train = TR.train
    seeds_trained = []

    def counting_train(model, manifest, run_cfg):
        seeds_trained.append(run_cfg.seed)
        return real_train(model, manifest, run_cfg)

    monkeypatch.setattr(TR, "train", counting_train)
    TR.ablate(micro_manifest, cfg, seeds=[0, 1], out_csv=tmp_path / "ablation.csv")
    assert seeds_trained.count(0) == seeds_trained.count(1) == 11

    every_row = []  # one grid row per call, so no run is shared
    for entry in TR.ABLATION_GRID:
        monkeypatch.setattr(TR, "ABLATION_GRID", (entry,))
        every_row += TR.ablate(micro_manifest, cfg, seeds=[0, 1])
    assert len(seeds_trained) == 22 + 30
    TR.write_ablation_csv(tmp_path / "every_row.csv", every_row)
    assert (tmp_path / "every_row.csv").read_bytes() == (tmp_path / "ablation.csv").read_bytes()


def test_ablate_requires_seeds(micro_manifest):
    with pytest.raises(ConfigError):
        TR.ablate(micro_manifest, micro_cfg(classes=3), seeds=[])


def test_failed_ablation_csv_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "ablation.csv"
    path.write_text("previous\n")
    good = TR.AblationRow("table5", "concat", [0], [0.5], [], [])
    with pytest.raises(AttributeError):
        TR.write_ablation_csv(path, [good, object()])  # fails after the header and one row
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["ablation.csv"]
