"""Checks on the package source itself."""

import argparse
import ast
import dataclasses
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rgbdfuse
from rgbdfuse.attention import FeatureMapAttention, SpatialAttention
from rgbdfuse.cli import make_parser
from rgbdfuse.model import ModelConfig, build_model

PACKAGE = Path(rgbdfuse.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
OUTPUT_HASHES = ROOT / "scripts" / "output_hashes.py"
GOLDEN_HASHES = ROOT / "tests" / "golden" / "output_hashes.txt"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _called_name(call: ast.Call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _open_mode(call: ast.Call):
    """The mode argument of an ``open(...)`` / ``x.open(...)`` call, None when it has none."""
    if isinstance(call.func, ast.Attribute) and call.func.attr == "open":
        args = call.args  # Path.open(mode, ...)
    else:
        args = call.args[1:]  # open(file, mode, ...)
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    return args[0] if args else None


def _writes(call: ast.Call) -> bool:
    name = _called_name(call)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    mode = _open_mode(call)
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # a mode worked out at run time could be anything
    return any(c in mode.value for c in "wax+")


def test_every_file_the_package_writes_goes_through_atomic_write():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "atomic_write":
                allowed.update(id(n) for n in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed and _writes(node):
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not offenders, "files opened for writing outside atomic_write:\n" + "\n".join(offenders)


BATCH_OF_ONE = ("add_batch_axis", "drop_batch_axis")
OP_MODULES = ("tensor.py", "layers.py", "attention.py")


def _is_ndim_equality(node) -> bool:
    """``x.ndim == k``: a branch on the rank, where a batch-only op has a check (``!=``)."""
    operands = [node.left, *node.comparators]
    return any(isinstance(op, ast.Eq) for op in node.ops) and any(
        isinstance(o, ast.Attribute) and o.attr == "ndim" for o in operands
    )


def test_the_batch_of_one_boundary_stays_with_the_callers():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in BATCH_OF_ONE:
                allowed.update(id(n) for n in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed and _called_name(node) in BATCH_OF_ONE:
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            if path.name in OP_MODULES and isinstance(node, ast.Compare) and _is_ndim_equality(node):
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not offenders, "ops that take one sample themselves instead of batches only:\n" + "\n".join(offenders)


def test_every_name_the_bench_tracer_wraps_exists_with_the_kind_it_names():
    tracer = _load(TRACER, "bench_tracer")
    kinds = {
        "fn": lambda obj: callable(obj) and not inspect.isgeneratorfunction(obj),
        "classmethod": lambda obj: isinstance(obj, classmethod),
        "generator": inspect.isgeneratorfunction,
    }
    wrong = []
    for kind, owner, attr, _ in tracer.WRAPS:
        found = vars(tracer._resolve(owner)).get(attr)
        if found is None or not kinds[kind](found):
            wrong.append(f"{owner}.{attr}: want {kind}, found {found!r}")
    assert not wrong, "bench/tracer.py WRAPS entries the package no longer matches:\n" + "\n".join(wrong)


def test_output_hashes_names_every_output_of_a_config_once_and_repeats_itself(capsys):
    script = _load(OUTPUT_HASHES, "output_hashes")
    for config in ("bypass", "bands"):
        assert script.main([config]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [line.split(" ")[0] for line in lines]
        assert len(set(names)) == len(names)
        assert all(len(line.split(" ")[1]) == 64 for line in lines)
        model = build_model(ModelConfig(**(script.BASE | script.CONFIGS[config])))
        assert {f"{config}/logits", f"{config}/stage/spatial_weights"} <= set(names)
        assert {n for n in names if "/grad/" in n} == {f"{config}/grad/{n}" for n, _ in model.parameters()}
        assert {n for n in names if "/array/" in n} == {f"{config}/array/{n}" for n in model.arrays()}
        assert script.main([config]) == 0
        assert capsys.readouterr().out.splitlines() == lines
    assert model.cfg.input_size == 112  # "bands": stage 0's conv blocks are row bands

    assert script.main(["preprocess"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split(" ")[0] for line in lines]
    assert all(len(line.split(" ")[1]) == 64 for line in lines)
    kinds = ("rotation", "shear", "flip", "perspective")
    assert sorted(names) == sorted(
        ["preprocess/crop_resize", "preprocess/depth_clip_normalize", "preprocess/resize_bilinear"]
        + [f"preprocess/augment/{kind}/{image}" for kind in kinds for image in ("rgb", "depth")]
        + ["preprocess/synthetic/rgb", "preprocess/synthetic/depth"]
    )
    assert len({line.split(" ")[1] for line in lines}) == len(lines)
    assert script.main(["preprocess"]) == 0
    assert capsys.readouterr().out.splitlines() == lines

    assert script.main(["single"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split(" ")[0] for line in lines]
    assert all(len(line.split(" ")[1]) == 64 for line in lines)
    fm = [f"fm.{n}" for n, _ in FeatureMapAttention.init(6, 4, np.random.default_rng(0)).parameters()]
    sp = [f"spatial.{n}" for n, _ in SpatialAttention.init(4, np.random.default_rng(0)).parameters()]
    expected = {
        "feature_map_attention": (["weights", "refined"], fm),
        "spatial_attention": (["weights", "refined"], sp),
        "two_level_attention": (["refined", "fm_weights", "spatial_weights", "fm_refined"], fm + sp),
    }
    assert names == [
        f"single/{level}/{name}"
        for level, (outputs, params) in expected.items()
        for name in outputs + [f"grad/{p}" for p in ["volume"] + params]
    ]
    assert script.main(["single"]) == 0
    assert capsys.readouterr().out.splitlines() == lines

    # the best epoch of "train" is 1 of 2, so its outputs come from a restored state; that of
    # "train_last" is its last, so nothing is restored
    for name, settings, best in (("train", script.TRAIN, 1), ("train_last", script.TRAIN_LAST, 3)):
        assert script.main([name]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [line.split(" ")[0] for line in lines]
        assert f"{name}/report/best_epoch {script.digest(np.asarray(best))}" in lines
        assert all(len(line.split(" ")[1]) == 64 for line in lines)
        cfg = ModelConfig(**settings)
        per_epoch = ["epoch", "train_loss", "train_acc", "test_acc", "effective_lr"]
        report = ["seed", "best_epoch", "best_test_acc", "fm_weight_rgb_mean", "fm_weight_depth_mean", "aborted"]
        assert names == (
            [f"{name}/report/epochs/0/{k}" for k in ("epoch", "test_acc", "effective_lr")]
            + [f"{name}/report/epochs/{e}/{k}" for e in range(1, cfg.epochs + 1) for k in per_epoch]
            + [f"{name}/report/{k}" for k in report]
            + [f"{name}/ckpt/{n}" for n in build_model(cfg).arrays()]
        )
        assert script.main([name]) == 0
        assert capsys.readouterr().out.splitlines() == lines


def test_output_hashes_match_the_golden_file():
    """Every numeric output the hash script covers is the one recorded, wherever the numpy
    version and the OpenBLAS config (the file's ``#`` line) are the ones it was recorded under."""
    result = subprocess.run([sys.executable, str(OUTPUT_HASHES)], capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    key, *lines = result.stdout.splitlines()
    golden_key, *golden = GOLDEN_HASHES.read_text(encoding="utf-8").splitlines()
    if key != golden_key:
        pytest.skip(f"golden hashes recorded under {golden_key[2:]!r}; this checkout runs {key[2:]!r}")
    want, got = dict(line.split(" ") for line in golden), dict(line.split(" ") for line in lines)
    changes = [f"moved: {n}" for n in want if n in got and got[n] != want[n]]
    changes += [f"missing: {n}" for n in want if n not in got] + [f"added: {n}" for n in got if n not in want]
    assert lines == golden, (
        f"outputs differ from {GOLDEN_HASHES.relative_to(ROOT)} ({len(changes)} lines); if on purpose, re-record "
        "it with: python3 scripts/output_hashes.py > tests/golden/output_hashes.txt\n" + "\n".join(changes or ["order"])
    )


def test_output_hashes_against_counts_moved_added_and_missing_lines_per_kind(tmp_path, capsys):
    script = _load(OUTPUT_HASHES, "output_hashes")
    assert script.main(["preprocess"]) == 0
    lines = capsys.readouterr().out.splitlines()
    recorded = tmp_path / "recorded.txt"
    recorded.write_text("\n".join([f"# {script.numeric_key()}", *lines]) + "\n", encoding="utf-8")
    assert script.main(["preprocess", "--against", str(recorded)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"total: 0 moved, 0 added, 0 missing of {len(lines)} lines in {recorded}"]

    name, sha = lines[0].split(" ")  # preprocess/crop_resize
    edited = [f"{name} {sha[::-1]}", *lines[2:], "preprocess/augment/gone 0", "single/not/asked 0"]
    recorded.write_text("\n".join(["# numpy 0.0; other BLAS", *edited]) + "\n", encoding="utf-8")
    assert script.main(["preprocess", "--against", str(recorded)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"# {recorded} was recorded under 'numpy 0.0; other BLAS', not {script.numeric_key()!r}",
        "preprocess/crop_resize moved 1",
        "preprocess/depth_clip_normalize added 1",
        "preprocess/augment missing 1",
        f"total: 1 moved, 1 added, 1 missing of {len(lines)} lines in {recorded}",
    ]


def test_scripts_run_from_a_checkout_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for script in ("run_ablation_tables.py", "run_desk_experiment.py", "output_hashes.py", "code_counts.py"):
        result = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script), "--help"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, f"{script}: {result.stderr}"
        assert result.stdout.startswith("usage: "), script


def test_code_counts_read_the_config_fields_and_cli_flags_the_package_has():
    counts = _load(ROOT / "scripts" / "code_counts.py", "code_counts").counts()
    assert counts["config_fields"] == len(dataclasses.fields(ModelConfig))
    sub = next(a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = [o for p in sub.choices.values() for a in p._actions for o in a.option_strings[:1] if o != "-h"]
    assert counts["cli_flags"] == len(flags)
    assert counts["public_names"] == sum(v for k, v in counts.items() if k.startswith("public_names."))


def test_code_counts_apply_their_rules_to_a_small_module():
    source = """
import os
from dataclasses import dataclass, field

@dataclass(frozen=True)
class Settings:
    size: int
    depth: int = 2
    names: list = field(default_factory=list)
    def scaled(self, by=1):
        return self.size * by

def f(a, /, b, c=3, *rest, d, e=5, **extra):
    g = lambda x, y=0: x + y
    return os.environ.get("A"), os.getenv("B")
"""
    counts = _load(ROOT / "scripts" / "code_counts.py", "code_counts")._source_counts(ast.parse(source))
    # scaled: self, by; f: a, b, c, *rest, d, e, **extra; the lambda: x, y
    assert counts["parameters"] == 2 + 7 + 2
    # by, c, e and y by default; depth and names among the dataclass fields
    assert counts["settable"] == 4 + 2
    assert counts["env_reads"] == 2


def test_code_counts_print_one_name_value_line_per_count(capsys):
    code_counts = _load(ROOT / "scripts" / "code_counts.py", "code_counts")
    assert code_counts.main([]) == 0
    lines = [line.split(" ") for line in capsys.readouterr().out.splitlines()]
    assert all(len(parts) == 2 for parts in lines)
    printed = {name: int(value) for name, value in lines}
    counts = code_counts.counts()
    assert list(printed) == list(counts) and printed == counts
    assert printed["src_lines"] == sum(len(p.read_text(encoding="utf-8").splitlines()) for p in PACKAGE.rglob("*.py"))
    assert printed["env_reads"] == 0
