"""Parsers of outside input fed arbitrary bytes: each returns a value or raises a package error.

Every parser is fed plain random bytes and mutations of a valid input (cut at a
random point and followed by random bytes, or with one byte replaced), so the
examples also reach the checks behind the magic and the header.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgbdfuse import errors, netpbm
from rgbdfuse import tensor as T
from rgbdfuse.data import load_manifest, write_manifest
from rgbdfuse.model import (
    ModelConfig,
    build_model,
    config_from_text,
    config_to_text,
    read_checkpoint,
    save_checkpoint,
)

PACKAGE_ERRORS = (
    errors.ShapeError,
    errors.ConfigError,
    errors.DataError,
    errors.UsageError,
    errors.CheckpointError,
    errors.TrainingError,
)

FUZZ = settings(max_examples=200, deadline=None)

CONFIG_KEYS = [line.partition("=")[0] for line in config_to_text(ModelConfig()).splitlines()]


def mutations(valid: bytes):
    """Random bytes, ``valid`` cut anywhere and followed by random bytes, or ``valid`` with one byte replaced."""
    cut = st.tuples(st.integers(0, len(valid)), st.binary(max_size=64)).map(lambda t: valid[: t[0]] + t[1])
    replaced = st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)).map(
        lambda t: valid[: t[0]] + bytes([t[1]]) + valid[t[0] + 1 :]
    )
    return st.one_of(st.binary(max_size=256), cut, replaced)


def parses_or_raises_package_error(parse, raw):
    try:
        parse(raw)
    except PACKAGE_ERRORS:
        pass


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One valid input of each format, as bytes, plus a directory to write examples into."""
    root = tmp_path_factory.mktemp("fuzz")
    buf = io.BytesIO()
    T.write_tensor(buf, T.Tensor(np.arange(6.0).reshape(2, 3)))
    cfg = ModelConfig(input_size=8, backbone_widths=(2,), classifier_widths=(3,), lstm_hidden=2, classes=2)
    save_checkpoint(build_model(cfg), root / "valid.ckpt")
    (root / "images").mkdir()
    netpbm.write_ppm(root / "images/a_rgb.ppm", np.full((3, 2, 3), 7, dtype=np.uint8))
    netpbm.write_pgm(root / "images/a_depth.pgm", np.full((3, 2), 9, dtype=np.uint8))
    netpbm.write_pgm(root / "images/b_depth.pgm", np.full((3, 2), 600, dtype=np.uint16))
    rows = [
        ("a", "0", "images/a_rgb.ppm", "images/a_depth.pgm", "train", 0),
        ("b", "1", "images/a_rgb.ppm", "images/b_depth.pgm", "test1", 1),
    ]
    write_manifest(root / "valid.csv", rows)
    out = {name: (root / name).read_bytes() for name in ("valid.ckpt", "valid.csv")}
    for name in ("a_rgb.ppm", "a_depth.pgm", "b_depth.pgm"):
        out[name] = (root / "images" / name).read_bytes()
    out["tensor"] = buf.getvalue()
    out["root"] = root
    return out


def from_file(parse, path):
    """``parse`` applied to a file at ``path`` that holds the given bytes."""

    def parse_bytes(raw):
        path.write_bytes(raw)
        return parse(path)

    return parse_bytes


@FUZZ
@given(data=st.data())
def test_read_tensor_fuzz(valid, data):
    raw = data.draw(mutations(valid["tensor"]))
    parses_or_raises_package_error(lambda b: T.read_tensor(io.BytesIO(b)), raw)


@FUZZ
@given(data=st.data())
def test_read_checkpoint_fuzz(valid, data):
    raw = data.draw(mutations(valid["valid.ckpt"]))
    parses_or_raises_package_error(from_file(read_checkpoint, valid["root"] / "example.ckpt"), raw)


@FUZZ
@given(data=st.data())
def test_read_netpbm_fuzz(valid, data):
    raw = data.draw(mutations(valid[data.draw(st.sampled_from(["a_rgb.ppm", "a_depth.pgm", "b_depth.pgm"]))]))
    path = valid["root"] / "example.pnm"
    parses_or_raises_package_error(from_file(netpbm.read_ppm, path), raw)
    parses_or_raises_package_error(from_file(netpbm.read_pgm, path), raw)


@FUZZ
@given(data=st.data())
def test_load_manifest_fuzz(valid, data):
    raw = data.draw(mutations(valid["valid.csv"]))
    parses_or_raises_package_error(from_file(load_manifest, valid["root"] / "example.csv"), raw)


@FUZZ
@given(
    text=st.one_of(
        st.text(max_size=200),
        st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), st.text(max_size=12)), max_size=8).map(
            lambda pairs: "\n".join(f"{k}={v}" for k, v in pairs)
        ),
    )
)
def test_config_from_text_fuzz(text):
    parses_or_raises_package_error(config_from_text, text)


def test_fuzz_inputs_start_valid(valid):
    """The mutations start from inputs every parser accepts."""
    assert T.read_tensor(io.BytesIO(valid["tensor"])).shape == (2, 3)
    assert read_checkpoint(valid["root"] / "valid.ckpt")[0].classes == 2
    assert len(load_manifest(valid["root"] / "valid.csv").records) == 2
    assert netpbm.read_pgm(valid["root"] / "images/b_depth.pgm").dtype == np.uint16
