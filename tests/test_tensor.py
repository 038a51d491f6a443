"""Tensor core: forward values against hand arithmetic, backward against finite differences."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from rgbdfuse import tensor as T
from rgbdfuse.errors import ConfigError, DataError, ShapeError, UsageError


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return np.abs(a - b) / denom


def check_grad(build_loss, params, tol, h=1e-5, atol=1e-9):
    """Compare backward() gradients of a scalar loss against central differences.

    A coordinate passes on relative error < tol, or on absolute error < atol
    where the gradient itself is so small that FD roundoff dominates.
    """
    loss = build_loss()
    T.backward(loss, params)
    for p in params:
        analytic = p.grad.copy()
        p.zero_grad()
        fd = T.finite_diff_grad(lambda _: build_loss(), p, h=h)
        diff = np.abs(analytic - fd.data)
        scale = np.maximum(np.abs(analytic), np.abs(fd.data))
        bad = diff > np.maximum(tol * scale, atol)
        if bad.any():
            worst = (diff / np.maximum(scale, 1e-30)).max()
            raise AssertionError(f"gradient mismatch rel={worst:.3g} for {p.name or p.shape}")


# -- matmul ---------------------------------------------------------------


def test_matmul_identity():
    a = T.Tensor(np.eye(2))
    b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(T.matmul(a, b).data, b.data)


def test_matmul_hand_case():
    out = T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_shape_error_names_both():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 2))))


def test_matmul_gradients():
    rng = np.random.default_rng(0)
    a = T.parameter(rng.standard_normal((3, 4)), "a")
    b = T.parameter(rng.standard_normal((4, 2)), "b")
    g = T.Tensor(rng.standard_normal((3, 2)))
    check_grad(lambda: T.tsum(T.matmul(a, b) * g), [a, b], 1e-6)


# -- conv2d ---------------------------------------------------------------


def test_conv2d_selector_kernel_copies_channel():
    rng = np.random.default_rng(1)
    x = T.Tensor(rng.random((4, 4, 2)))
    k = T.Tensor(np.array([1.0, 0.0]).reshape(1, 1, 2, 1))
    out = T.conv2d(x, k, T.Tensor(np.zeros(1)), padding="valid", stride=1)
    assert np.array_equal(out.data[..., 0], x.data[..., 0])


def test_conv2d_all_ones_sum():
    x = T.Tensor(np.ones((3, 3, 1)))
    k = T.Tensor(np.ones((3, 3, 1, 1)))
    out = T.conv2d(x, k, T.Tensor(np.zeros(1)), padding="valid", stride=1)
    assert out.data.shape == (1, 1, 1)
    assert out.data[0, 0, 0] == 9.0


def test_conv2d_same_padding_shape_and_stride():
    x = T.Tensor(np.random.default_rng(2).random((5, 5, 2)))
    k = T.Tensor(np.random.default_rng(3).random((3, 3, 2, 4)))
    out = T.conv2d(x, k, T.Tensor(np.zeros(4)), padding="same", stride=2)
    assert out.shape == (3, 3, 4)


def test_conv2d_config_errors():
    x = T.Tensor(np.zeros((3, 3, 1)))
    k = T.Tensor(np.zeros((5, 5, 1, 1)))
    with pytest.raises(ConfigError):
        T.conv2d(x, k, T.Tensor(np.zeros(1)), padding="valid", stride=1)
    with pytest.raises(ConfigError):
        T.conv2d(x, T.Tensor(np.zeros((2, 2, 1, 1))), T.Tensor(np.zeros(1)), padding="valid", stride=0)


def test_conv2d_gradients():
    rng = np.random.default_rng(4)
    x = T.parameter(rng.standard_normal((5, 5, 2)), "x")
    k = T.parameter(rng.standard_normal((3, 3, 2, 4)), "k")
    b = T.parameter(rng.standard_normal(4), "b")
    w = T.Tensor(rng.standard_normal((5, 5, 4)))
    check_grad(lambda: T.tsum(T.conv2d(x, k, b, "same", 1) * w), [x, k, b], 1e-5)


def test_conv2d_batched_matches_per_sample():
    rng = np.random.default_rng(5)
    xs = rng.standard_normal((3, 6, 6, 2))
    k = T.Tensor(rng.standard_normal((3, 3, 2, 4)))
    b = T.Tensor(rng.standard_normal(4))
    batched = T.conv2d(T.Tensor(xs), k, b, "same", 2)
    for i in range(3):
        single = T.conv2d(T.Tensor(xs[i]), k, b, "same", 2)
        assert np.array_equal(batched.data[i], single.data)


def test_conv2d_strided_gradients():
    rng = np.random.default_rng(6)
    x = T.parameter(rng.standard_normal((7, 7, 2)), "x")
    k = T.parameter(rng.standard_normal((3, 3, 2, 3)), "k")
    b = T.parameter(rng.standard_normal(3), "b")
    w = T.Tensor(rng.standard_normal((4, 4, 3)))
    check_grad(lambda: T.tsum(T.conv2d(x, k, b, "same", 2) * w), [x, k, b], 1e-5)


def one_shot_conv(x, k, b, padding, stride):
    """Reference forward: the whole im2col matrix at once, then one tensordot."""
    x4 = x if x.ndim == 4 else x[None]
    kh, kw = k.shape[:2]
    hout, pt, pb = T._conv_geometry(x4.shape[1], kh, padding, stride)
    wout, pl, pr = T._conv_geometry(x4.shape[2], kw, padding, stride)
    xp = np.pad(x4, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    cols = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3))
    out = np.tensordot(cols, k, axes=([3, 4, 5], [0, 1, 2])) + b
    return out if x.ndim == 4 else out[0]


# (input shape, kernel extent, padding, stride). Every case has more im2col elements
# than one block; Cout is 8 as in the desk backbone's first stage. Equality holds where
# the BLAS gives a row the same dot product whatever the row count of the GEMM call.
SPANNING_CASES = {
    "image_larger_than_a_block": ((2, 40, 40, 8), 3, "same", 1),
    "several_images_per_block": ((30, 10, 10, 3), 3, "same", 1),
    "stride_2": ((3, 50, 50, 4), 3, "same", 2),
    "valid_padding": ((2, 60, 60, 3), 3, "valid", 1),
    "unbatched": ((70, 70, 4), 3, "same", 1),
}


@pytest.mark.parametrize("case", sorted(SPANNING_CASES))
def test_conv2d_blocked_forward_is_bit_identical_to_one_shot_im2col(case):
    shape, kk, padding, stride = SPANNING_CASES[case]
    rng = np.random.default_rng(40)
    x = rng.standard_normal(shape)
    k = rng.standard_normal((kk, kk, shape[-1], 8))
    b = rng.standard_normal(8)
    expected = one_shot_conv(x, k, b, padding, stride)
    positions = int(np.prod(expected.shape[:-1]))
    per_image = positions // (shape[0] if len(shape) == 4 else 1)
    assert positions * kk * kk * shape[-1] > T.CONV_BLOCK
    if case == "several_images_per_block":
        assert 2 * per_image * kk * kk * shape[-1] <= T.CONV_BLOCK
    out = T.conv2d(T.Tensor(x), T.Tensor(k), T.Tensor(b), padding, stride)
    assert np.array_equal(out.data, expected)


@pytest.mark.parametrize("padding,stride", [("same", 1), ("valid", 2)])
def test_conv2d_gradients_across_blocks(monkeypatch, padding, stride):
    # a small block makes a small input span many blocks, both in the forward's im2col and
    # in the input gradient's correlation of g with the flipped kernels
    monkeypatch.setattr(T, "CONV_BLOCK", 64)
    rng = np.random.default_rng(41)
    x = T.parameter(rng.standard_normal((2, 11, 11, 3)), "x")
    k = T.parameter(rng.standard_normal((3, 3, 3, 4)), "k")
    b = T.parameter(rng.standard_normal(4), "b")
    out_shape = T.conv2d(x, k, b, padding, stride).shape
    assert len(T._conv_blocks(2, out_shape[1], out_shape[2], 3 * 3 * 3)) >= 3
    assert len(T._conv_blocks(2, 11, 11, 3 * 3 * 4)) >= 3
    w = T.Tensor(rng.standard_normal(out_shape))
    check_grad(lambda: T.tsum(T.conv2d(x, k, b, padding, stride) * w), [x, k, b], 1e-5)


def test_conv2d_stage0_forward_stays_well_below_one_cols_buffer():
    rng = np.random.default_rng(42)
    x = T.Tensor(rng.random((20, 112, 112, 3)))
    k = T.parameter(rng.uniform(-0.2, 0.2, (3, 3, 3, 8)), "k")
    b = T.parameter(np.zeros(8), "b")
    cols_bytes = 20 * 112 * 112 * 27 * 8  # the one-shot im2col matrix, 54 MB
    tracemalloc.start()
    try:
        out = T.conv2d(x, k, b, "same", 1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out._backward is not None  # the graph is recorded and holds what backward needs
    assert peak < cols_bytes / 2
    assert held < cols_bytes / 2


# -- channel concat / broadcast multiplies ---------------------------------


def test_channel_concat_paper_shape():
    a = T.Tensor(np.zeros((7, 7, 512)))
    b = T.Tensor(np.zeros((7, 7, 512)))
    assert T.channel_concat(a, b).shape == (7, 7, 1024)


def test_channel_concat_zero_block():
    rng = np.random.default_rng(7)
    x = T.Tensor(rng.random((3, 3, 4)))
    out = T.channel_concat(x, T.Tensor(np.zeros_like(x.data)))
    assert np.array_equal(out.data[..., :4], x.data)
    assert not out.data[..., 4:].any()


def test_channel_concat_index_placement():
    a = T.Tensor(np.arange(4.0).reshape(2, 2, 1))
    b = T.Tensor(np.arange(4.0, 8.0).reshape(2, 2, 1))
    out = T.channel_concat(a, b)
    for i in range(2):
        for j in range(2):
            assert out.data[i, j, 0] == a.data[i, j, 0]
            assert out.data[i, j, 1] == b.data[i, j, 0]


def test_channel_concat_spatial_mismatch():
    with pytest.raises(ShapeError):
        T.channel_concat(T.Tensor(np.zeros((2, 2, 1))), T.Tensor(np.zeros((3, 3, 1))))


@given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_concat_then_slice_identity(m, ka, kb, seed):
    rng = np.random.default_rng(seed)
    a = rng.random((m, m, ka))
    b = rng.random((m, m, kb))
    out = T.channel_concat(T.Tensor(a), T.Tensor(b))
    assert np.array_equal(out.data[..., :ka], a)
    assert np.array_equal(out.data[..., ka:], b)


def test_channel_concat_backward_splits():
    a = T.parameter(np.random.default_rng(8).random((2, 2, 2)), "a")
    b = T.parameter(np.random.default_rng(9).random((2, 2, 3)), "b")
    w = T.Tensor(np.random.default_rng(10).random((2, 2, 5)))
    check_grad(lambda: T.tsum(T.channel_concat(a, b) * w), [a, b], 1e-6)


def test_broadcast_mul_channel_identity_and_half():
    rng = np.random.default_rng(11)
    f = T.Tensor(rng.random((3, 3, 5)))
    ones = T.Tensor(np.ones(5))
    assert np.array_equal(T.broadcast_mul_channel(f, ones).data, f.data)
    half = T.broadcast_mul_channel(f, T.Tensor(np.full(5, 0.5)))
    assert np.array_equal(half.data, 0.5 * f.data)


def test_broadcast_mul_channel_gradients():
    rng = np.random.default_rng(12)
    f = T.parameter(rng.standard_normal((3, 3, 4)), "f")
    w = T.parameter(rng.standard_normal(4), "w")
    g = T.Tensor(rng.standard_normal((3, 3, 4)))
    check_grad(lambda: T.tsum(T.broadcast_mul_channel(f, w) * g), [f, w], 1e-6)


def test_broadcast_mul_channel_length_mismatch():
    with pytest.raises(ShapeError):
        T.broadcast_mul_channel(T.Tensor(np.zeros((2, 2, 3))), T.Tensor(np.zeros(4)))


def test_broadcast_mul_spatial_identity_and_mask():
    rng = np.random.default_rng(13)
    f = T.Tensor(rng.random((3, 3, 4)))
    assert np.array_equal(T.broadcast_mul_spatial(f, T.Tensor(np.ones((3, 3)))).data, f.data)
    mask = np.zeros((3, 3))
    mask[0, 0] = 1.0
    out = T.broadcast_mul_spatial(f, T.Tensor(mask))
    assert np.array_equal(out.data[0, 0], f.data[0, 0])
    assert not out.data[1:].any() and not out.data[0, 1:].any()


def test_broadcast_mul_spatial_gradients():
    rng = np.random.default_rng(14)
    f = T.parameter(rng.standard_normal((3, 3, 4)), "f")
    w = T.parameter(rng.standard_normal((3, 3)), "w")
    g = T.Tensor(rng.standard_normal((3, 3, 4)))
    check_grad(lambda: T.tsum(T.broadcast_mul_spatial(f, w) * g), [f, w], 1e-6)


def test_broadcast_mul_spatial_mismatch():
    with pytest.raises(ShapeError):
        T.broadcast_mul_spatial(T.Tensor(np.zeros((2, 2, 3))), T.Tensor(np.zeros((3, 3))))


# -- channel pooling --------------------------------------------------------


def test_channel_pool_singleton_identity():
    x = T.Tensor(np.random.default_rng(15).random((3, 3, 1)))
    assert np.array_equal(T.channel_pool(x, "avg").data, x.data)
    assert np.array_equal(T.channel_pool(x, "max").data, x.data)


def test_channel_pool_hand_values():
    f = np.empty((2, 2, 2))
    f[..., 0] = 2.0
    f[..., 1] = 4.0
    t = T.Tensor(f)
    assert np.all(T.channel_pool(t, "avg").data == 3.0)
    assert np.all(T.channel_pool(t, "max").data == 4.0)


def test_channel_pool_gradients():
    rng = np.random.default_rng(16)
    f = T.parameter(rng.standard_normal((4, 4, 8)), "f")
    g = T.Tensor(rng.standard_normal((4, 4, 1)))
    check_grad(lambda: T.tsum(T.channel_pool(f, "avg") * g), [f], 1e-6)
    check_grad(lambda: T.tsum(T.channel_pool(f, "max") * g), [f], 1e-6)


def test_channel_pool_max_tie_routes_to_first():
    f = T.parameter(np.array([[[2.0, 2.0, 1.0]]]), "f")
    out = T.channel_pool(f, "max")
    T.backward(T.tsum(out), [f])
    assert f.grad.tolist() == [[[1.0, 0.0, 0.0]]]


# -- activations ------------------------------------------------------------


def test_sigmoid_midpoint():
    assert T.sigmoid(T.Tensor(0.0)).item() == 0.5


def test_sigmoid_open_interval_extremes():
    out = T.sigmoid(T.Tensor([-1e6, -750.0, 750.0, 1e6])).data
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_softmax_uniform():
    out = T.softmax(T.Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8), st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_sum_to_one(row, rows):
    x = T.Tensor(np.tile(row, (rows, 1)))
    out = T.softmax(x)
    assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) < 1e-12)
    assert np.all(out.data > 0.0)


def test_sigmoid_gradient_tight():
    x = T.parameter(np.random.default_rng(17).standard_normal(6), "x")
    g = T.Tensor(np.random.default_rng(18).standard_normal(6))
    check_grad(lambda: T.tsum(T.sigmoid(x) * g), [x], 1e-7)


def test_softmax_gradients():
    x = T.parameter(np.random.default_rng(19).standard_normal((3, 5)), "x")
    g = T.Tensor(np.random.default_rng(20).standard_normal((3, 5)))
    check_grad(lambda: T.tsum(T.softmax(x) * g), [x], 1e-6)


def test_activation_dispatch_and_unknown():
    x = T.Tensor([1.0, -1.0])
    assert np.array_equal(T.activation(x, "relu").data, [1.0, 0.0])
    with pytest.raises(ConfigError):
        T.activation(x, "swish")


# -- cross entropy -----------------------------------------------------------


def test_cross_entropy_uniform_logits():
    logits = T.Tensor(np.zeros((3, 10)))
    loss = T.cross_entropy(logits, [0, 5, 9])
    assert abs(loss.item() - np.log(10.0)) < 1e-12


def test_cross_entropy_confident_correct():
    logits = np.full((2, 4), -50.0)
    logits[0, 1] = 50.0
    logits[1, 3] = 50.0
    loss = T.cross_entropy(T.Tensor(logits), [1, 3])
    assert loss.item() < 1e-12


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    rng = np.random.default_rng(21)
    logits = T.parameter(rng.standard_normal((4, 5)), "logits")
    labels = [0, 2, 4, 1]
    loss = T.cross_entropy(logits, labels)
    T.backward(loss, [logits])
    p = np.exp(logits.data) / np.exp(logits.data).sum(axis=1, keepdims=True)
    onehot = np.eye(5)[labels]
    assert np.allclose(logits.grad, (p - onehot) / 4.0, atol=1e-12)
    analytic = logits.grad.copy()
    logits.zero_grad()
    fd = T.finite_diff_grad(lambda _: T.cross_entropy(logits, labels), logits)
    assert rel_err(analytic, fd.data).max() < 1e-6


def test_cross_entropy_label_out_of_range_names_sample():
    with pytest.raises(DataError, match="sample 1"):
        T.cross_entropy(T.Tensor(np.zeros((2, 3))), [0, 3])


# -- backward plumbing --------------------------------------------------------


def test_backward_sum_gives_ones():
    x = T.parameter(np.arange(6.0).reshape(2, 3), "x")
    T.backward(T.tsum(x), [x])
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_quadratic():
    x = T.parameter(np.array([1.0, -2.0, 3.0]), "x")
    T.backward(T.tsum(x * x), [x])
    assert np.allclose(x.grad, 2 * x.data)


def test_backward_requires_scalar():
    x = T.parameter(np.ones(3), "x")
    with pytest.raises(UsageError):
        T.backward(x * x)


def test_backward_unreached_param_gets_zeros():
    x = T.parameter(np.ones(3), "x")
    y = T.parameter(np.ones(2), "y")
    grads = T.backward(T.tsum(x), [x, y])
    assert np.array_equal(grads[y], np.zeros(2))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_fanout_accumulation_matches_sum_of_single_uses(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(4)
    a = rng.standard_normal(4)
    b = rng.standard_normal(4)

    x = T.parameter(v.copy(), "x")
    T.backward(T.tsum(x * T.Tensor(a) + x * T.Tensor(b)), [x])
    combined = x.grad.copy()

    x1 = T.parameter(v.copy(), "x1")
    T.backward(T.tsum(x1 * T.Tensor(a)), [x1])
    x2 = T.parameter(v.copy(), "x2")
    T.backward(T.tsum(x2 * T.Tensor(b)), [x2])
    assert np.allclose(combined, x1.grad + x2.grad, atol=1e-15)


def test_deep_graph_backward_is_iterative():
    x = T.parameter(np.array(1.0), "x")
    y = x
    for _ in range(5000):
        y = y * T.Tensor(1.0)
    T.backward(T.tsum(y), [x])
    assert x.grad == 1.0


# -- finite differences --------------------------------------------------------


def test_finite_diff_sum_is_ones():
    x = T.Tensor(np.random.default_rng(22).random((2, 3)))
    fd = T.finite_diff_grad(lambda t: T.tsum(t), x)
    assert np.allclose(fd.data, 1.0, atol=1e-9)


def test_finite_diff_square_at_three():
    x = T.Tensor(np.array(3.0))
    fd = T.finite_diff_grad(lambda t: t * t, x)
    assert abs(fd.item() - 6.0) < 1e-9


def test_finite_diff_agrees_with_backward_on_dense_layer():
    rng = np.random.default_rng(23)
    w = T.parameter(rng.standard_normal((4, 3)), "w")
    x = T.Tensor(rng.standard_normal((2, 4)))
    tgt = T.Tensor(rng.standard_normal((2, 3)))

    def loss():
        d = T.matmul(x, w) - tgt
        return T.tsum(d * d)

    T.backward(loss(), [w])
    analytic = w.grad.copy()
    fd = T.finite_diff_grad(lambda _: loss(), w)
    assert rel_err(analytic, fd.data).max() < 1e-6


# -- misc ops used by layers ---------------------------------------------------


def test_reshape_transpose_concat_grads():
    rng = np.random.default_rng(24)
    x = T.parameter(rng.standard_normal((2, 3, 4)), "x")
    g = T.Tensor(rng.standard_normal((4, 6)))

    def loss():
        y = T.transpose(x, (2, 0, 1))
        return T.tsum(T.reshape(y, (4, 6)) * g)

    check_grad(loss, [x], 1e-6)


def test_index_and_flip_axis0():
    x = T.parameter(np.arange(12.0).reshape(3, 4), "x")
    row = T.index_axis0(x, 1)
    assert np.array_equal(row.data, x.data[1])
    T.backward(T.tsum(row), [x])
    expect = np.zeros((3, 4))
    expect[1] = 1.0
    assert np.array_equal(x.grad, expect)

    y = T.parameter(np.arange(6.0).reshape(3, 2), "y")
    flipped = T.flip_axis0(y)
    assert np.array_equal(flipped.data, y.data[::-1])
    g = np.random.default_rng(25).random((3, 2))
    T.backward(T.tsum(flipped * T.Tensor(g)), [y])
    assert np.array_equal(y.grad, g[::-1])


def test_maxpool2x2_values_and_grad():
    x = T.parameter(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1), "x")
    out = T.maxpool2x2(x)
    assert out.data.reshape(-1).tolist() == [4.0]
    T.backward(T.tsum(out), [x])
    assert x.grad.reshape(-1).tolist() == [0.0, 0.0, 0.0, 1.0]


def _first_max_pool_grad(x, g):
    """Reference maxpool backward: each window's gradient goes to its first maximum in (di, dj) order."""
    gx = np.zeros_like(x)
    for idx in np.ndindex(g.shape):
        *lead, i, j, c = idx
        window = [x[(*lead, 2 * i + di, 2 * j + dj, c)] for di in (0, 1) for dj in (0, 1)]
        di, dj = divmod(window.index(max(window)), 2)
        gx[(*lead, 2 * i + di, 2 * j + dj, c)] = g[idx]
    return gx


def test_maxpool2x2_tie_routes_to_first_in_row_major_order():
    # one window per tie pattern; the expected gradient position is marked in each comment
    windows = [
        [[2.0, 2.0], [2.0, 2.0]],  # (0, 0)
        [[1.0, 3.0], [3.0, 3.0]],  # (0, 1)
        [[0.0, 0.0], [1.0, 1.0]],  # (1, 0)
        [[-1.0, -1.0], [-1.0, 0.0]],  # (1, 1)
    ]
    expect = [(0, 0), (0, 1), (1, 0), (1, 1)]
    x = np.zeros((2, 8, 1))
    want = np.zeros_like(x)
    for k, (w, (di, dj)) in enumerate(zip(windows, expect)):
        x[:, 2 * k : 2 * k + 2, 0] = w
        want[di, 2 * k + dj, 0] = 1.0
    p = T.parameter(x, "x")
    T.backward(T.tsum(T.maxpool2x2(p)), [p])
    assert np.array_equal(p.grad, want)

    rng = np.random.default_rng(30)
    for shape in [(4, 6, 3), (3, 4, 6, 2)]:
        x = rng.integers(0, 2, size=shape).astype(float)  # ties in most windows
        p = T.parameter(x, "x")
        out = T.maxpool2x2(p)
        g = rng.standard_normal(out.shape)
        T.backward(T.tsum(out * T.Tensor(g)), [p])
        assert np.array_equal(p.grad, _first_max_pool_grad(x, g))


def test_maxpool2x2_commutes_with_relu_in_value_and_gradient():
    rng = np.random.default_rng(31)
    for shape in [(4, 4, 2), (2, 4, 6, 3)]:
        x = rng.integers(-2, 3, size=shape).astype(float)  # zero and negative ties
        g = rng.standard_normal(shape[:-3] + (shape[-3] // 2, shape[-2] // 2, shape[-1]))
        results = []
        for order in ("pool_relu", "relu_pool"):
            p = T.parameter(x.copy(), "x")
            out = T.relu(T.maxpool2x2(p)) if order == "pool_relu" else T.maxpool2x2(T.relu(p))
            T.backward(T.tsum(out * T.Tensor(g)), [p])
            results.append((out.data, p.grad))
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])


def test_gradients_never_alias_after_backward():
    rng = np.random.default_rng(32)
    x = T.parameter(rng.standard_normal((2, 3)), "x")
    y = T.parameter(rng.standard_normal((2, 3)), "y")
    s = T.add(x, y)
    r = T.reshape(s, (6,))
    loss = T.tsum(r) + T.tsum(T.add(x, x))  # tsum hands back a read-only broadcast_to view
    T.backward(loss, [x, y])
    grads = {"x": x.grad, "y": y.grad, "s": s.grad, "r": r.grad}
    for name, grad in grads.items():
        assert grad.flags.writeable, name
    names = list(grads)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            assert not np.shares_memory(grads[a], grads[b]), (a, b)
    assert np.array_equal(x.grad, np.full((2, 3), 3.0))
    x.grad[...] = 7.0
    assert np.array_equal(y.grad, np.ones((2, 3)))
    assert np.array_equal(s.grad, np.ones((2, 3)))
    assert np.array_equal(r.grad, np.ones(6))


def test_all_finite_after_public_ops():
    rng = np.random.default_rng(26)
    x = T.Tensor(rng.standard_normal((4, 4, 3)) * 100)
    k = T.Tensor(rng.standard_normal((3, 3, 3, 2)))
    for out in (
        T.conv2d(x, k, T.Tensor(np.zeros(2))),
        T.sigmoid(x),
        T.softmax(T.reshape(x, (4, 12))),
        T.channel_pool(x, "max"),
    ):
        assert np.all(np.isfinite(out.data))


# -- serialization ---------------------------------------------------------------


def test_tensor_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(27)
    for shape in [(), (3,), (2, 3), (2, 3, 4)]:
        t = T.Tensor(rng.standard_normal(shape))
        path = tmp_path / "t.bin"
        T.save_tensor(path, t)
        back = T.load_tensor(path)
        assert back.shape == t.shape
        assert np.array_equal(back.data, t.data)


def test_tensor_serialization_layout():
    t = T.Tensor(np.array([[1.0, 2.0]]))
    buf = io.BytesIO()
    T.write_tensor(buf, t)
    raw = buf.getvalue()
    assert raw[:4] == b"FTNS"
    assert raw[4] == 2
    assert int.from_bytes(raw[5:13], "little") == 1
    assert int.from_bytes(raw[13:21], "little") == 2
    assert np.frombuffer(raw[21:], dtype="<f8").tolist() == [1.0, 2.0]


def test_tensor_deserialization_truncated():
    buf = io.BytesIO(b"FTNS\x02" + b"\x03")
    with pytest.raises(DataError):
        T.read_tensor(buf)


def test_tensor_header_overflowing_dims_is_data_error():
    # dims (2^32, 2^32) overflow an int64 element count to 0
    buf = io.BytesIO(b"FTNS\x02" + (2**32).to_bytes(8, "little") * 2 + b"\x00" * 16)
    with pytest.raises(DataError, match="bytes"):
        T.read_tensor(buf)


def test_tensor_header_larger_than_stream_is_data_error():
    buf = io.BytesIO()
    T.write_tensor(buf, T.Tensor(np.arange(3.0)))
    raw = bytearray(buf.getvalue())
    raw[5:13] = (1000).to_bytes(8, "little")  # claims 1000 elements, 3 are there
    with pytest.raises(DataError, match="bytes"):
        T.read_tensor(io.BytesIO(bytes(raw)))
