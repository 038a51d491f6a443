"""Tensor core: forward values against hand arithmetic, backward against finite differences."""

import io
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from rgbdfuse import tensor as T
from rgbdfuse.errors import DataError, ShapeError, UsageError


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
    for i, p in enumerate(params):
        analytic = p.grad.copy()
        p.zero_grad()
        fd = T.finite_diff_grad(lambda _: build_loss(), p, h=h)
        diff = np.abs(analytic - fd.data)
        scale = np.maximum(np.abs(analytic), np.abs(fd.data))
        bad = diff > np.maximum(tol * scale, atol)
        if bad.any():
            worst = (diff / np.maximum(scale, 1e-30)).max()
            raise AssertionError(f"gradient mismatch rel={worst:.3g} for parameter {i} {p.shape}")


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
    a = T.parameter(rng.standard_normal((3, 4)))
    b = T.parameter(rng.standard_normal((4, 2)))
    g = T.Tensor(rng.standard_normal((3, 2)))
    check_grad(lambda: T.tsum(T.matmul(a, b) * g), [a, b], 1e-6)


# -- conv2d ---------------------------------------------------------------


def test_conv2d_selector_kernel_copies_channel():
    rng = np.random.default_rng(1)
    x = T.Tensor(rng.random((4, 4, 2)))
    k = T.Tensor(np.array([1.0, 0.0]).reshape(1, 1, 2, 1))
    out = T.drop_batch_axis(T.conv2d(T.add_batch_axis(x), k, T.Tensor(np.zeros(1))))
    assert np.array_equal(out.data[..., 0], x.data[..., 0])


def test_conv2d_all_ones_sum():
    # same padding: the interior sees all 9 taps, an edge 6 and a corner 4
    x = T.Tensor(np.ones((3, 3, 1)))
    k = T.Tensor(np.ones((3, 3, 1, 1)))
    out = T.drop_batch_axis(T.conv2d(T.add_batch_axis(x), k, T.Tensor(np.zeros(1))))
    assert out.data.shape == (3, 3, 1)
    assert out.data[1, 1, 0] == 9.0
    assert np.array_equal(out.data[..., 0], [[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])


@pytest.mark.parametrize("x_shape,k_shape", [((2, 0, 3, 1), (3, 3, 1, 2)), ((0, 3, 3, 1), (1, 1, 1, 2))])
def test_conv2d_empty_input_is_shape_error(x_shape, k_shape):
    with pytest.raises(ShapeError):
        T.conv2d(T.Tensor(np.zeros(x_shape)), T.Tensor(np.zeros(k_shape)), T.Tensor(np.zeros(k_shape[-1])))


def test_conv2d_gradients():
    rng = np.random.default_rng(4)
    x = T.parameter(rng.standard_normal((5, 5, 2)))
    k = T.parameter(rng.standard_normal((3, 3, 2, 4)))
    b = T.parameter(rng.standard_normal(4))
    w = T.Tensor(rng.standard_normal((5, 5, 4)))
    check_grad(lambda: T.tsum(T.drop_batch_axis(T.conv2d(T.add_batch_axis(x), k, b)) * w), [x, k, b], 1e-5)


def test_conv2d_batched_matches_per_sample():
    rng = np.random.default_rng(5)
    xs = rng.standard_normal((3, 6, 6, 2))
    k = T.Tensor(rng.standard_normal((3, 3, 2, 4)))
    b = T.Tensor(rng.standard_normal(4))
    batched = T.conv2d(T.Tensor(xs), k, b)
    for i in range(3):
        single = T.drop_batch_axis(T.conv2d(T.add_batch_axis(T.Tensor(xs[i])), k, b))
        assert np.array_equal(batched.data[i], single.data)


def one_shot_conv(x, k, b, padding):
    """Reference forward: the whole im2col matrix at once, then one tensordot.

    ``padding`` "same" pads (k-1)//2 before and the rest of k-1 after; "valid" pads nothing.
    """
    kh, kw = k.shape[:2]
    if padding == "same":
        pt, pl = (kh - 1) // 2, (kw - 1) // 2
        x = np.pad(x, ((0, 0), (pt, kh - 1 - pt), (pl, kw - 1 - pl), (0, 0)))
    win = sliding_window_view(x, (kh, kw), axis=(1, 2))
    cols = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3))
    return np.tensordot(cols, k, axes=([3, 4, 5], [0, 1, 2])) + b


# (input shape, kernel extent, reference padding). Every case has more im2col elements
# than one block; Cout is 8 as in the desk backbone's first stage. A "valid" case checks
# the interior of the same-padded output, where no tap reads padding. Equality holds where
# the BLAS gives a row the same dot product whatever the row count of the GEMM call.
SPANNING_CASES = {
    "image_larger_than_a_block": ((2, 40, 40, 8), 3, "same"),
    "several_images_per_block": ((30, 10, 10, 3), 3, "same"),
    "kernel_1": ((3, 80, 80, 4), 1, "same"),
    "valid_padding": ((2, 60, 60, 3), 5, "valid"),
}


@pytest.mark.parametrize("case", sorted(SPANNING_CASES))
def test_conv2d_blocked_forward_is_bit_identical_to_one_shot_im2col(case):
    shape, kk, padding = SPANNING_CASES[case]
    rng = np.random.default_rng(40)
    x = rng.standard_normal(shape)
    k = rng.standard_normal((kk, kk, shape[-1], 8))
    b = rng.standard_normal(8)
    expected = one_shot_conv(x, k, b, padding)
    positions = int(np.prod(expected.shape[:-1]))
    per_image = positions // shape[0]
    assert positions * kk * kk * shape[-1] > T.CONV_BLOCK
    if case == "several_images_per_block":
        assert 2 * per_image * kk * kk * shape[-1] <= T.CONV_BLOCK
    out = T.conv2d(T.Tensor(x), T.Tensor(k), T.Tensor(b)).data
    if padding == "valid":
        edge = (kk - 1) // 2
        out = out[..., edge : out.shape[-3] - edge, edge : out.shape[-2] - edge, :]
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("kk", [1, 3, 5])
def test_conv2d_gradients_across_blocks(monkeypatch, kk):
    # a small block makes a small input span many blocks, both in the forward's im2col and
    # in the input gradient's correlation of g with the flipped kernels
    monkeypatch.setattr(T, "CONV_BLOCK", 64)
    rng = np.random.default_rng(41)
    x = T.parameter(rng.standard_normal((2, 11, 11, 3)))
    k = T.parameter(rng.standard_normal((kk, kk, 3, 4)))
    b = T.parameter(rng.standard_normal(4))
    assert len(T._conv_blocks(2, 11, 11, kk * kk * 3)) >= 3
    assert len(T._conv_blocks(2, 11, 11, kk * kk * 4)) >= 3
    w = T.Tensor(rng.standard_normal((2, 11, 11, 4)))
    check_grad(lambda: T.tsum(T.conv2d(x, k, b) * w), [x, k, b], 1e-5)


def test_conv2d_stage0_forward_stays_well_below_one_cols_buffer():
    rng = np.random.default_rng(42)
    x = T.Tensor(rng.random((20, 112, 112, 3)))
    k = T.parameter(rng.uniform(-0.2, 0.2, (3, 3, 3, 8)))
    b = T.parameter(np.zeros(8))
    cols_bytes = 20 * 112 * 112 * 27 * 8  # the one-shot im2col matrix, 54 MB
    tracemalloc.start()
    try:
        out = T.conv2d(x, k, b)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out._backward is not None  # the graph is recorded and holds what backward needs
    assert peak < cols_bytes / 2
    assert held < cols_bytes / 2


# -- channel concat / broadcast multiplies ---------------------------------


def test_channel_concat_paper_shape():
    a = T.add_batch_axis(T.Tensor(np.zeros((7, 7, 512))))
    b = T.add_batch_axis(T.Tensor(np.zeros((7, 7, 512))))
    assert T.drop_batch_axis(T.channel_concat(a, b)).shape == (7, 7, 1024)


def test_channel_concat_zero_block():
    rng = np.random.default_rng(7)
    x = T.Tensor(rng.random((3, 3, 4)))
    out = T.drop_batch_axis(T.channel_concat(T.add_batch_axis(x), T.add_batch_axis(T.Tensor(np.zeros_like(x.data)))))
    assert np.array_equal(out.data[..., :4], x.data)
    assert not out.data[..., 4:].any()


def test_channel_concat_index_placement():
    a = T.Tensor(np.arange(4.0).reshape(2, 2, 1))
    b = T.Tensor(np.arange(4.0, 8.0).reshape(2, 2, 1))
    out = T.drop_batch_axis(T.channel_concat(T.add_batch_axis(a), T.add_batch_axis(b)))
    for i in range(2):
        for j in range(2):
            assert out.data[i, j, 0] == a.data[i, j, 0]
            assert out.data[i, j, 1] == b.data[i, j, 0]


def test_channel_concat_spatial_mismatch():
    with pytest.raises(ShapeError):
        T.channel_concat(*(T.add_batch_axis(T.Tensor(np.zeros((m, m, 1)))) for m in (2, 3)))


@given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_concat_then_slice_identity(m, ka, kb, seed):
    rng = np.random.default_rng(seed)
    a = rng.random((m, m, ka))
    b = rng.random((m, m, kb))
    out = T.drop_batch_axis(T.channel_concat(T.add_batch_axis(T.Tensor(a)), T.add_batch_axis(T.Tensor(b))))
    assert np.array_equal(out.data[..., :ka], a)
    assert np.array_equal(out.data[..., ka:], b)


def test_channel_concat_backward_splits():
    a = T.parameter(np.random.default_rng(8).random((2, 2, 2)))
    b = T.parameter(np.random.default_rng(9).random((2, 2, 3)))
    w = T.Tensor(np.random.default_rng(10).random((2, 2, 5)))
    check_grad(
        lambda: T.tsum(T.drop_batch_axis(T.channel_concat(T.add_batch_axis(a), T.add_batch_axis(b))) * w), [a, b], 1e-6
    )


def test_broadcast_mul_channel_identity_and_half():
    rng = np.random.default_rng(11)
    f = T.add_batch_axis(T.Tensor(rng.random((3, 3, 5))))
    ones = T.add_batch_axis(T.Tensor(np.ones(5)))
    assert np.array_equal(T.drop_batch_axis(T.broadcast_mul_channel(f, ones)).data, f.data[0])
    half = T.drop_batch_axis(T.broadcast_mul_channel(f, T.add_batch_axis(T.Tensor(np.full(5, 0.5)))))
    assert np.array_equal(half.data, 0.5 * f.data[0])


def test_broadcast_mul_channel_gradients():
    rng = np.random.default_rng(12)
    f = T.parameter(rng.standard_normal((3, 3, 4)))
    w = T.parameter(rng.standard_normal(4))
    g = T.Tensor(rng.standard_normal((3, 3, 4)))
    check_grad(
        lambda: T.tsum(T.drop_batch_axis(T.broadcast_mul_channel(T.add_batch_axis(f), T.add_batch_axis(w))) * g),
        [f, w],
        1e-6,
    )


def test_broadcast_mul_channel_length_mismatch():
    with pytest.raises(ShapeError):
        T.broadcast_mul_channel(*(T.add_batch_axis(T.Tensor(np.zeros(shape))) for shape in ((2, 2, 3), (4,))))


def test_broadcast_mul_spatial_identity_and_mask():
    rng = np.random.default_rng(13)
    f = T.Tensor(rng.random((3, 3, 4)))

    def gate(w):
        return T.drop_batch_axis(T.broadcast_mul_spatial(T.add_batch_axis(f), T.add_batch_axis(T.Tensor(w))))

    assert np.array_equal(gate(np.ones((3, 3))).data, f.data)
    mask = np.zeros((3, 3))
    mask[0, 0] = 1.0
    out = gate(mask)
    assert np.array_equal(out.data[0, 0], f.data[0, 0])
    assert not out.data[1:].any() and not out.data[0, 1:].any()


def test_broadcast_mul_spatial_gradients():
    rng = np.random.default_rng(14)
    f = T.parameter(rng.standard_normal((3, 3, 4)))
    w = T.parameter(rng.standard_normal((3, 3)))
    g = T.Tensor(rng.standard_normal((3, 3, 4)))
    check_grad(
        lambda: T.tsum(T.drop_batch_axis(T.broadcast_mul_spatial(T.add_batch_axis(f), T.add_batch_axis(w))) * g),
        [f, w],
        1e-6,
    )


def test_broadcast_mul_spatial_mismatch():
    with pytest.raises(ShapeError):
        T.broadcast_mul_spatial(*(T.add_batch_axis(T.Tensor(np.zeros(shape))) for shape in ((2, 2, 3), (3, 3))))


# -- channel pooling --------------------------------------------------------


def test_channel_pool_singleton_identity():
    x = T.Tensor(np.random.default_rng(15).random((3, 3, 1)))
    assert np.array_equal(T.drop_batch_axis(T.channel_pool(T.add_batch_axis(x), "avg")).data, x.data)
    assert np.array_equal(T.drop_batch_axis(T.channel_pool(T.add_batch_axis(x), "max")).data, x.data)


def test_channel_pool_hand_values():
    f = np.empty((2, 2, 2))
    f[..., 0] = 2.0
    f[..., 1] = 4.0
    t = T.add_batch_axis(T.Tensor(f))
    assert np.all(T.channel_pool(t, "avg").data == 3.0)
    assert np.all(T.channel_pool(t, "max").data == 4.0)


def test_channel_pool_gradients():
    rng = np.random.default_rng(16)
    f = T.parameter(rng.standard_normal((4, 4, 8)))
    g = T.Tensor(rng.standard_normal((4, 4, 1)))
    for mode in ("avg", "max"):
        check_grad(lambda: T.tsum(T.drop_batch_axis(T.channel_pool(T.add_batch_axis(f), mode)) * g), [f], 1e-6)


def _sweep(out, params, seed):
    """Backward of sum(out * g) for a fixed random g, so ``out`` receives exactly g; returns g."""
    g = np.random.default_rng(seed).standard_normal(out.shape)
    T.backward(T.tsum(out * T.Tensor(g)), params)
    return g


def test_channel_gate_is_the_broadcast_product_bit_for_bit():
    rng = np.random.default_rng(40)
    f = T.parameter(rng.standard_normal((2, 3, 5, 4)))
    w = T.parameter(rng.standard_normal((2, 4)))
    out = T.broadcast_mul_channel(f, w)
    g = _sweep(out, [f, w], 41)
    wb = w.data[:, None, None, :]
    assert np.array_equal(out.data, f.data * wb)
    assert np.array_equal(f.grad, g * wb)
    assert np.array_equal(w.grad, (g * f.data).sum(axis=(1, 2)))


def test_spatial_gate_is_the_broadcast_product_bit_for_bit():
    rng = np.random.default_rng(42)
    f = T.parameter(rng.standard_normal((2, 3, 5, 4)))
    w = T.parameter(rng.standard_normal((2, 3, 5)))
    out = T.broadcast_mul_spatial(f, w)
    g = _sweep(out, [f, w], 43)
    assert np.array_equal(out.data, f.data * w.data[..., None])
    assert np.array_equal(f.grad, g * w.data[..., None])
    assert np.array_equal(w.grad, (g * f.data).sum(axis=-1))


def test_channel_pool_avg_is_numpy_mean_bit_for_bit():
    f = T.parameter(np.random.default_rng(44).standard_normal((2, 3, 5, 7)))
    out = T.channel_pool(f, "avg")
    g = _sweep(out, [f], 45)
    assert np.array_equal(out.data, f.data.mean(axis=-1, keepdims=True))
    assert np.array_equal(f.grad, np.broadcast_to(g / 7, f.shape))


def test_channel_gate_rejects_weights_of_another_batch_or_rank():
    f = T.Tensor(np.zeros((2, 3, 3, 4)))
    for w in (np.zeros((3, 4)), np.zeros(4), np.zeros((2, 1, 4)), np.zeros(())):
        with pytest.raises(ShapeError):
            T.broadcast_mul_channel(f, T.Tensor(w))


def test_channel_pool_max_tie_routes_to_first():
    f = T.parameter(np.array([[[2.0, 2.0, 1.0]]]))
    out = T.channel_pool(T.add_batch_axis(f), "max")
    T.backward(T.tsum(out), [f])
    assert f.grad.tolist() == [[[1.0, 0.0, 0.0]]]


# -- activations ------------------------------------------------------------


def test_sigmoid_midpoint():
    assert T.sigmoid(T.Tensor(0.0)).item() == 0.5


def test_sigmoid_open_interval_extremes():
    out = T.sigmoid(T.Tensor([-1e6, -750.0, 750.0, 1e6])).data
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_sigmoid_matches_three_exp_formula():
    d = np.array([-800.0, -40.0, -1.5, -1e-300, 0.0, 1e-300, 0.5, 40.0, 800.0])
    three_exp = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))), np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
    expected = np.clip(three_exp, np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0))
    assert np.array_equal(T.sigmoid(T.Tensor(d)).data, expected)


def test_sigmoid_gradient_tight():
    x = T.parameter(np.random.default_rng(17).standard_normal(6))
    g = T.Tensor(np.random.default_rng(18).standard_normal(6))
    check_grad(lambda: T.tsum(T.sigmoid(x) * g), [x], 1e-7)


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
    logits = T.parameter(rng.standard_normal((4, 5)))
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
    x = T.parameter(np.arange(6.0).reshape(2, 3))
    T.backward(T.tsum(x), [x])
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_quadratic():
    x = T.parameter(np.array([1.0, -2.0, 3.0]))
    T.backward(T.tsum(x * x), [x])
    assert np.allclose(x.grad, 2 * x.data)


def test_backward_requires_scalar():
    x = T.parameter(np.ones(3))
    with pytest.raises(UsageError):
        T.backward(x * x)


def test_backward_unreached_param_gets_zeros():
    x = T.parameter(np.ones(3))
    y = T.parameter(np.ones(2))
    grads = T.backward(T.tsum(x), [x, y])
    assert np.array_equal(grads[y], np.zeros(2))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_fanout_accumulation_matches_sum_of_single_uses(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(4)
    a = rng.standard_normal(4)
    b = rng.standard_normal(4)

    x = T.parameter(v.copy())
    T.backward(T.tsum(x * T.Tensor(a) + x * T.Tensor(b)), [x])
    combined = x.grad.copy()

    x1 = T.parameter(v.copy())
    T.backward(T.tsum(x1 * T.Tensor(a)), [x1])
    x2 = T.parameter(v.copy())
    T.backward(T.tsum(x2 * T.Tensor(b)), [x2])
    assert np.allclose(combined, x1.grad + x2.grad, atol=1e-15)


def test_deep_graph_backward_is_iterative():
    x = T.parameter(np.array(1.0))
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
    w = T.parameter(rng.standard_normal((4, 3)))
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
    x = T.parameter(rng.standard_normal((2, 3, 4)))
    g = T.Tensor(rng.standard_normal((4, 6)))

    def loss():
        y = T.transpose(x, (2, 0, 1))
        return T.tsum(T.reshape(y, (4, 6)) * g)

    check_grad(loss, [x], 1e-6)


def test_index_and_flip_axis0():
    x = T.parameter(np.arange(12.0).reshape(3, 4))
    row = T.take(x, 1)
    assert np.array_equal(row.data, x.data[1])
    T.backward(T.tsum(row), [x])
    expect = np.zeros((3, 4))
    expect[1] = 1.0
    assert np.array_equal(x.grad, expect)

    y = T.parameter(np.arange(6.0).reshape(3, 2))
    flipped = T.take(y, slice(None, None, -1))
    assert np.array_equal(flipped.data, y.data[::-1])
    g = np.random.default_rng(25).random((3, 2))
    T.backward(T.tsum(flipped * T.Tensor(g)), [y])
    assert np.array_equal(y.grad, g[::-1])


def test_maxpool2x2_values_and_grad():
    x = T.parameter(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1))
    out = T.maxpool2x2(T.add_batch_axis(x))
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
    p = T.parameter(x)
    T.backward(T.tsum(T.maxpool2x2(T.add_batch_axis(p))), [p])
    assert np.array_equal(p.grad, want)

    rng = np.random.default_rng(30)
    for shape in [(1, 4, 6, 3), (3, 4, 6, 2)]:
        x = rng.integers(0, 2, size=shape).astype(float)  # ties in most windows
        p = T.parameter(x)
        out = T.maxpool2x2(p)
        g = rng.standard_normal(out.shape)
        T.backward(T.tsum(out * T.Tensor(g)), [p])
        assert np.array_equal(p.grad, _first_max_pool_grad(x, g))


def test_maxpool2x2_commutes_with_relu_in_value_and_gradient():
    rng = np.random.default_rng(31)
    for shape in [(1, 4, 4, 2), (2, 4, 6, 3)]:
        x = rng.integers(-2, 3, size=shape).astype(float)  # zero and negative ties
        g = rng.standard_normal((shape[0], shape[1] // 2, shape[2] // 2, shape[3]))
        results = []
        for order in ("pool_relu", "relu_pool"):
            p = T.parameter(x.copy())
            out = T.relu(T.maxpool2x2(p)) if order == "pool_relu" else T.maxpool2x2(T.relu(p))
            T.backward(T.tsum(out * T.Tensor(g)), [p])
            results.append((out.data, p.grad))
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])


# (input, Cout): a small batch; a constant input, whose interior windows all tie;
# 112x112, whose stage-0 conv blocks are row bands; and a batch of 30 that groups of 24
# whole images do not divide.
FUSED_CASES = {
    "rank4": (np.random.default_rng(51).standard_normal((3, 8, 6, 2)), 5),
    "constant_ties": (np.full((2, 6, 6, 3), 0.5), 4),
    "row_bands": (np.random.default_rng(52).random((1, 112, 112, 3)), 8),
    "ragged_groups": (np.random.default_rng(53).standard_normal((30, 10, 10, 3)), 4),
}


@pytest.mark.parametrize("case", sorted(FUSED_CASES))
def test_conv_pool_relu_equals_the_three_ops_bit_for_bit(case):
    x_data, cout = FUSED_CASES[case]
    if case == "row_bands":
        assert any(r0 > 0 for _, _, r0, _ in T._conv_blocks(1, 112, 112, 27))
    if case == "ragged_groups":
        groups = {(i0, i1) for i0, i1, _, _ in T._conv_blocks(30, 10, 10, 27)}
        assert len(groups) > 1 and len({i1 - i0 for i0, i1 in groups}) > 1
    rng = np.random.default_rng(54)
    k_data = rng.standard_normal((3, 3, x_data.shape[-1], cout))
    b_data = rng.standard_normal(cout)
    if case == "constant_ties":
        b_data[0] = 100.0  # a channel where every window's maximum is positive and tied
    results = []
    for stage in (T.conv_pool_relu, lambda x, k, b: T.relu(T.maxpool2x2(T.conv2d(x, k, b)))):
        x, k, b = T.parameter(x_data), T.parameter(k_data), T.parameter(b_data)
        out = stage(x, k, b)
        g = np.random.default_rng(55).standard_normal(out.shape)
        T.backward(T.tsum(out * T.Tensor(g)), [x, k, b])
        with T.no_grad():
            unrecorded = stage(x, k, b)
        assert unrecorded._backward is None
        results.append((out.data, unrecorded.data, x.grad, k.grad, b.grad))
    fused, reference = results
    for got, want in zip(fused, reference):
        assert np.array_equal(got, want)
    assert np.array_equal(fused[1], reference[0])


def test_conv_pool_relu_checks_the_shapes_of_both_ops():
    k, b = T.Tensor(np.zeros((3, 3, 2, 4))), T.Tensor(np.zeros(4))
    with pytest.raises(ShapeError, match="even spatial dims"):
        T.conv_pool_relu(T.Tensor(np.zeros((1, 5, 4, 2))), k, b)
    with pytest.raises(ShapeError, match="input channels"):
        T.conv_pool_relu(T.Tensor(np.zeros((1, 4, 4, 3))), k, b)


def test_gradients_never_alias_after_backward():
    rng = np.random.default_rng(32)
    x = T.parameter(rng.standard_normal((2, 3)))
    y = T.parameter(rng.standard_normal((2, 3)))
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


def _graph_nodes(root):
    """Every tensor reachable from ``root`` through recorded parent links."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def test_backward_frees_every_closure_and_parent_link_and_keeps_held_grads():
    rng = np.random.default_rng(33)
    x = T.parameter(rng.standard_normal((2, 4, 4, 2)))
    k = T.parameter(rng.standard_normal((3, 3, 2, 3)))
    b = T.parameter(rng.standard_normal(3))
    v = T.parameter(rng.standard_normal(12))
    h = T.relu(T.maxpool2x2(T.conv2d(x, k, b)))
    y = T.tanh(T.reshape(h, (2, 12)))
    loss = T.tsum(T.concat([y * v, y], axis=0))
    nodes = _graph_nodes(loss)
    interior = [n for n in nodes if n._backward is not None]
    assert len(interior) >= 8
    T.backward(loss, [x, k, b, v])
    for node in nodes:
        assert node._backward is None
        assert node._parents == ()
    # grads of the leaves and of the interior tensors held here, by hand from y's
    gy = v.data + 1.0
    assert np.array_equal(y.grad, np.broadcast_to(gy, (2, 12)))
    assert np.array_equal(v.grad, y.data.sum(axis=0))
    assert np.allclose(h.grad.reshape(2, 12), gy * (1.0 - y.data**2), rtol=0, atol=1e-15)
    for p in (x, k, b):
        assert p.grad.shape == p.shape and np.all(np.isfinite(p.grad))


def test_a_swept_graph_cannot_be_swept_again():
    x = T.parameter(np.arange(3.0))
    loss = T.tsum(T.mul(x, x))
    T.backward(loss, [x])
    x.zero_grad()
    with pytest.raises(UsageError, match="already swept"):
        T.backward(loss, [x])
    assert x.grad is None


def test_backward_frees_activations_held_only_by_the_graph():
    size = 1 << 19  # 4 MB of float64 per activation
    n = 8

    def chain():
        x = T.parameter(np.linspace(-1.0, 1.0, size))
        y = x
        for _ in range(n):
            y = T.relu(y)
        return x, T.tsum(y)

    tracemalloc.start()
    try:
        x, loss = chain()
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        T.backward(loss, [x])
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    activations = 8 * size * n
    assert before > activations  # the graph held every activation when the sweep began
    assert peak - before < activations / 2  # interior grads die as the sweep passes them
    assert after < before - activations / 2  # and so do the activations
    assert np.array_equal(x.grad, (x.data > 0).astype(float))


def _blas_threads():
    """OpenBLAS's thread count, read by setting it and back."""
    set_threads = T._openblas_set_num_threads_local()
    current = set_threads(1)
    set_threads(current)
    return current


@pytest.mark.parametrize("failing", [0, 1])
def test_a_branch_error_surfaces_as_itself_after_every_branch_ends(failing):
    error = ShapeError("branch failed")
    running = []
    started = threading.Event()

    def fail():
        if T._branch_worker() is not None:
            started.wait(timeout=10)  # fail while the other branch runs
        raise error

    def slow(value):
        def run():
            running.append(value)
            started.set()
            time.sleep(0.2)
            running.remove(value)
            return T.Tensor(np.full((2, 3), float(value)))

        return run

    thunks = [slow(0), slow(1)]
    thunks[failing] = fail
    with pytest.raises(ShapeError) as info:
        T.concat_branches(thunks, axis=-1)
    assert info.value is error
    assert running == []  # no branch is still running when the error surfaces
    out, parts = T.concat_branches([slow(0), slow(1)], axis=-1)
    assert np.array_equal(out.data, np.concatenate([np.zeros((2, 3)), np.ones((2, 3))], axis=-1))
    assert [p.shape for p in parts] == [(2, 3), (2, 3)]
    with pytest.raises(ShapeError, match="do not concatenate"):
        T.concat_branches([slow(0), lambda: T.Tensor(np.zeros((3, 3)))], axis=-1)
    if T._branch_worker() is not None:
        assert _blas_threads() == 1  # the branches share the CPUs with no BLAS thread beside them


def test_a_single_branch_runs_here_without_making_the_branch_worker(monkeypatch):
    def no_worker():
        raise AssertionError("the branch worker was made for one call")

    monkeypatch.setattr(T, "_branch_worker", no_worker)
    thread = []

    def f():
        thread.append(threading.current_thread())
        return 7

    assert T._run_branches([f]) == [f()]
    assert thread == [threading.current_thread()] * 2


def _relu_branches(size, n):
    """Two branches of ``n`` relus each, on parameters of ``size`` elements; returns the
    parameters, the concatenation, its branch outputs and a loss weighting each entry by its index."""

    def chain(x):
        def run():
            y = x
            for _ in range(n):
                y = T.relu(y)
            return y

        return run

    xs = [T.parameter(np.linspace(-1.0, 1.0, size)), T.parameter(np.linspace(1.0, -1.0, size))]
    out, parts = T.concat_branches([chain(x) for x in xs], axis=0)
    return xs, out, parts, T.tsum(out * T.Tensor(np.arange(2.0 * size)))


def test_branch_backward_drops_every_branch_closure_and_parent_link():
    xs, out, parts, loss = _relu_branches(16, 3)
    assert out._parents == ()  # the branches stay out of the outer topological order
    nodes = [node for part in parts for node in _graph_nodes(part)]
    assert sum(node._backward is not None for node in nodes) == 2 * 3
    T.backward(loss, xs)
    for node in nodes:
        assert node._backward is None
        assert node._parents == ()
    assert np.array_equal(xs[0].grad, np.arange(16) * (xs[0].data > 0))
    assert np.array_equal(xs[1].grad, np.arange(16, 32.0) * (xs[1].data > 0))


def test_branch_backward_frees_activations_held_only_by_a_branch():
    size = 1 << 19  # 4 MB of float64 per activation
    n = 8
    tracemalloc.start()
    try:
        xs, _, _, loss = _relu_branches(size, n)
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        T.backward(loss, xs)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    activations = 2 * 8 * size * n
    assert before > activations  # the branch graphs held every activation when the sweep began
    assert peak - before < activations / 2  # interior grads die as each branch's sweep passes them
    assert after < before - activations / 2  # and so do the activations


def test_branches_record_no_graph_under_no_grad():
    x = T.parameter(np.ones((2, 2)))
    with T.no_grad():
        out, parts = T.concat_branches([lambda: T.relu(x), lambda: T.tanh(x)], axis=0)
    for t in [out, *parts]:
        assert not t.requires_grad and t._backward is None and t._parents == ()


def test_all_finite_after_public_ops():
    rng = np.random.default_rng(26)
    x = T.add_batch_axis(T.Tensor(rng.standard_normal((4, 4, 3)) * 100))
    k = T.Tensor(rng.standard_normal((3, 3, 3, 2)))
    for out in (
        T.conv2d(x, k, T.Tensor(np.zeros(2))),
        T.sigmoid(x),
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


def test_empty_tensor_round_trip():
    buf = io.BytesIO()
    T.write_tensor(buf, T.Tensor(np.zeros((3, 0))))
    buf.seek(0)
    assert T.read_tensor(buf).shape == (3, 0)


@pytest.mark.parametrize("dims", [(0, 2**63), (2**62, 0), (0,) * 33])
def test_tensor_header_dims_no_array_can_have_is_data_error(dims):
    raw = b"FTNS" + bytes([len(dims)]) + b"".join(d.to_bytes(8, "little") for d in dims)
    with pytest.raises(DataError, match="exceed"):
        T.read_tensor(io.BytesIO(raw))


# -- the batch-of-one boundary and the finite-difference oracle -------------------


def test_batch_axis_round_trip_carries_gradients():
    rng = np.random.default_rng(40)
    x = T.parameter(rng.standard_normal((3, 4)))
    g = T.Tensor(rng.standard_normal((3, 4)))
    assert T.add_batch_axis(x).shape == (1, 3, 4)
    assert T.add_batch_axis(x, 1).shape == (3, 1, 4)
    check_grad(lambda: T.tsum(T.drop_batch_axis(T.add_batch_axis(x, 1), 1) * g), [x], 1e-6)


def test_central_difference_restores_input_and_matches_finite_diff_grad():
    x = T.Tensor(np.arange(6.0).reshape(2, 3).T)  # not C-contiguous
    before = x.data.copy()

    def cube(t):
        return T.tsum(t * t * t)

    d = T.central_difference(cube, x, 4, 1e-4)
    assert abs(d - 3.0 * before.reshape(-1)[4] ** 2) < 1e-6
    assert np.array_equal(x.data, before)
    assert T.finite_diff_grad(cube, x, 1e-4).data.reshape(-1)[4] == d
