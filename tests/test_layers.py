"""Layer forward semantics and gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgbdfuse import layers as L
from rgbdfuse import tensor as T
from rgbdfuse.errors import ConfigError, ShapeError, UsageError
from tests.test_tensor import check_grad


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


# -- dense ------------------------------------------------------------------


def test_dense_identity():
    layer = L.DenseLayer(T.Tensor(np.eye(3)), T.Tensor(np.zeros(3)))
    x = T.Tensor(np.random.default_rng(0).random((4, 3)))
    assert np.array_equal(L.dense_forward(layer, x).data, x.data)


def test_dense_bias_only():
    layer = L.DenseLayer(T.Tensor(np.zeros((3, 2))), T.Tensor([1.0, 2.0]))
    out = L.dense_forward(layer, T.Tensor(np.random.default_rng(1).random((5, 3))))
    assert np.array_equal(out.data, np.tile([1.0, 2.0], (5, 1)))


def test_dense_width_mismatch():
    layer = L.DenseLayer.init(3, 2, np.random.default_rng(2))
    with pytest.raises(ShapeError):
        L.dense_forward(layer, T.Tensor(np.zeros((4, 5))))


def test_dense_gradients():
    rng = np.random.default_rng(3)
    layer = L.DenseLayer.init(4, 3, rng)
    x = T.parameter(rng.standard_normal((2, 4)))
    g = T.Tensor(rng.standard_normal((2, 3)))
    check_grad(lambda: T.tsum(L.dense_forward(layer, x) * g), [layer.weights, layer.bias, x], 1e-6)


# -- lstm ---------------------------------------------------------------------


def one_sequence(run, *layers_and_seq):
    """``run`` (``lstm_forward`` or ``blstm_forward``) on one sequence [T x in], as a batch
    of one at axis 1."""
    *layers, seq = layers_and_seq
    return T.drop_batch_axis(run(*layers, T.add_batch_axis(seq, 1)), 1)


def zero_lstm(n_in, hidden):
    layer = L.LstmLayer.init(n_in, hidden, np.random.default_rng(0))
    for _, p in layer.parameters():
        p.data[:] = 0.0
    return layer


def test_lstm_zero_parameters_outputs_zero():
    layer = zero_lstm(3, 4)
    out = one_sequence(L.lstm_forward, layer, T.Tensor(np.random.default_rng(4).random((6, 3))))
    assert out.shape == (6, 4)
    assert not out.data.any()


def test_lstm_single_step_matches_hand_cell():
    rng = np.random.default_rng(5)
    layer = L.LstmLayer.init(3, 2, rng)
    x = rng.standard_normal(3)
    out = one_sequence(L.lstm_forward, layer, T.Tensor(x[None, :]))

    gi = sigmoid(x @ layer.w["i"].data + layer.b["i"].data)
    gf = sigmoid(x @ layer.w["f"].data + layer.b["f"].data)
    gc = np.tanh(x @ layer.w["c"].data + layer.b["c"].data)
    go = sigmoid(x @ layer.w["o"].data + layer.b["o"].data)
    h = go * np.tanh(gf * 0.0 + gi * gc)
    assert np.allclose(out.data[0], h, atol=1e-14)


def test_lstm_multi_step_matches_per_gate_reference():
    rng = np.random.default_rng(26)
    layer = L.LstmLayer.init(3, 4, rng)
    seq = rng.standard_normal((3, 2, 3))
    w, u, b = ({g: d[g].data for g in "ifco"} for d in (layer.w, layer.u, layer.b))
    h, c = np.zeros((2, 4)), np.zeros((2, 4))
    expect = []
    for x in seq:
        gi = sigmoid(x @ w["i"] + h @ u["i"] + b["i"])
        gf = sigmoid(x @ w["f"] + h @ u["f"] + b["f"])
        gc = np.tanh(x @ w["c"] + h @ u["c"] + b["c"])
        go = sigmoid(x @ w["o"] + h @ u["o"] + b["o"])
        c = gf * c + gi * gc
        h = go * np.tanh(c)
        expect.append(h)
    out = L.lstm_forward(layer, T.Tensor(seq))
    assert out.shape == (3, 2, 4)
    assert np.allclose(out.data, np.stack(expect), atol=1e-14)


def test_lstm_gradients():
    rng = np.random.default_rng(6)
    layer = L.LstmLayer.init(3, 4, rng)
    seq = T.parameter(rng.standard_normal((5, 3)))
    params = [p for _, p in layer.parameters()] + [seq]
    check_grad(lambda: T.tsum(one_sequence(L.lstm_forward, layer, seq)), params, 1e-4)


def test_lstm_records_sixteen_nodes_per_step():
    """The bias joins the once-per-layer input projection, so a step is its slice of it, h U,
    their sum, four gate slices and the 9 nodes of the cell update."""

    def graph_nodes(root):
        seen, stack = set(), [root]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._parents)
        return len(seen)

    layer = L.LstmLayer.init(3, 4, np.random.default_rng(9))
    seq = np.random.default_rng(10).standard_normal((7, 2, 3))
    counts = [graph_nodes(L.lstm_forward(layer, T.Tensor(seq[:steps]))) for steps in (3, 7)]
    assert (counts[1] - counts[0]) / 4 == 16


def test_lstm_batched_matches_loop():
    rng = np.random.default_rng(7)
    layer = L.LstmLayer.init(3, 4, rng)
    seqs = rng.standard_normal((5, 2, 3))
    batched = L.lstm_forward(layer, T.Tensor(seqs))
    for b in range(2):
        single = one_sequence(L.lstm_forward, layer, T.Tensor(seqs[:, b, :]))
        assert np.allclose(batched.data[:, b, :], single.data, atol=1e-15)


def test_lstm_width_mismatch():
    layer = L.LstmLayer.init(3, 4, np.random.default_rng(8))
    with pytest.raises(ShapeError):
        one_sequence(L.lstm_forward, layer, T.Tensor(np.zeros((5, 2))))


# -- blstm -----------------------------------------------------------------------


def test_blstm_palindrome_center_symmetry():
    rng = np.random.default_rng(9)
    fwd = L.LstmLayer.init(2, 3, rng)
    seq = np.array([[0.3, -0.2], [1.0, 0.5], [0.3, -0.2]])
    out = one_sequence(L.blstm_forward, fwd, fwd, T.Tensor(seq))
    assert out.shape == (3, 6)
    assert np.allclose(out.data[1, :3], out.data[1, 3:], atol=1e-14)


def test_blstm_zero_parameters():
    layer = zero_lstm(2, 3)
    out = one_sequence(L.blstm_forward, layer, layer, T.Tensor(np.random.default_rng(10).random((4, 2))))
    assert not out.data.any()


def test_blstm_hidden_mismatch():
    rng = np.random.default_rng(11)
    with pytest.raises(ConfigError):
        fwd, bwd = L.LstmLayer.init(2, 3, rng), L.LstmLayer.init(2, 4, rng)
        one_sequence(L.blstm_forward, fwd, bwd, T.Tensor(np.zeros((2, 2))))


def test_blstm_gradients():
    rng = np.random.default_rng(12)
    fwd = L.LstmLayer.init(2, 3, rng)
    bwd = L.LstmLayer.init(2, 3, rng)
    seq = T.parameter(rng.standard_normal((4, 2)))
    params = [p for _, p in fwd.parameters()] + [p for _, p in bwd.parameters()] + [seq]
    check_grad(lambda: T.tsum(one_sequence(L.blstm_forward, fwd, bwd, seq)), params, 1e-4)


def test_blstm_every_step_sees_whole_sequence():
    rng = np.random.default_rng(13)
    fwd = L.LstmLayer.init(2, 3, rng)
    bwd = L.LstmLayer.init(2, 3, rng)
    base = rng.standard_normal((5, 2))
    ref = one_sequence(L.blstm_forward, fwd, bwd, T.Tensor(base)).data
    for t in range(5):
        bumped = base.copy()
        bumped[t] += 0.5
        out = one_sequence(L.blstm_forward, fwd, bwd, T.Tensor(bumped)).data
        for s in range(5):
            assert not np.array_equal(out[s], ref[s]), f"step {s} ignored input step {t}"


# -- batchnorm ---------------------------------------------------------------------


def test_batchnorm_train_normalizes():
    rng = np.random.default_rng(14)
    bn = L.BatchNorm(4)
    x = T.Tensor(rng.standard_normal((16, 4)) * 3 + 1)
    out = L.batchnorm_forward(bn, x, "train")
    assert np.all(np.abs(out.data.mean(axis=0)) < 1e-10)
    assert np.all(np.abs(out.data.var(axis=0) - 1.0) < 1e-4)


def test_batchnorm_eval_uses_running_stats():
    bn = L.BatchNorm(3)
    bn.running_mean = np.array([5.0, 5.0, 5.0])
    out = L.batchnorm_forward(bn, T.Tensor(np.full((2, 3), 5.0)), "eval")
    assert np.allclose(out.data, 0.0, atol=1e-12)


def test_batchnorm_train_needs_batch():
    with pytest.raises(UsageError):
        L.batchnorm_forward(L.BatchNorm(3), T.Tensor(np.zeros((1, 3))), "train")


def test_batchnorm_gradients_train_mode():
    rng = np.random.default_rng(15)
    bn = L.BatchNorm(4)
    bn.scale.data[:] = rng.random(4) + 0.5
    bn.shift.data[:] = rng.standard_normal(4)
    x = T.parameter(rng.standard_normal((8, 4)))
    g = T.Tensor(rng.standard_normal((8, 4)))

    def loss():
        fresh = L.BatchNorm(4)
        fresh.scale, fresh.shift = bn.scale, bn.shift
        return T.tsum(fresh.forward(x, "train") * g)

    check_grad(loss, [x, bn.scale, bn.shift], 1e-5)


def test_batchnorm_running_stats_update():
    assert L.BatchNorm.MOMENTUM == 0.1
    bn = L.BatchNorm(2)
    x = np.array([[2.0, 0.0], [4.0, 0.0]])
    L.batchnorm_forward(bn, T.Tensor(x), "train")
    assert np.allclose(bn.running_mean, [0.3, 0.0])
    assert np.allclose(bn.running_var, [1.0, 0.9])


# -- dropout -------------------------------------------------------------------------


def test_dropout_rate_zero_identity():
    x = T.Tensor(np.random.default_rng(16).random((3, 3)))
    for mode in ("train", "eval"):
        assert np.array_equal(L.dropout(x, 0.0, mode, np.random.default_rng(0)).data, x.data)


def test_dropout_eval_is_same_object():
    x = T.Tensor(np.ones((2, 2)))
    assert L.dropout(x, 0.5, "eval", np.random.default_rng(0)) is x


def test_dropout_statistics():
    rng = np.random.default_rng(17)
    x = T.Tensor(np.ones(1_000_000))
    out = L.dropout(x, 0.5, "train", rng)
    survivors = np.count_nonzero(out.data) / x.size
    assert abs(survivors - 0.5) < 0.01
    assert abs(out.data.mean() - 1.0) < 0.01


def test_dropout_rate_validation():
    with pytest.raises(ConfigError):
        L.dropout(T.Tensor(np.ones(3)), 1.0, "train", np.random.default_rng(0))


# -- maxpool -------------------------------------------------------------------------


def test_maxpool_constant():
    out = T.drop_batch_axis(L.maxpool2d(T.add_batch_axis(T.Tensor(np.full((4, 4, 2), 7.0)))))
    assert out.shape == (2, 2, 2)
    assert np.all(out.data == 7.0)


def test_maxpool_hand_case():
    out = L.maxpool2d(T.add_batch_axis(T.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1))))
    assert out.data.reshape(-1).tolist() == [4.0]


def test_maxpool_odd_dims_error():
    with pytest.raises(ShapeError):
        L.maxpool2d(T.add_batch_axis(T.Tensor(np.zeros((3, 4, 1)))))


def test_maxpool_gradients():
    rng = np.random.default_rng(18)
    x = T.parameter(rng.standard_normal((8, 8, 3)))
    g = T.Tensor(rng.standard_normal((4, 4, 3)))
    check_grad(lambda: T.tsum(T.drop_batch_axis(L.maxpool2d(T.add_batch_axis(x))) * g), [x], 1e-6)


# -- backbone -------------------------------------------------------------------------


@given(st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=10, deadline=None)
def test_backbone_output_shape_property(n_stages, scale):
    widths = tuple(2 * (i + 1) for i in range(n_stages))
    backbone = L.ConvBackbone.init(3, widths, np.random.default_rng(19))
    extent = (2**n_stages) * scale
    x = T.Tensor(np.random.default_rng(20).random((extent, extent, 3)))
    out = T.drop_batch_axis(backbone.forward(T.add_batch_axis(x)))
    assert out.shape == (scale, scale, widths[-1])


def test_backbone_gradients_flow_to_all_stages():
    rng = np.random.default_rng(22)
    backbone = L.ConvBackbone.init(3, (2, 3), rng)
    x = T.Tensor(rng.random((8, 8, 3)))
    loss = T.tsum(T.drop_batch_axis(backbone.forward(T.add_batch_axis(x))) * T.Tensor(rng.standard_normal((2, 2, 3))))
    params = [p for _, p in backbone.parameters()]
    T.backward(loss, params)
    for name, p in backbone.parameters():
        assert p.grad is not None and np.abs(p.grad).sum() > 0, name
