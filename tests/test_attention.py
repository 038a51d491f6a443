"""Feature-map and spatial attention: analytic fixtures, gradients, variants."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgbdfuse import attention as A
from rgbdfuse import layers as L
from rgbdfuse import tensor as T
from rgbdfuse.errors import ConfigError, ShapeError
from tests.test_tensor import check_grad


def zero_params(module):
    for _, p in module.parameters():
        p.data[:] = 0.0


def fm_init(channels, m, seed=0, **kw):
    return A.FeatureMapAttention.init(channels, m, np.random.default_rng(seed), **kw)


def sp_init(m, seed=0, **kw):
    return A.SpatialAttention.init(m, np.random.default_rng(seed), **kw)


def single(level, *modules_and_volume):
    """``level`` run on one volume [M x M x C] as a batch of one; each output drops the batch axis."""
    *modules, f = modules_and_volume
    outputs = [T.drop_batch_axis(t) for t in level(*modules, T.add_batch_axis(f))]
    return A.TwoLevelResult(*outputs) if level is A.two_level_attention else tuple(outputs)


def single_map_sequence(f):
    """``reshape_to_map_sequence`` of one volume [M x M x C]: [C x M^2]."""
    return T.drop_batch_axis(A.reshape_to_map_sequence(T.add_batch_axis(f)), 1)


# -- reshape_to_map_sequence ----------------------------------------------------


def test_map_sequence_paper_shape():
    f = T.Tensor(np.zeros((7, 7, 1024)))
    assert single_map_sequence(f).shape == (1024, 49)


def test_map_sequence_degenerate_spatial():
    f = T.Tensor(np.arange(5.0).reshape(1, 1, 5))
    out = single_map_sequence(f)
    assert out.shape == (5, 1)
    assert np.array_equal(out.data.reshape(-1), f.data.reshape(-1))


def test_map_sequence_index_placement_brute_force():
    m, c = 2, 2
    f = np.arange(float(m * m * c)).reshape(m, m, c)
    out = single_map_sequence(T.Tensor(f)).data
    for ch in range(c):
        for i in range(m):
            for j in range(m):
                assert out[ch, i * m + j] == f[i, j, ch]


def test_map_sequence_batched_orientation():
    rng = np.random.default_rng(1)
    f = rng.random((3, 2, 2, 4))
    out = A.reshape_to_map_sequence(T.Tensor(f)).data
    assert out.shape == (4, 3, 4)
    for b in range(3):
        one = single_map_sequence(T.Tensor(f[b])).data
        assert np.array_equal(out[:, b, :], one)


# -- feature-map attention ---------------------------------------------------------


def test_fm_zero_parameters_gives_half_weights():
    att = fm_init(4, 2)
    zero_params(att)
    f = T.Tensor(np.random.default_rng(2).random((2, 2, 4)))
    weights, refined = single(A.feature_map_attention, att, f)
    assert np.array_equal(weights.data, np.full(4, 0.5))
    assert np.array_equal(refined.data, 0.5 * f.data)


def test_fm_bypass_is_exact_identity():
    att = fm_init(4, 2)
    att.bypass = True
    f = T.Tensor(np.random.default_rng(3).random((2, 2, 4)))
    weights, refined = single(A.feature_map_attention, att, f)
    assert np.array_equal(weights.data, np.ones(4))
    assert np.array_equal(refined.data, f.data)


def test_fm_weights_strictly_in_unit_interval():
    att = fm_init(4, 2, seed=4)
    f = T.Tensor(np.random.default_rng(5).standard_normal((2, 2, 4)) * 50)
    weights, _ = single(A.feature_map_attention, att, f)
    assert np.all(weights.data > 0.0) and np.all(weights.data < 1.0)


@pytest.mark.parametrize(
    "kw",
    [
        {},
        {"variant": "dense_only"},
        {"n_layers": 2},
        {"n_layers": 3},
        {"blstm": True},
    ],
)
def test_fm_variants_shapes_and_gradients(kw):
    att = fm_init(4, 2, seed=6, hidden=5, **kw)
    rng = np.random.default_rng(7)
    f = T.parameter(rng.standard_normal((2, 2, 4)))
    g = T.Tensor(rng.standard_normal((2, 2, 4)))

    weights, refined = single(A.feature_map_attention, att, f)
    assert weights.shape == (4,)
    assert refined.shape == f.shape

    params = [p for _, p in att.parameters()] + [f]

    def loss():
        _, out = single(A.feature_map_attention, att, f)
        return T.tsum(out * g)

    check_grad(loss, params, 1e-4)


def test_fm_gradients_reach_every_parameter():
    att = fm_init(6, 2, seed=8, hidden=4)
    rng = np.random.default_rng(9)
    f = T.Tensor(rng.standard_normal((3, 2, 2, 6)))
    _, refined = A.feature_map_attention(att, f)
    params = [p for _, p in att.parameters()]
    T.backward(T.tsum(refined * T.Tensor(rng.standard_normal(refined.shape))), params)
    for name, p in att.parameters():
        assert p.grad is not None and np.abs(p.grad).sum() > 0, name


def test_fm_channel_mismatch_is_config_error():
    att = fm_init(4, 2)
    with pytest.raises(ConfigError):
        single(A.feature_map_attention, att, T.Tensor(np.zeros((2, 2, 5))))
    with pytest.raises(ConfigError):
        single(A.feature_map_attention, att, T.Tensor(np.zeros((3, 3, 4))))


def test_fm_dense_only_is_permutation_equivariant():
    att = fm_init(5, 2, seed=10, variant="dense_only")
    rng = np.random.default_rng(11)
    f = rng.standard_normal((2, 2, 5))
    w_base, _ = single(A.feature_map_attention, att, T.Tensor(f))
    perm = rng.permutation(5)
    w_perm, _ = single(A.feature_map_attention, att, T.Tensor(f[..., perm]))
    assert np.allclose(w_perm.data, w_base.data[perm], atol=1e-14)


def test_fm_batched_matches_per_sample():
    att = fm_init(4, 2, seed=12, hidden=3)
    rng = np.random.default_rng(13)
    f = rng.standard_normal((3, 2, 2, 4))
    weights, refined = A.feature_map_attention(att, T.Tensor(f))
    assert weights.shape == (3, 4)
    for b in range(3):
        w1, r1 = single(A.feature_map_attention, att, T.Tensor(f[b]))
        assert np.allclose(weights.data[b], w1.data, atol=1e-15)
        assert np.allclose(refined.data[b], r1.data, atol=1e-15)


def test_fm_init_validation():
    rng = np.random.default_rng(16)
    with pytest.raises(ConfigError):
        A.FeatureMapAttention.init(4, 2, rng, variant="cbam")


# -- spatial attention ----------------------------------------------------------------


def test_spatial_zero_parameters_gives_half_weights():
    att = sp_init(3)
    zero_params(att)
    f = T.Tensor(np.random.default_rng(17).random((3, 3, 5)))
    weights, refined = single(A.spatial_attention, att, f)
    assert np.array_equal(weights.data, np.full((3, 3), 0.5))
    assert np.array_equal(refined.data, 0.5 * f.data)


def test_spatial_constant_volume_gives_uniform_weights():
    att = sp_init(3, seed=18)
    f = T.Tensor(np.full((3, 3, 4), 2.5))
    weights, _ = single(A.spatial_attention, att, f)
    assert np.allclose(weights.data, weights.data[0, 0], atol=1e-15)


@pytest.mark.parametrize("variant", ["conv", "dense"])
def test_spatial_gradients(variant):
    att = sp_init(3, seed=19, variant=variant)
    rng = np.random.default_rng(20)
    f = T.parameter(rng.standard_normal((3, 3, 4)))
    g = T.Tensor(rng.standard_normal((3, 3, 4)))
    params = [p for _, p in att.parameters()] + [f]

    def loss():
        _, out = single(A.spatial_attention, att, f)
        return T.tsum(out * g)

    check_grad(loss, params, 1e-4)


def test_spatial_dense_extent_mismatch():
    att = sp_init(3, variant="dense")
    with pytest.raises(ConfigError):
        single(A.spatial_attention, att, T.Tensor(np.zeros((4, 4, 2))))


def test_spatial_bypass_identity():
    att = sp_init(3)
    att.bypass = True
    f = T.Tensor(np.random.default_rng(21).random((3, 3, 2)))
    weights, refined = single(A.spatial_attention, att, f)
    assert np.array_equal(weights.data, np.ones((3, 3)))
    assert np.array_equal(refined.data, f.data)


@pytest.mark.parametrize("b, m, c", [(1, 1, 3), (2, 4, 5), (20, 7, 64)])
def test_spatial_conv_matches_its_conv2d_reference(b, m, c):
    """The ``conv`` variant's matmul is the 1x1 ``conv2d`` it replaces: weights, volume and
    kernel gradients bit for bit. The bias gradient sums the same N = B M^2 terms in another
    order, so it agrees within 2 N eps sum|term|, the worst case for two orders of N terms."""
    rng = np.random.default_rng(31)
    att = sp_init(m, seed=32)
    att.bias.data[:] = rng.standard_normal(1)
    volume = rng.standard_normal((b, m, m, c))
    g = rng.standard_normal((b, m, m))

    def reference(f):
        pooled = T.channel_concat(T.channel_pool(f, "avg"), T.channel_pool(f, "max"))
        return T.reshape(T.sigmoid(T.conv2d(pooled, att.weights, att.bias)), (b, m, m))

    grads = []
    for gate in (lambda f: A.spatial_attention(att, f)[0], reference):
        f = T.parameter(volume)
        params = [f, att.weights, att.bias]
        weights = gate(f)
        T.backward(T.tsum(weights * T.Tensor(g)), params)
        grads.append([weights.data] + [p.grad.copy() for p in params])
        for p in params:
            p.zero_grad()
    (w, gf, gk, gb), (w_ref, gf_ref, gk_ref, gb_ref) = grads
    assert np.array_equal(w, w_ref)
    assert np.array_equal(gf, gf_ref)
    assert np.array_equal(gk, gk_ref)
    terms = g * w * (1.0 - w)  # each position's share of the bias gradient
    assert gb.shape == gb_ref.shape == (1,)
    assert abs(gb[0] - gb_ref[0]) <= 2 * terms.size * np.finfo(float).eps * np.abs(terms).sum()


def test_a_two_level_train_step_runs_without_conv2d(monkeypatch):
    from rgbdfuse.model import ModelConfig, build_model

    def refuse(*args):
        raise AssertionError("conv2d is a reference for tests, not on the model's path")

    monkeypatch.setattr(T, "conv2d", refuse)
    cfg = ModelConfig(input_size=16, backbone_widths=(2, 3), classifier_widths=(8, 6, 4), lstm_hidden=4, classes=3)
    model = build_model(cfg)
    assert cfg.fusion == "two_level" and cfg.spatial_variant == "conv"
    rng = np.random.default_rng(33)
    logits = model.forward(T.Tensor(rng.random((4, 16, 16, 3))), T.Tensor(rng.random((4, 16, 16, 1))), "train")
    params = [p for _, p in model.parameters()]
    T.backward(T.cross_entropy(logits, np.arange(4) % 3), params)
    assert all(p.grad is not None and np.isfinite(p.grad).all() for p in params)


# -- composition ------------------------------------------------------------------------


def test_two_level_bypass_is_identity():
    fm = fm_init(4, 2)
    sp = sp_init(2)
    fm.bypass = sp.bypass = True
    f = T.Tensor(np.random.default_rng(22).random((2, 2, 4)))
    result = single(A.two_level_attention, fm, sp, f)
    assert np.array_equal(result.refined.data, f.data)


def test_two_level_zero_parameters_quarter_scaling():
    fm = fm_init(4, 2)
    sp = sp_init(2)
    zero_params(fm)
    zero_params(sp)
    f = T.Tensor(np.random.default_rng(23).random((2, 2, 4)))
    result = single(A.two_level_attention, fm, sp, f)
    assert np.array_equal(result.refined.data, 0.25 * f.data)


def test_two_level_paper_scale_shapes():
    fm = fm_init(1024, 7, seed=24, hidden=8)
    sp = sp_init(7, seed=25)
    f = T.Tensor(np.random.default_rng(26).random((7, 7, 1024)))
    with T.no_grad():
        result = single(A.two_level_attention, fm, sp, f)
    assert result.fm_weights.shape == (1024,)
    assert result.spatial_weights.shape == (7, 7)
    assert result.refined.shape == (7, 7, 1024)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_two_level_weights_in_unit_interval_and_shape_preserved(seed):
    rng = np.random.default_rng(seed)
    fm = A.FeatureMapAttention.init(6, 2, rng, hidden=4)
    sp = A.SpatialAttention.init(2, rng)
    f = T.Tensor(rng.standard_normal((2, 2, 6)) * 10)
    result = single(A.two_level_attention, fm, sp, f)
    assert result.refined.shape == f.shape
    for w in (result.fm_weights, result.spatial_weights):
        assert np.all(w.data > 0.0) and np.all(w.data < 1.0)


# -- weight dump --------------------------------------------------------------------------


def test_write_weights_csv_format():
    buf = io.StringIO()
    A.write_weights_csv(buf, ["s0", "s1"], T.Tensor([[0.25, 0.5], [0.125, 1.0]]))
    assert buf.getvalue().splitlines() == ["s0,0,0.25", "s0,1,0.5", "s1,0,0.125", "s1,1,1"]


# -- batches only -------------------------------------------------------------------------


def _volume(*shape):
    return T.Tensor(np.random.default_rng(27).random(shape))


def _lstm():
    return L.LstmLayer.init(3, 2, np.random.default_rng(0))


_KERNELS = (T.Tensor(np.ones((3, 3, 2, 1))), T.Tensor(np.zeros(1)))

# one unbatched input for each op that takes batches only: a volume [M x M x C], or for the
# LSTMs one sequence [T x in]
UNBATCHED = {
    "conv2d": lambda: T.conv2d(_volume(4, 4, 2), *_KERNELS),
    "conv_pool_relu": lambda: T.conv_pool_relu(_volume(4, 4, 2), *_KERNELS),
    "maxpool2x2": lambda: T.maxpool2x2(_volume(4, 4, 2)),
    "channel_concat": lambda: T.channel_concat(_volume(2, 2, 1), _volume(2, 2, 1)),
    "channel_pool_avg": lambda: T.channel_pool(_volume(2, 2, 3), "avg"),
    "channel_pool_max": lambda: T.channel_pool(_volume(2, 2, 3), "max"),
    "broadcast_mul_channel": lambda: T.broadcast_mul_channel(_volume(2, 2, 3), _volume(3)),
    "broadcast_mul_spatial": lambda: T.broadcast_mul_spatial(_volume(2, 2, 3), _volume(2, 2)),
    "lstm_forward": lambda: L.lstm_forward(_lstm(), _volume(5, 3)),
    "blstm_forward": lambda: L.blstm_forward(_lstm(), _lstm(), _volume(5, 3)),
    "reshape_to_map_sequence": lambda: A.reshape_to_map_sequence(_volume(2, 2, 4)),
    "feature_map_attention": lambda: A.feature_map_attention(fm_init(4, 2), _volume(2, 2, 4)),
    "spatial_attention": lambda: A.spatial_attention(sp_init(2), _volume(2, 2, 4)),
    "two_level_attention": lambda: A.two_level_attention(fm_init(4, 2), sp_init(2), _volume(2, 2, 4)),
    "write_weights_csv": lambda: A.write_weights_csv(io.StringIO(), ["s0"], _volume(4)),
}


@pytest.mark.parametrize("op", sorted(UNBATCHED))
def test_every_batch_only_op_rejects_an_unbatched_input(op):
    with pytest.raises(ShapeError):
        UNBATCHED[op]()
