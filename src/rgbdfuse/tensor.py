"""Dense tensors with reverse-mode automatic differentiation.

Every value flowing through the network is a :class:`Tensor` wrapping a
float64 numpy array. Operations record backward closures on their output;
``backward()`` replays them in reverse topological order, accumulating
gradients into ``.grad`` buffers. A central finite-difference oracle
(:func:`finite_diff_grad`) provides the independent cross-check used by the
test suite and the gradcheck runner.

Spatial data is channel-last (H x W x C); most spatial primitives also accept
an extra leading batch axis so the model can push whole batches through one
graph node instead of one graph per sample.
"""

from __future__ import annotations

import contextlib
import io
import math
import struct
import sys
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, ShapeError, UsageError

_SIG_LO = np.finfo(np.float64).tiny
_SIG_HI = np.nextafter(1.0, 0.0)

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (eval passes, FD probes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A float64 array plus the bookkeeping needed for reverse-mode AD."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    def _grad_buffer(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def _accum(self, g: np.ndarray, owned: bool = False) -> None:
        """Add ``g`` into ``.grad``. The first write copies ``g``, which may be another
        tensor's grad or a read-only broadcast view, unless ``owned`` says the caller
        made ``g`` afresh and holds no other reference to it."""
        if self.requires_grad or self._backward is not None:
            if self.grad is None:
                self.grad = g if owned else np.array(g, dtype=np.float64, order="C")
            else:
                self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self):
        backward(self)

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __neg__(self):
        return mul(self, _lift(-1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def _lift(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def parameter(data, name=None) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(data, requires_grad=True, name=name)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    """Wrap an op result, attaching the backward closure when recording."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad or p._backward is not None for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient contributions over axes that numpy broadcast."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- elementwise arithmetic ---------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        a._accum(_unbroadcast(g, a.shape))
        b._accum(_unbroadcast(g, b.shape))

    return _node(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        a._accum(_unbroadcast(g, a.shape))
        b._accum(_unbroadcast(-g, b.shape))

    return _node(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        a._accum(_unbroadcast(g * b.data, a.shape))
        b._accum(_unbroadcast(g * a.data, b.shape))

    return _node(a.data * b.data, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        a._accum(_unbroadcast(g / b.data, a.shape))
        b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _node(a.data / b.data, (a, b), bwd)


def exp(x: Tensor) -> Tensor:
    y = np.exp(x.data)

    def bwd(g):
        x._accum(g * y)

    return _node(y, (x,), bwd)


def sqrt(x: Tensor) -> Tensor:
    y = np.sqrt(x.data)

    def bwd(g):
        x._accum(g * 0.5 / y)

    return _node(y, (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def bwd(g):
        x._accum(g * (1.0 - y * y))

    return _node(y, (x,), bwd)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic; output clamped to the open interval (0, 1)."""
    d = x.data
    y = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))), np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
    y = np.clip(y, _SIG_LO, _SIG_HI)

    def bwd(g):
        x._accum(g * y * (1.0 - y))

    return _node(y, (x,), bwd)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def bwd(g):
        x._accum(g * mask, owned=True)

    return _node(np.where(mask, x.data, 0.0), (x,), bwd)


def softmax(x: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by max subtraction."""
    if x.shape[-1] < 1:
        raise ShapeError("softmax requires last axis length >= 1")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)
    s = np.maximum(s, _SIG_LO)

    def bwd(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        x._accum(s * (g - inner))

    return _node(s, (x,), bwd)


def activation(x: Tensor, kind: str) -> Tensor:
    """Dispatch by name: sigmoid, relu, or softmax over the last axis."""
    if kind == "sigmoid":
        return sigmoid(x)
    if kind == "relu":
        return relu(x)
    if kind in ("softmax", "softmax-lastaxis"):
        return softmax(x)
    raise ConfigError(f"unknown activation kind {kind!r}")


# -- reductions and shape ops --------------------------------------------


def tsum(x: Tensor, axis=None, keepdims=False) -> Tensor:
    def bwd(g):
        if axis is None or keepdims:
            x._accum(np.broadcast_to(g, x.shape))
        else:
            x._accum(np.broadcast_to(np.expand_dims(g, axis), x.shape))

    return _node(x.data.sum(axis=axis, keepdims=keepdims), (x,), bwd)


def tmean(x: Tensor, axis=None, keepdims=False) -> Tensor:
    if axis is None:
        count = x.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([x.shape[a] for a in axes]))
    return mul(tsum(x, axis=axis, keepdims=keepdims), _lift(1.0 / count))


def reshape(x: Tensor, *shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])

    def bwd(g):
        x._accum(g.reshape(x.shape))

    return _node(x.data.reshape(shape), (x,), bwd)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        x._accum(g.transpose(inverse))

    return _node(x.data.transpose(axes), (x,), bwd)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            t._accum(g[tuple(index)])

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tensors, bwd)


def stack0(tensors: Sequence[Tensor]) -> Tensor:
    """Stack equal-shaped tensors along a new leading axis."""
    return concat([reshape(t, (1,) + t.shape) for t in tensors], axis=0)


def index_axis0(x: Tensor, i: int) -> Tensor:
    def bwd(g):
        if x.requires_grad or x._backward is not None:
            x._grad_buffer()[i] += g

    return _node(x.data[i], (x,), bwd)


def flip_axis0(x: Tensor) -> Tensor:
    def bwd(g):
        x._accum(g[::-1])

    return _node(np.ascontiguousarray(x.data[::-1]), (x,), bwd)


# -- linear algebra and convolution ---------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a [n x k] by b [k x m]."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul expects [n x k] by [k x m], got {a.shape} by {b.shape}")

    def bwd(g):
        a._accum(g @ b.data.T, owned=True)
        b._accum(a.data.T @ g, owned=True)

    return _node(a.data @ b.data, (a, b), bwd)


def _conv_geometry(extent: int, k: int, padding: str, stride: int) -> tuple[int, int, int]:
    """Return (out_extent, pad_before, pad_after) for one spatial axis."""
    if padding == "valid":
        out = (extent - k) // stride + 1
        return out, 0, 0
    if padding == "same":
        out = -(-extent // stride)
        total = max((out - 1) * stride + k - extent, 0)
        return out, total // 2, total - total // 2
    raise ConfigError(f"padding must be 'same' or 'valid', got {padding!r}")


# Elements per block of im2col rows in conv2d: a block lives in a scratch buffer that stays
# in L2 cache while the GEMM reads it, instead of a cold full-size array. On the desk stages
# at B=20, 2^16 ran the stage-0 forward fastest (2^15 took 1.4x as long); 2^14 to 2^17 were
# within noise on a whole step.
CONV_BLOCK = 1 << 16


def _conv_blocks(b: int, hout: int, wout: int, width: int) -> list[tuple[int, int, int, int]]:
    """Split a conv's [B x H' x W'] output positions into blocks of ``width`` elements each.

    A block is several whole images when one image fits in CONV_BLOCK elements, else a
    band of output rows within one image. Returns (i0, i1, r0, r1): images i0:i1, rows r0:r1.
    """
    rows = max(1, CONV_BLOCK // (wout * width))
    if rows >= hout:
        step = rows // hout
        return [(i, min(i + step, b), 0, hout) for i in range(0, b, step)]
    return [(i, i + 1, r, min(r + rows, hout)) for i in range(b) for r in range(0, hout, rows)]


def _im2col_blocks(xp: np.ndarray, kh: int, kw: int, stride: int):
    """Yield (first output position, [n x kh*kw*Cin] block of the im2col matrix) of the
    padded input ``xp`` [B x H x W x Cin], every block copied into one scratch buffer."""
    b, hp, wp, cin = xp.shape
    hout, wout, k = (hp - kh) // stride + 1, (wp - kw) // stride + 1, kh * kw * cin
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)
    blocks = _conv_blocks(b, hout, wout, k)
    scratch = np.empty(max((i1 - i0) * (r1 - r0) for i0, i1, r0, r1 in blocks) * wout * k)
    for i0, i1, r0, r1 in blocks:
        src = win[i0:i1, r0:r1]
        dst = scratch[: src.size].reshape(src.shape)
        np.copyto(dst, src)
        yield (i0 * hout + r0) * wout, dst.reshape(-1, k)


def _correlate(xp: np.ndarray, w2: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Valid cross-correlation of ``xp`` [B x H x W x Cin] with ``w2`` [kh*kw*Cin x Cout],
    one GEMM per im2col block into its rows of the output."""
    b, hp, wp, _ = xp.shape
    out = np.empty((b, (hp - kh) // stride + 1, (wp - kw) // stride + 1, w2.shape[1]))
    out2 = out.reshape(-1, w2.shape[1])
    for lo, cols in _im2col_blocks(xp, kh, kw, stride):
        np.matmul(cols, w2, out=out2[lo : lo + len(cols)])
    return out


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, padding: str = "same", stride: int = 1) -> Tensor:
    """2-D cross-correlation plus per-channel bias.

    ``x`` is [H x W x Cin] or [B x H x W x Cin]; ``kernels`` is
    [kh x kw x Cin x Cout]; ``bias`` is [Cout]. Output spatial extent is
    floor((padded - k) / stride) + 1.

    The im2col matrix is never built whole. Blocks of its rows are copied into
    one cache-sized scratch buffer and multiplied into their rows of the output,
    so each output element is the dot product a one-shot GEMM computes. The
    graph keeps only the padded input; backward copies the blocks again.
    """
    if not isinstance(stride, int) or stride <= 0:
        raise ConfigError(f"stride must be a positive integer, got {stride!r}")
    if kernels.ndim != 4:
        raise ShapeError(f"kernels must be [kh x kw x Cin x Cout], got {kernels.shape}")
    batched = x.ndim == 4
    if not batched and x.ndim != 3:
        raise ShapeError(f"conv2d input must be rank 3 or 4, got {x.shape}")
    kh, kw, cin, cout = kernels.shape
    h, w, cx = x.shape[-3:]
    if cx != cin:
        raise ShapeError(f"input channels {cx} do not match kernel channels {cin}")
    if bias.shape != (cout,):
        raise ShapeError(f"bias must be [{cout}], got {bias.shape}")

    hout, pt, pb = _conv_geometry(h, kh, padding, stride)
    wout, pl, pr = _conv_geometry(w, kw, padding, stride)
    if kh > h + pt + pb or kw > w + pl + pr or hout < 1 or wout < 1:
        raise ConfigError(f"kernel {kh}x{kw} exceeds padded input {h + pt + pb}x{w + pl + pr}")

    x4 = x.data if batched else x.data[None]
    xp = np.pad(x4, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    out = _correlate(xp, kernels.data.reshape(-1, cout), kh, kw, stride)
    out += bias.data

    def bwd(g):
        g4 = g if batched else g[None]
        g2 = g4.reshape(-1, cout)
        if kernels.requires_grad or kernels._backward is not None:
            gk = sum(cols.T @ g2[lo : lo + len(cols)] for lo, cols in _im2col_blocks(xp, kh, kw, stride))
            kernels._accum(gk.reshape(kernels.shape), owned=True)
        if bias.requires_grad or bias._backward is not None:
            bias._accum(np.ones(len(g2)) @ g2, owned=True)  # a GEMV: faster than the row-by-row g2.sum(axis=0)
        if x.requires_grad or x._backward is not None:
            # the input gradient is a stride-1 correlation of g, spread out by the stride and
            # zero-padded by the kernel extent, with the kernel flipped and its channel axes swapped
            gp = np.zeros((g4.shape[0], xp.shape[1] + kh - 1, xp.shape[2] + kw - 1, cout))
            gp[:, kh - 1 :: stride, kw - 1 :: stride][:, :hout, :wout] = g4
            flipped = kernels.data[::-1, ::-1].transpose(0, 1, 3, 2).reshape(-1, cin)
            gx = _correlate(gp[:, pt : pt + h + kh - 1, pl : pl + w + kw - 1], flipped, kh, kw, 1)
            x._accum(gx if batched else gx[0], owned=True)

    return _node(out if batched else out[0], (x, kernels, bias), bwd)


def channel_concat(a: Tensor, b: Tensor) -> Tensor:
    """Stack two feature volumes along the channel (last) axis."""
    if a.ndim != b.ndim or a.ndim not in (3, 4):
        raise ShapeError(f"channel_concat expects two rank-3 or rank-4 volumes, got {a.shape} and {b.shape}")
    if a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(f"spatial shapes differ: {a.shape} vs {b.shape}")
    return concat([a, b], axis=a.ndim - 1)


def broadcast_mul_channel(f: Tensor, w: Tensor) -> Tensor:
    """Scale each feature map: out[..., i, j, c] = f[..., i, j, c] * w[..., c].

    ``w`` is [C] for a single volume, or [B x C] against a batched ``f``.
    """
    c = f.shape[-1]
    if w.shape[-1] != c:
        raise ShapeError(f"weight length {w.shape[-1]} does not match channel count {c}")
    if w.ndim == 1:
        wb = w.data
        reduce_axes = tuple(range(f.ndim - 1))
    elif w.ndim == 2 and f.ndim == 4 and w.shape[0] == f.shape[0]:
        wb = w.data[:, None, None, :]
        reduce_axes = (1, 2)
    else:
        raise ShapeError(f"weights {w.shape} incompatible with volume {f.shape}")

    def bwd(g):
        f._accum(g * wb)
        w._accum((g * f.data).sum(axis=reduce_axes))

    return _node(f.data * wb, (f, w), bwd)


def broadcast_mul_spatial(f: Tensor, w: Tensor) -> Tensor:
    """Scale each spatial position: out[..., i, j, c] = f[..., i, j, c] * w[..., i, j]."""
    if w.shape != f.shape[:-1]:
        raise ShapeError(f"spatial weights {w.shape} do not match volume {f.shape}")
    wb = w.data[..., None]

    def bwd(g):
        f._accum(g * wb)
        w._accum((g * f.data).sum(axis=-1))

    return _node(f.data * wb, (f, w), bwd)


def channel_pool(f: Tensor, mode: str) -> Tensor:
    """Collapse the channel axis to 1 by mean or max.

    Max routes its gradient to the first argmax in channel order, so the
    backward pass is deterministic under ties.
    """
    if f.ndim not in (3, 4) or f.shape[-1] < 1:
        raise ShapeError(f"channel_pool expects a feature volume with C >= 1, got {f.shape}")
    if mode == "avg":
        c = f.shape[-1]

        def bwd(g):
            f._accum(np.broadcast_to(g / c, f.shape))

        return _node(f.data.mean(axis=-1, keepdims=True), (f,), bwd)
    if mode == "max":
        idx = f.data.argmax(axis=-1)[..., None]

        def bwd(g):
            buf = np.zeros_like(f.data)
            np.put_along_axis(buf, idx, g, axis=-1)
            f._accum(buf)

        return _node(np.take_along_axis(f.data, idx, axis=-1), (f,), bwd)
    raise ConfigError(f"channel_pool mode must be 'avg' or 'max', got {mode!r}")


def maxpool2x2(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 spatial max over [.. x H x W x C]; H and W must be even.

    The gradient of each window goes to its first maximum in row-major
    (di, dj) order, so the backward pass is deterministic under ties.
    """
    if x.ndim not in (3, 4):
        raise ShapeError(f"maxpool expects rank 3 or 4, got {x.shape}")
    h, w, c = x.shape[-3:]
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool needs even spatial dims, got {h}x{w}")
    offsets = ((0, 0), (0, 1), (1, 0), (1, 1))
    taps = [x.data[..., di::2, dj::2, :] for di, dj in offsets]
    out = np.maximum(taps[0], taps[1])
    np.maximum(out, taps[2], out=out)
    np.maximum(out, taps[3], out=out)

    def bwd(g):
        gx = np.empty_like(x.data)
        free = np.ones(out.shape, dtype=bool)  # windows whose maximum is not yet taken
        for (di, dj), tap in zip(offsets, taps):
            hit = np.equal(tap, out)
            hit &= free
            free ^= hit
            np.multiply(g, hit, out=gx[..., di::2, dj::2, :])
        x._accum(gx, owned=True)

    return _node(out, (x,), bwd)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax(logits).

    Fused with log-sum-exp for stability; gradient is (softmax - onehot) / B.
    """
    if logits.ndim != 2:
        raise ShapeError(f"logits must be [B x N], got {logits.shape}")
    lab = np.asarray(labels)
    n_batch, n_cls = logits.shape
    if lab.shape != (n_batch,):
        raise ShapeError(f"expected {n_batch} labels, got shape {lab.shape}")
    for i, v in enumerate(lab):
        if not 0 <= int(v) < n_cls:
            raise DataError(f"label {int(v)} out of range [0, {n_cls}) at sample {i}")
    lab = lab.astype(np.int64)

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    nll = -(z[np.arange(n_batch), lab] - np.log(e.sum(axis=1)))
    loss = nll.mean()

    def bwd(g):
        gl = p.copy()
        gl[np.arange(n_batch), lab] -= 1.0
        logits._accum(gl * (g / n_batch))

    return _node(np.asarray(loss), (logits,), bwd)


# -- backward pass ---------------------------------------------------------


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order over the recorded graph (graphs can be 10^4 deep)."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and (p._backward is not None or p.requires_grad):
                stack.append((p, False))
    return order


def backward(loss: Tensor, params: Iterable[Tensor] = ()) -> dict[Tensor, np.ndarray]:
    """Reverse-mode sweep from a scalar loss.

    Accumulates into ``.grad`` of every reachable tensor that requires grad;
    any tensor in ``params`` left unreached receives a zero gradient. Returns
    a map from parameter tensor to its gradient array.
    """
    if loss.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    loss._grad_buffer()
    loss.grad += np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    out: dict[Tensor, np.ndarray] = {}
    for p in params:
        out[p] = p._grad_buffer()
    return out


def finite_diff_grad(f, x: Tensor, h: float = 1e-5) -> Tensor:
    """Central-difference gradient of a scalar-valued function at ``x``.

    ``f`` must be deterministic (dropout off, batchnorm statistics frozen).
    """

    def evaluate() -> float:
        with no_grad():
            y = f(x)
        return y.item() if isinstance(y, Tensor) else float(y)

    if not x.data.flags["C_CONTIGUOUS"]:
        x.data = np.ascontiguousarray(x.data)
    flat = x.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = evaluate()
        flat[i] = orig - h
        lo = evaluate()
        flat[i] = orig
        grad[i] = (hi - lo) / (2.0 * h)
    return Tensor(grad.reshape(x.shape))


# -- serialization ---------------------------------------------------------

_MAGIC = b"FTNS"


def write_tensor(stream, t: Tensor) -> None:
    """Binary layout: magic 'FTNS', u8 rank, u64 dims, raw little-endian float64."""
    stream.write(_MAGIC)
    stream.write(struct.pack("<B", t.ndim))
    for d in t.shape:
        stream.write(struct.pack("<Q", d))
    stream.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def read_tensor_header(stream) -> tuple[int, ...]:
    """Read a record's magic and dims; its data must fit in what is left of the stream."""
    head = stream.read(5)
    if len(head) < 5 or head[:4] != _MAGIC:
        raise DataError("not a tensor record: bad magic")
    dims = []
    for _ in range(head[4]):
        raw = stream.read(8)
        if len(raw) < 8:
            raise DataError("truncated tensor record: missing dims")
        dims.append(struct.unpack("<Q", raw)[0])
    pos = stream.tell()
    need, left = 8 * math.prod(dims), stream.seek(0, io.SEEK_END) - pos
    stream.seek(pos)
    if need > left:
        raise DataError(f"truncated tensor record: dims {dims} need {need} bytes, {left} bytes left")
    return tuple(dims)


def read_tensor_into(stream, out: np.ndarray) -> None:
    """Read a record's data straight into ``out``, a C-contiguous float64 array of the header's shape."""
    if stream.readinto(memoryview(out).cast("B")) != out.nbytes:
        raise DataError("truncated tensor record: missing data")
    if sys.byteorder == "big":
        out.byteswap(inplace=True)


def read_tensor(stream) -> Tensor:
    out = np.empty(read_tensor_header(stream))
    read_tensor_into(stream, out)
    return Tensor(out)


def save_tensor(path, t: Tensor) -> None:
    with open(path, "wb") as fh:
        write_tensor(fh, t)


def load_tensor(path) -> Tensor:
    with open(path, "rb") as fh:
        return read_tensor(fh)
