"""Dense tensors with reverse-mode automatic differentiation.

Every value flowing through the network is a :class:`Tensor` wrapping a
float64 numpy array. Operations record backward closures on their output;
``backward()`` replays them in reverse topological order, accumulating
gradients into ``.grad`` buffers. A central finite-difference oracle
(:func:`central_difference`) provides the independent cross-check used by the
test suite and the gradcheck runner.

Spatial data is channel-last with a leading batch axis (B x H x W x C), and
every spatial op takes batches only. A caller holding one sample passes it
through :func:`add_batch_axis` before the op and :func:`drop_batch_axis`
after it, the one batch-of-one boundary.

The module also owns the package's file output: FTNS tensor io,
:func:`atomic_write`, through which every file the package writes goes, and
the output-path checks that turn an unusable ``--out`` into a ConfigError.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import io
import math
import os
import struct
import sys
from pathlib import Path
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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
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

    def _grad_buffer(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def _accum(self, g: np.ndarray, owned: bool = False) -> None:
        """Add ``g`` into ``.grad``. The first write copies ``g``, which may be another
        tensor's grad or a read-only broadcast view, unless ``owned`` says the caller
        made ``g`` afresh and holds no other reference to it."""
        if self.requires_grad:
            if self.grad is None:
                self.grad = g if owned else np.array(g, dtype=np.float64, order="C")
            else:
                self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __mul__(self, other):
        return mul(self, _lift(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _lift(other))


def _lift(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def parameter(data) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(data, requires_grad=True)


def _records(parents: Sequence[Tensor]) -> bool:
    """Whether an op on ``parents`` records a graph node."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    """Wrap an op result; when recording, set ``requires_grad`` and the backward closure (only here)."""
    out = Tensor(data)
    if _records(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient contributions over the axes numpy broadcast, all in one reduction."""
    lead = g.ndim - len(shape)
    axes = (*range(lead), *(lead + i for i, dim in enumerate(shape) if dim == 1 and g.shape[lead + i] != 1))
    return g.sum(axis=axes).reshape(shape) if axes else g


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
    e = np.exp(-np.abs(x.data))
    y = np.clip(np.where(x.data >= 0, 1.0, e) / (1.0 + e), _SIG_LO, _SIG_HI)

    def bwd(g):
        x._accum(g * y * (1.0 - y))

    return _node(y, (x,), bwd)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def bwd(g):
        x._accum(g * mask, owned=True)

    return _node(np.where(mask, x.data, 0.0), (x,), bwd)


# -- reductions and shape ops --------------------------------------------


def tsum(x: Tensor, axis=None, keepdims=False) -> Tensor:
    def bwd(g):
        if axis is None or keepdims:
            x._accum(np.broadcast_to(g, x.shape))
        else:
            x._accum(np.broadcast_to(np.expand_dims(g, axis), x.shape))

    return _node(x.data.sum(axis=axis, keepdims=keepdims), (x,), bwd)


def tmean(x: Tensor, axis=None) -> Tensor:
    if axis is None:
        count = x.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([x.shape[a] for a in axes]))
    return mul(tsum(x, axis=axis), _lift(1.0 / count))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    def bwd(g):
        x._accum(g.reshape(x.shape))

    return _node(x.data.reshape(shape), (x,), bwd)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        x._accum(g.transpose(inverse))

    return _node(x.data.transpose(axes), (x,), bwd)


def _split(g: np.ndarray, tensors: Sequence[Tensor], axis: int) -> list[np.ndarray]:
    """Views of ``g`` along ``axis``, one per tensor of a concatenation, each as wide as that tensor."""
    return np.split(g, np.cumsum([t.shape[axis] for t in tensors])[:-1], axis=axis)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)

    def bwd(g):
        for t, gt in zip(tensors, _split(g, tensors, axis)):
            t._accum(gt)

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tensors, bwd)


def add_batch_axis(x: Tensor, axis: int = 0) -> Tensor:
    """A single sample ``x`` as a batch of one, the batch axis at ``axis``."""
    return reshape(x, x.shape[:axis] + (1,) + x.shape[axis:])


def drop_batch_axis(x: Tensor, axis: int = 0) -> Tensor:
    """Undo :func:`add_batch_axis`: remove the length-1 batch axis at ``axis``."""
    return reshape(x, x.shape[:axis] + x.shape[axis + 1 :])


def take(x: Tensor, key) -> Tensor:
    """Basic indexing ``x.data[key]`` (an int, a slice or a tuple of them); backward adds into the entries picked."""

    def bwd(g):
        x._grad_buffer()[key] += g

    return _node(x.data[key], (x,), bwd)


# -- linear algebra and convolution ---------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a [n x k] by b [k x m]."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul expects [n x k] by [k x m], got {a.shape} by {b.shape}")

    def bwd(g):
        a._accum(g @ b.data.T, owned=True)
        b._accum(a.data.T @ g, owned=True)

    return _node(a.data @ b.data, (a, b), bwd)


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


def _im2col_blocks(xp: np.ndarray, kh: int, kw: int):
    """Yield ((i0, i1, r0, r1), [n x kh*kw*Cin] block of the im2col matrix) for each block of
    :func:`_conv_blocks` over the padded input ``xp`` [B x H x W x Cin], every block copied
    into one scratch buffer."""
    b, hp, wp, cin = xp.shape
    hout, wout, k = hp - kh + 1, wp - kw + 1, kh * kw * cin
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)
    blocks = _conv_blocks(b, hout, wout, k)
    scratch = np.empty(max((i1 - i0) * (r1 - r0) for i0, i1, r0, r1 in blocks) * wout * k)
    for i0, i1, r0, r1 in blocks:
        src = win[i0:i1, r0:r1]
        dst = scratch[: src.size].reshape(src.shape)
        np.copyto(dst, src)
        yield (i0, i1, r0, r1), dst.reshape(-1, k)


def _correlate_groups(xp: np.ndarray, w2: np.ndarray, kh: int, kw: int, out: np.ndarray):
    """Valid cross-correlation of ``xp`` [B x H x W x Cin] with ``w2`` [kh*kw*Cin x Cout], one
    GEMM per im2col block, yielding (i0, i1, output of images i0:i1) as each group completes.

    A group is one block of whole images or the row bands of one image, so its edges are
    block edges. ``out`` holds the output of all B images, or is a buffer for the largest
    group that every group reuses.
    """
    hout, wout = xp.shape[1] - kh + 1, xp.shape[2] - kw + 1
    whole = len(out) == len(xp)
    for (i0, i1, r0, r1), cols in _im2col_blocks(xp, kh, kw):
        group = out[i0:i1] if whole else out[: i1 - i0]
        np.matmul(cols, w2, out=group.reshape(-1, w2.shape[1])[r0 * wout :][: len(cols)])
        if r1 == hout:
            yield i0, i1, group


def _correlate(xp: np.ndarray, w2: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Valid cross-correlation of ``xp`` [B x H x W x Cin] with ``w2`` [kh*kw*Cin x Cout]."""
    out = np.empty((len(xp), xp.shape[1] - kh + 1, xp.shape[2] - kw + 1, w2.shape[1]))
    for _ in _correlate_groups(xp, w2, kh, kw, out):
        pass
    return out


def _pad_same(a: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Zero-pad [B x H x W x C] for a same-padded kh x kw correlation: (kh-1)//2 rows
    before and the rest of kh-1 after, and likewise for the width."""
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    return np.pad(a, ((0, 0), (pt, kh - 1 - pt), (pl, kw - 1 - pl), (0, 0)))


def _check_conv(x: Tensor, kernels: Tensor, bias: Tensor) -> None:
    if kernels.ndim != 4:
        raise ShapeError(f"kernels must be [kh x kw x Cin x Cout], got {kernels.shape}")
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be [B x H x W x Cin], got {x.shape}")
    kh, kw, cin, cout = kernels.shape
    if x.shape[3] != cin:
        raise ShapeError(f"input channels {x.shape[3]} do not match kernel channels {cin}")
    if bias.shape != (cout,):
        raise ShapeError(f"bias must be [{cout}], got {bias.shape}")
    if 0 in x.shape or 0 in kernels.shape:
        raise ShapeError(f"conv2d needs a nonempty input and kernels, got {x.shape} and {kernels.shape}")


def _conv_backward(g: np.ndarray, x: Tensor, kernels: Tensor, bias: Tensor) -> None:
    """Accumulate the gradients of ``conv2d(x, kernels, bias)`` from ``g``, its output's gradient.

    The padded input is made again from ``x.data`` rather than kept from the forward.
    """
    kh, kw, cin, cout = kernels.shape
    hout, wout = g.shape[1:3]
    g2 = g.reshape(-1, cout)
    if kernels.requires_grad:
        blocks = _im2col_blocks(_pad_same(x.data, kh, kw), kh, kw)
        gk = sum(cols.T @ g2[(i0 * hout + r0) * wout :][: len(cols)] for (i0, _, r0, _), cols in blocks)
        kernels._accum(gk.reshape(kernels.shape), owned=True)
    if bias.requires_grad:
        bias._accum(np.ones(len(g2)) @ g2, owned=True)  # a GEMV: faster than the row-by-row g2.sum(axis=0)
    if x.requires_grad:
        # the input gradient is the same-padded correlation of g with the kernel flipped
        # and its channel axes swapped, so the padding before and after trade places
        pt, pl = (kh - 1) // 2, (kw - 1) // 2
        gp = np.pad(g, ((0, 0), (kh - 1 - pt, pt), (kw - 1 - pl, pl), (0, 0)))
        flipped = kernels.data[::-1, ::-1].transpose(0, 1, 3, 2).reshape(-1, cin)
        x._accum(_correlate(gp, flipped, kh, kw), owned=True)


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Same-padded, stride-1 2-D cross-correlation plus per-channel bias: no model layer
    calls it; it is the reference the tests hold :func:`conv_pool_relu` and the spatial
    gate's 1x1 matmul to.

    ``x`` is [B x H x W x Cin]; ``kernels`` is [kh x kw x Cin x Cout]; ``bias``
    is [Cout]. The output keeps the input's H x W: the input is zero-padded by
    (kh-1)//2 rows before and the rest of kh-1 after, and likewise for the width.

    The im2col matrix is never built whole: blocks of its rows pass through one cache-sized
    scratch buffer into their output rows, each element the dot product a one-shot GEMM
    computes. The graph keeps no padded input; backward pads it and copies the blocks again.
    """
    _check_conv(x, kernels, bias)
    kh, kw, _, cout = kernels.shape
    out = _correlate(_pad_same(x.data, kh, kw), kernels.data.reshape(-1, cout), kh, kw)
    out += bias.data

    def bwd(g):
        _conv_backward(g, x, kernels, bias)

    return _node(out, (x, kernels, bias), bwd)


def channel_concat(a: Tensor, b: Tensor) -> Tensor:
    """Stack two batches of feature volumes [B x H x W x C] along the channel (last) axis."""
    if a.ndim != 4 or b.ndim != 4:
        raise ShapeError(f"channel_concat expects two [B x H x W x C] volumes, got {a.shape} and {b.shape}")
    if a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(f"spatial shapes differ: {a.shape} vs {b.shape}")
    return concat([a, b], axis=3)


def broadcast_mul_channel(f: Tensor, w: Tensor) -> Tensor:
    """Scale each feature map: out[b, i, j, c] = f[b, i, j, c] * w[b, c], with ``w``
    [B x C] against ``f`` [B x H x W x C]."""
    if f.ndim != 4 or w.ndim != 2 or w.shape[0] != f.shape[0]:
        raise ShapeError(f"weights {w.shape} incompatible with volume {f.shape}")
    if w.shape[1] != f.shape[3]:
        raise ShapeError(f"weight length {w.shape[1]} does not match channel count {f.shape[3]}")
    return mul(f, reshape(w, (w.shape[0], 1, 1, w.shape[1])))


def broadcast_mul_spatial(f: Tensor, w: Tensor) -> Tensor:
    """Scale each spatial position: out[b, i, j, c] = f[b, i, j, c] * w[b, i, j], with ``w``
    [B x H x W] against ``f`` [B x H x W x C]."""
    if f.ndim != 4 or w.shape != f.shape[:-1]:
        raise ShapeError(f"spatial weights {w.shape} do not match volume {f.shape}")
    return mul(f, reshape(w, w.shape + (1,)))


def channel_pool(f: Tensor, mode: str) -> Tensor:
    """Collapse the channel axis to 1 by mean or max.

    The mean is the channel sum divided by C, as numpy's ``mean`` computes it.
    Max routes its gradient to the first argmax in channel order, so the
    backward pass is deterministic under ties.
    """
    if f.ndim != 4 or f.shape[-1] < 1:
        raise ShapeError(f"channel_pool expects [B x H x W x C] with C >= 1, got {f.shape}")
    if mode == "avg":
        return div(tsum(f, axis=-1, keepdims=True), _lift(f.shape[-1]))
    if mode == "max":
        idx = f.data.argmax(axis=-1)[..., None]

        def bwd(g):
            buf = np.zeros_like(f.data)
            np.put_along_axis(buf, idx, g, axis=-1)
            f._accum(buf)

        return _node(np.take_along_axis(f.data, idx, axis=-1), (f,), bwd)
    raise ConfigError(f"channel_pool mode must be 'avg' or 'max', got {mode!r}")


_POOL_TAPS = ((0, 0), (0, 1), (1, 0), (1, 1))  # row-major (di, dj) order within a 2x2 window


def _check_pool(x: Tensor) -> None:
    if x.ndim != 4:
        raise ShapeError(f"maxpool expects [B x H x W x C], got {x.shape}")
    h, w = x.shape[1:3]
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool needs even spatial dims, got {h}x{w}")


def _pool_max(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The 2x2 window maxima of ``a`` [B x H x W x C], into ``out`` if given."""
    taps = [a[..., di::2, dj::2, :] for di, dj in _POOL_TAPS]
    out = np.maximum(taps[0], taps[1], out=out)
    np.maximum(out, taps[2], out=out)
    np.maximum(out, taps[3], out=out)
    return out


def _route_to_first_max(g: np.ndarray, a: np.ndarray, pooled: np.ndarray) -> np.ndarray:
    """The gradient of ``a`` under a 2x2 max pool: each window's ``g`` goes to its first tap,
    in row-major order, equal to ``pooled``; the window's other taps get ``g`` times 0."""
    ga = np.empty_like(a)
    free = np.ones(pooled.shape, dtype=bool)  # windows whose maximum is not yet taken
    for di, dj in _POOL_TAPS:
        hit = np.equal(a[..., di::2, dj::2, :], pooled)
        hit &= free
        free ^= hit
        np.multiply(g, hit, out=ga[..., di::2, dj::2, :])
    return ga


def maxpool2x2(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 spatial max over [B x H x W x C]; H and W must be even.

    The gradient of each window goes to its first maximum in row-major
    (di, dj) order, so the backward pass is deterministic under ties.
    """
    _check_pool(x)
    out = _pool_max(x.data)

    def bwd(g):
        x._accum(_route_to_first_max(g, x.data, out), owned=True)

    return _node(out, (x,), bwd)


def conv_pool_relu(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """``relu(maxpool2x2(conv2d(x, kernels, bias)))`` as one node, equal to it bit for bit.

    The conv makes the same GEMM calls as :func:`conv2d`, and each group of whole
    images (:func:`_correlate_groups`) is biased and pooled while it is in cache.
    Without a graph to record, the conv output goes to one buffer that every group
    reuses; when recording, to one full-size array, which the backward's max
    routing reads. Routing against the rectified output is exact: where the
    pooled value is positive the two are equal, and elsewhere the relu has
    already zeroed the window's gradient.
    """
    _check_conv(x, kernels, bias)
    _check_pool(x)
    b, h, w, _ = x.shape
    kh, kw, cin, cout = kernels.shape
    if _records((x, kernels, bias)):
        conv = np.empty((b, h, w, cout))
    else:
        conv = np.empty((max(i1 - i0 for i0, i1, _, _ in _conv_blocks(b, h, w, kh * kw * cin)), h, w, cout))
    out = np.empty((b, h // 2, w // 2, cout))
    for i0, i1, group in _correlate_groups(_pad_same(x.data, kh, kw), kernels.data.reshape(-1, cout), kh, kw, conv):
        group += bias.data
        _pool_max(group, out=out[i0:i1])
    np.copyto(out, 0.0, where=~(out > 0))

    def bwd(g):
        _conv_backward(_route_to_first_max(g * (out > 0), conv, out), x, kernels, bias)

    return _node(out, (x, kernels, bias), bwd)


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


# -- concurrent branches -----------------------------------------------------

_branch_workers: dict = {}  # process id -> its branch worker (a ThreadPoolExecutor) or None


def _openblas_set_num_threads_local():
    """``openblas_set_num_threads_local`` of the OpenBLAS numpy loaded, or None if it has none."""
    here = Path(np.__file__).parent
    for lib in sorted((here.parent / "numpy.libs").glob("*openblas*")) + sorted((here / ".libs").glob("*openblas*")):
        try:
            fn = getattr(ctypes.CDLL(lib), "openblas_set_num_threads_local", None)
        except OSError:
            continue
        if fn is not None:
            fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_int
            return fn
    return None


def _branch_worker():
    """This process's one branch worker thread, made on first use; None where branches run
    one after another: the BLAS cannot be held to one thread, or fewer than 2 CPUs are free.

    Making the worker holds OpenBLAS to one thread, in the worker and in the caller (in
    the whole process where, as in OpenBLAS's pthreads build, the setting is not per
    thread): the second CPU runs the other branch instead. OpenBLAS's idle threads
    busy-wait for about 0.1 s after a multi-threaded call, so a second BLAS thread kept for
    the code between branch regions would take that CPU from the next region's branches.

    Keyed by process id, so a forked child makes its own worker instead of waiting on its
    parent's, which the fork did not copy. ``concurrent.futures`` is imported here, not
    with the module: it loads ``logging`` and more, which a process that never runs two
    branches need not carry.
    """
    pid = os.getpid()
    if pid not in _branch_workers:
        from concurrent.futures import ThreadPoolExecutor

        set_threads = _openblas_set_num_threads_local()
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        worker = None
        if set_threads is not None and cpus >= 2:
            set_threads(1)
            worker = ThreadPoolExecutor(1, "rgbdfuse-branch", initializer=set_threads, initargs=(1,))
        _branch_workers[pid] = worker
    return _branch_workers[pid]


def _run_branches(calls: Sequence[Callable[[], object]]) -> list:
    """The results of ``calls``: the first runs on this thread and the rest on the branch
    worker, or all one after another here where there is no worker. Fewer than two calls
    run here without making the worker, so a process that never runs two branches keeps
    the BLAS's own thread count. Every call has ended before this returns or raises; an
    exception surfaces unchanged, the first call's first."""
    worker = _branch_worker() if len(calls) > 1 else None
    if worker is None:
        return [call() for call in calls]
    futures = [worker.submit(call) for call in calls[1:]]
    try:
        first = calls[0]()
    finally:
        for f in futures:
            f.exception()  # waits for the call to end, raising nothing
    return [first] + [f.result() for f in futures]


def concat_branches(thunks: Sequence[Callable[[], Tensor]], axis: int) -> tuple[Tensor, list[Tensor]]:
    """Run independent branches concurrently and concatenate their outputs along ``axis``.

    Each thunk builds one branch and returns its output tensor; a single branch runs
    alone, and its output is copied. Returns the concatenation and the branch outputs.
    The backward slices the gradient and sweeps each branch's graph concurrently. The
    branch graphs stay out of the outer sweep's topological order (the node lists no
    parents), so each branch node is freed as its own sweep passes it. The branches
    must share no tensor that requires grad, and each output must feed only this node.
    """
    thunks = list(thunks)
    parts = _run_branches(thunks)
    try:
        data = np.concatenate([t.data for t in parts], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"branch outputs {[t.shape for t in parts]} do not concatenate along axis {axis}") from exc

    def bwd(g):
        slices = zip(parts, _split(g, parts, axis))
        _run_branches([functools.partial(_sweep, t, gt.copy()) for t, gt in slices if t.requires_grad])

    out = _node(data, parts, bwd)
    out._parents = ()
    return out, parts


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
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    return order


def _sweep(root: Tensor, grad: np.ndarray) -> None:
    """Add ``grad`` into ``root``'s gradient, then run every recorded closure reachable from
    ``root`` in reverse topological order, each node dropping its closure and parent links
    once its closure has run."""
    order = _topo_order(root)
    root.grad = grad if root.grad is None else root.grad + grad
    while order:
        node = order.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        node._backward = None
        node._parents = ()


def backward(loss: Tensor, params: Iterable[Tensor] = ()) -> dict[Tensor, np.ndarray]:
    """Reverse-mode sweep from a scalar loss.

    Accumulates into ``.grad`` of every reachable tensor that requires grad;
    any tensor in ``params`` left unreached receives a zero gradient. Returns
    a map from parameter tensor to its gradient array.

    The sweep frees the graph as it goes: once a node's closure has run, the
    node drops its closure and its parent links, so a node the caller does not
    hold is freed with its data, its grad and the arrays its closure saved.
    Tensors the caller holds keep their ``.grad``. A graph is swept once: a loss
    that already holds a gradient raises UsageError.
    """
    if loss.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.grad is not None:
        raise UsageError("graph already swept: backward runs once per loss")
    _sweep(loss, np.ones_like(loss.data))
    out: dict[Tensor, np.ndarray] = {}
    for p in params:
        out[p] = p._grad_buffer()
    return out


def central_difference(f, x: Tensor, i: int, h: float = 1e-5) -> float:
    """Central-difference derivative of scalar-valued ``f(x)`` along flat coordinate ``i`` of ``x``.

    ``f`` must be deterministic (dropout off, batchnorm statistics frozen). It runs
    without recording a graph; ``x.data`` is made C-contiguous and left as it was.
    """

    def evaluate() -> float:
        with no_grad():
            y = f(x)
        return y.item() if isinstance(y, Tensor) else float(y)

    if not x.data.flags["C_CONTIGUOUS"]:
        x.data = np.ascontiguousarray(x.data)
    flat = x.data.reshape(-1)
    orig = flat[i]
    flat[i] = orig + h
    hi = evaluate()
    flat[i] = orig - h
    lo = evaluate()
    flat[i] = orig
    return (hi - lo) / (2.0 * h)


def finite_diff_grad(f, x: Tensor, h: float = 1e-5) -> Tensor:
    """Central-difference gradient of a scalar-valued function at ``x``, one coordinate at a time."""
    grad = np.array([central_difference(f, x, i, h) for i in range(x.size)])
    return Tensor(grad.reshape(x.shape))


# -- serialization ---------------------------------------------------------

_MAGIC = b"FTNS"


def write_tensor(stream, t: Tensor) -> None:
    """Binary layout: magic 'FTNS', u8 rank, u64 dims, raw little-endian float64."""
    stream.write(_MAGIC)
    stream.write(struct.pack("<B", t.ndim))
    for d in t.shape:
        stream.write(struct.pack("<Q", d))
    data = np.ascontiguousarray(t.data, dtype="<f8")
    if data.size:  # no view casts an empty array
        stream.write(memoryview(data).cast("B"))


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
    # an empty record can still name dims no array can have: numpy 1.x allows 32 axes and
    # a product of the nonzero dims times the item size below 2^63
    if len(dims) > 32 or 8 * math.prod(max(d, 1) for d in dims) >= 1 << 63:
        raise DataError(f"tensor record dims {dims} exceed what an array can hold")
    return tuple(dims)


def read_tensor_into(stream, out: np.ndarray) -> None:
    """Read a record's data straight into ``out``, a C-contiguous float64 array of the header's shape."""
    if out.size and stream.readinto(memoryview(out).cast("B")) != out.nbytes:  # no view casts an empty array
        raise DataError("truncated tensor record: missing data")
    if sys.byteorder == "big":
        out.byteswap(inplace=True)


def read_tensor(stream) -> Tensor:
    out = np.empty(read_tensor_header(stream))
    read_tensor_into(stream, out)
    return Tensor(out)


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Write through a temp file beside ``path`` that replaces it only once the block completes.

    If the block fails, any earlier file at ``path`` is left as it was and the temp file is removed.
    Every file the package writes goes through here.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def make_output_dir(path) -> None:
    """Make the directory ``path`` and any missing parents; ConfigError if it cannot be made."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {path}: {exc.strerror}") from exc


def check_output_path(path) -> None:
    """Raise ConfigError unless :func:`atomic_write` can make a file at ``path``: its
    directory exists and ``path`` is not one. Call it before the work the file holds."""
    path = Path(path)
    if not path.parent.is_dir():
        raise ConfigError(f"output directory {path.parent} does not exist")
    if path.is_dir():
        raise ConfigError(f"output {path} is a directory")


def save_tensor(path, t: Tensor) -> None:
    with atomic_write(path, "wb") as fh:
        write_tensor(fh, t)


def load_tensor(path) -> Tensor:
    with open(path, "rb") as fh:
        return read_tensor(fh)
