"""In-memory span tracer that wraps the package's public functions from outside.

Each wrapper is installed at the name its caller looks it up by: ``model.py``
imports the attention functions and ``dense_forward`` by name, ``trainer.py``
imports ``make_batches`` and ``save_checkpoint`` by name, ``cli.py`` imports
``load_manifest`` and the preprocessing functions by name, while ``layers.py``
and ``trainer.py`` reach ``conv2d``, ``maxpool2x2``, ``matmul`` and
``backward`` through the ``tensor`` module. No file of the package changes.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the root). Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter

# (kind, owner, attribute, span name). The owner is "module" or
# "module:Class"; kind "fn" wraps a plain callable or method, "classmethod" a
# classmethod, and "generator" times each ``next`` of a generator.
WRAPS = (
    ("fn", "rgbdfuse.tensor", "conv2d", "tensor.conv2d"),
    ("fn", "rgbdfuse.tensor", "maxpool2x2", "tensor.maxpool2x2"),
    ("fn", "rgbdfuse.tensor", "matmul", "tensor.matmul"),
    ("fn", "rgbdfuse.tensor", "backward", "tensor.backward"),
    ("fn", "rgbdfuse.layers:ConvBackbone", "forward", "layers.backbone"),
    ("fn", "rgbdfuse.layers:BatchNorm", "forward", "layers.batchnorm"),
    ("fn", "rgbdfuse.model", "dense_forward", "layers.dense"),
    ("fn", "rgbdfuse.attention", "dense_forward", "layers.dense"),
    ("fn", "rgbdfuse.attention", "lstm_forward", "layers.lstm"),
    ("fn", "rgbdfuse.layers", "lstm_forward", "layers.lstm"),
    ("fn", "rgbdfuse.model", "feature_map_attention", "attention.feature_map"),
    ("fn", "rgbdfuse.attention", "feature_map_attention", "attention.feature_map"),
    ("fn", "rgbdfuse.model", "spatial_attention", "attention.spatial"),
    ("fn", "rgbdfuse.attention", "spatial_attention", "attention.spatial"),
    ("fn", "rgbdfuse.model:Model", "forward", "model.forward"),
    ("fn", "rgbdfuse.model:Model", "extract_embedding", "model.extract_embedding"),
    ("classmethod", "rgbdfuse.model:Model", "build", "model.build"),
    ("fn", "rgbdfuse.model", "load_checkpoint", "model.load_checkpoint"),
    ("fn", "rgbdfuse.trainer", "save_checkpoint", "model.save_checkpoint"),
    ("fn", "rgbdfuse.trainer:Adam", "step", "trainer.adam"),
    ("fn", "rgbdfuse.trainer", "evaluate", "trainer.evaluate"),
    ("fn", "rgbdfuse.trainer", "attention_weight_means", "trainer.attention_weight_means"),
    ("fn", "rgbdfuse.trainer", "train", "trainer.train"),
    ("fn", "rgbdfuse.data", "load_manifest", "data.load_manifest"),
    ("fn", "rgbdfuse.cli", "load_manifest", "data.load_manifest"),
    ("generator", "rgbdfuse.trainer", "make_batches", "data.make_batches"),
    ("generator", "rgbdfuse.data", "make_batches", "data.make_batches"),
    ("fn", "rgbdfuse.netpbm", "read_ppm", "netpbm.read"),
    ("fn", "rgbdfuse.netpbm", "read_pgm", "netpbm.read"),
    ("fn", "rgbdfuse.netpbm", "write_ppm", "netpbm.write"),
    ("fn", "rgbdfuse.netpbm", "write_pgm", "netpbm.write"),
    ("fn", "rgbdfuse.cli", "depth_clip_normalize", "preprocess.depth_clip"),
    ("fn", "rgbdfuse.cli", "crop_resize", "preprocess.crop_resize"),
    ("fn", "rgbdfuse.cli", "augment_expand", "preprocess.augment"),
)


def _resolve(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans while ``enabled``; counts conv work and decodes alongside."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self.conv_flop = 0
        self.conv_cols_bytes = 0
        self.decodes: Counter = Counter()  # path -> times read in the current call
        self.reads = 0  # decodes summed over finished calls
        self.first_reads = 0  # decodes of a path not yet read in the same call
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def call_span(self, name: str):
        """Root span of one benchmark iteration phase ("bench.setup" / "bench.call")."""
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)
            if name == "bench.call":
                self.reads += sum(self.decodes.values())
                self.first_reads += len(self.decodes)
                self.decodes.clear()

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if name == "tensor.conv2d":
                tracer._count_conv(args[1], out)
            elif name == "netpbm.read":
                tracer.decodes[str(args[0])] += 1
            return out

        return wrapper

    def _wrap_generator(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer.begin(name) if tracer.enabled else None
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    if idx is not None:
                        tracer.end(idx)
                yield item

        return wrapper

    def _count_conv(self, kernels, out) -> None:
        """Forward conv work computed from the observed shapes (not measured)."""
        kh, kw, cin, cout = kernels.shape
        positions = 1
        for d in out.shape[:-1]:
            positions *= d
        self.conv_flop += 2 * positions * kh * kw * cin * cout
        self.conv_cols_bytes += positions * kh * kw * cin * out.data.itemsize

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for kind, owner_path, attr, name in WRAPS:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr]
            if kind == "classmethod":
                wrapped = classmethod(self._wrap(original.__func__, name))
            elif kind == "generator":
                wrapped = self._wrap_generator(original, name)
            else:
                wrapped = self._wrap(original, name)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def totals(self) -> tuple[dict, Counter]:
        """Per-name inclusive seconds (outermost occurrence only) and call counts."""
        spans = self.spans
        seconds: dict = {}
        calls: Counter = Counter()
        for name, t0, t1, parent in spans:
            calls[name] += 1
            nested = False
            while parent >= 0:
                if spans[parent][0] == name:
                    nested = True
                    break
                parent = spans[parent][3]
            if not nested:
                seconds[name] = seconds.get(name, 0.0) + (t1 - t0)
        return seconds, calls

    def self_seconds(self, name: str) -> float:
        """Duration of every ``name`` span minus the time its direct children cover."""
        spans = self.spans
        total = 0.0
        for _, t0, t1, parent in spans:
            if parent >= 0 and spans[parent][0] == name:
                total -= t1 - t0
        return total + sum(t1 - t0 for n, t0, t1, _ in spans if n == name)

    def dump(self, path, machine: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"machine": machine, "fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def graph_nodes(root) -> int:
    """Recorded op nodes reachable from ``root`` through the autodiff graph."""
    seen = set()
    stack = [root]
    count = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            count += 1
        stack.extend(node._parents)
    return count
