"""Spans around signet's public functions, recorded from outside the program.

``Tracer.install`` swaps each traced function for a wrapper in every signet
module that holds it, which covers aliases such as ``nn.relu``; the modules
look these names up at call time, so calls between them are seen. Taped
ops also get their tape node's ``bw`` wrapped, so backward time lands on
the op that recorded it. ``uninstall`` puts the originals back.

Spans (name, start, end, parent, architecture tag) stay in memory until
``totals`` folds them. A span's self time is its duration minus that of
its direct children; calls run on one thread, so children nest strictly.
"""

from __future__ import annotations

import os
import time
from array import array

import numpy as np

import signet

# The ops in ``tensor.__all__`` that record a tape node.
TENSOR_OPS = (
    "add", "sub", "mul", "neg", "scale", "log", "clip", "relu", "sigmoid", "tanh",
    "softmax", "reshape", "narrow", "stack", "reduce_sum", "reduce_mean", "matmul",
    "conv2d", "conv3d", "maxpool2d", "maxpool3d",
)
NN_FUNCTIONS = ("convlstm2d", "lstm", "simple_rnn", "time_distributed", "dense")
SPANNED = {
    "models": ("init_model", "forward", "predict_probs"),
    "train": ("fit", "adam_step", "categorical_crossentropy"),
    "data": ("load_dataset", "load_clip", "decode_netpbm", "preprocess_frame",
             "normalize_sequence"),
    "cli": ("main",),
}


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self._modules = [getattr(signet, m) for m in signet.__all__ if m != "__version__"]
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self._name = array("i")
        self._tag = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._tapes: list = []
        self.counts: dict[tuple[str, int], float] = {}
        self.tags: list[str] = []
        self._tag_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def set_tag(self, tag: str) -> None:
        """Architecture (or model) that the following spans work for."""
        if tag not in self.tags:
            self.tags.append(tag)
        self._tag_id = self.tags.index(tag)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self._name)
        self._name.append(name_id)
        self._tag.append(self._tag_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self._end[i] = time.perf_counter()
        self._stack.pop()

    def _count(self, name: str, n: float) -> None:
        key = (name, self._tag_id)
        self.counts[key] = self.counts.get(key, 0.0) + n

    def count(self, name: str, tag: str | None = None) -> float:
        """Summed count for one tag, or over all tags."""
        return sum(v for (n, t), v in self.counts.items()
                   if n == name and (tag is None or self.tags[t] == tag))

    def _spanned(self, fn, name: str):
        name_id = self._id(name)

        def traced(*args, **kwargs):
            i = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    def _spanned_op(self, fn, op: str):
        fw_id = self._id(f"tensor.{op}.fw")
        bw_name = f"tensor.{op}.bw"
        tapes = self._tapes

        def traced(*args, **kwargs):
            tape = tapes[-1] if tapes else None
            recorded = len(tape.nodes) if tape is not None else 0
            i = self._open(fw_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if tape is not None and len(tape.nodes) > recorded:
                node = tape.nodes[-1]
                node.bw = self._spanned(node.bw, bw_name)
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Swap ``original`` for ``wrapper`` wherever a signet module binds it."""
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch_method(self, cls, attr: str, wrapper) -> None:
        self._patches.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        s = signet
        for op in TENSOR_OPS:
            fn = getattr(s.tensor, op)
            self._replace(fn, self._spanned_op(fn, op))
        for f in NN_FUNCTIONS:
            fn = getattr(s.nn, f)
            self._replace(fn, self._spanned(fn, f"nn.{f}"))
        for module, names in SPANNED.items():
            for f in names:
                fn = getattr(getattr(s, module), f)
                self._replace(fn, self._spanned(fn, f"{module}.{f}"))

        save, load = s.modelio.save_model, s.modelio.load_model
        traced_save = self._spanned(save, "modelio.save_model")
        traced_load = self._spanned(load, "modelio.load_model")

        def save_model(spec, params, preprocess, class_names, path):
            traced_save(spec, params, preprocess, class_names, path)
            self._count("modelio.file_bytes", os.path.getsize(path))

        def load_model(path):
            out = traced_load(path)
            self._count("modelio.file_bytes", os.path.getsize(path))
            return out

        self._replace(save, save_model)
        self._replace(load, load_model)

        tape_cls, rng_cls = s.tensor.Tape, s.tensor.Rng
        enter, leave = tape_cls.__enter__, tape_cls.__exit__
        backward = self._spanned(tape_cls.backward, "tensor.Tape.backward")
        uniforms = self._spanned(rng_cls.uniforms, "tensor.Rng.uniforms")
        tapes = self._tapes

        def tape_enter(tape):
            tapes.append(tape)
            return enter(tape)

        def tape_exit(tape, *exc_info):
            tapes.pop()
            return leave(tape, *exc_info)

        def tape_backward(tape, loss):
            self._count("tensor.Tape.nodes", len(tape.nodes))
            return backward(tape, loss)

        def rng_uniforms(rng, n):
            self._count("tensor.Rng.draws", n)
            return uniforms(rng, n)

        self._patch_method(tape_cls, "__enter__", tape_enter)
        self._patch_method(tape_cls, "__exit__", tape_exit)
        self._patch_method(tape_cls, "backward", tape_backward)
        self._patch_method(rng_cls, "uniforms", rng_uniforms)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- folding -----------------------------------------------------------

    def totals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Total seconds, self seconds and span count per (tag, name) cell.

        Arrays are indexed ``[tag, name]`` by positions in ``tags`` and
        ``names``.
        """
        names = np.frombuffer(self._name, dtype=np.int32).astype(np.int64)
        tags = np.frombuffer(self._tag, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=dur.size)
        shape = (max(len(self.tags), 1), len(self.names))
        cell = tags * shape[1] + names

        def fold(weights):
            return np.bincount(cell, weights=weights, minlength=shape[0] * shape[1]).reshape(shape)

        return fold(dur), fold(dur - children), fold(None)
