"""Loss, metrics, Adam, early stopping, and the mini-batch training loop.

``fit`` is fully deterministic: the training config's seed drives
parameter initialization, the one-time validation carve-out, and every
epoch's shuffle, so a (spec, manifest, config) triple always produces
bit-identical weights and history.

A batch of two or more clips is stepped by forked workers, one per CPU in
the process's affinity mask, and the worker count never changes a trained
byte; ``_forked_batch`` describes the protocol. Run under ``taskset -c 0``
for a serial fit.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import io
import os
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

from . import models, tensor as tn
from .data import DatasetManifest
from .models import ModelSpec
from .nn import ParameterStore
from .tensor import Rng, ShapeError, Tensor

__all__ = [
    "TrainingConfig",
    "EpochRecord",
    "History",
    "AdamState",
    "TrainingError",
    "categorical_crossentropy",
    "accuracy",
    "adam_step",
    "early_stopping_check",
    "fit",
]

PROB_CLAMP = 1e-7


class TrainingError(ValueError):
    """Invalid training configuration or data."""


@dataclass
class TrainingConfig:
    max_epochs: int = 20
    min_epochs: int = 15
    batch_size: int = 10
    learning_rate: float = 0.001
    patience: int = 5
    validation_split: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for key in ("max_epochs", "min_epochs", "batch_size", "patience", "seed"):
            (value,) = tn._integers((getattr(self, key),), key, TrainingError)
            setattr(self, key, value)
        if not 0.0 < self.validation_split < 1.0:
            raise TrainingError("validation_split must lie in (0, 1)")
        if self.batch_size < 1:
            raise TrainingError("batch_size must be >= 1")
        if self.patience < 1:
            raise TrainingError("patience must be >= 1")
        if self.min_epochs > self.max_epochs:
            raise TrainingError("min_epochs must not exceed max_epochs")
        if self.max_epochs < 1:
            raise TrainingError("max_epochs must be >= 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise TrainingError("learning_rate must be a positive finite number")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: float
    val_accuracy: float


@dataclass
class History:
    """Per-epoch metrics plus the early-stopping outcome."""

    records: list[EpochRecord] = field(default_factory=list)
    stopped_early: bool = False
    best_epoch: int = 0

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("epoch,train_loss,train_accuracy,val_loss,val_accuracy\n")
        for r in self.records:
            buf.write(
                f"{r.epoch},{r.train_loss:.6g},{r.train_accuracy:.6g},"
                f"{r.val_loss:.6g},{r.val_accuracy:.6g}\n"
            )
        return buf.getvalue()


class AdamState:
    """First/second moment buffers; beta1=0.9, beta2=0.999, eps=1e-7."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-7

    def __init__(self):
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def _check_one_hot(truth: np.ndarray, shape: tuple) -> None:
    if truth.shape != shape:
        raise ShapeError(f"truth shape {truth.shape} != prediction shape {shape}")
    is_unit = np.isin(truth, (0.0, 1.0)).all()
    if not is_unit or not np.array_equal(truth.sum(axis=1), np.ones(truth.shape[0])):
        raise TrainingError("truth rows must be one-hot")


def one_hot(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise TrainingError(f"label outside [0, {num_classes})")
    return np.eye(num_classes, dtype=np.float32)[labels]


def categorical_crossentropy(pred: Tensor, truth: np.ndarray) -> Tensor:
    """Mean over the batch of -sum(y * ln(clamp(p, 1e-7, 1 - 1e-7)))."""
    truth = np.asarray(truth)
    if pred.data.ndim != 2:
        raise ShapeError(f"predictions must be (B, C), got {pred.shape}")
    _check_one_hot(truth, pred.shape)
    clamped = tn.clip(pred, PROB_CLAMP, 1.0 - PROB_CLAMP)
    picked = tn.reduce_sum(tn.mul(tn.log(clamped), Tensor(truth.astype(pred.data.dtype))), axis=1)
    return tn.neg(tn.reduce_mean(picked))


def accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of rows whose argmax matches; ties break to the lowest index."""
    p, y = np.asarray(pred), np.asarray(truth)
    if p.ndim != 2 or p.shape != y.shape:
        raise ShapeError(f"accuracy needs matching (B, C) arrays, got {p.shape} vs {y.shape}")
    if p.shape[0] == 0:
        raise ShapeError("accuracy of an empty batch")
    return float(np.mean(p.argmax(axis=1) == y.argmax(axis=1)))


def adam_step(params: ParameterStore, grads: dict, state: AdamState, lr: float) -> None:
    """One Adam update over the trainable parameters, in place.

    ``grads`` maps each parameter tensor to its gradient, as a tape's
    ``grads`` does. Frozen parameters are skipped even when ``grads`` has
    an entry for them. Raises ``TrainingError`` if a trainable parameter
    has no gradient, and ``NonFiniteError`` naming the parameter if its
    update is non-finite, as after a gradient that overflowed in backward.
    The arithmetic runs in the parameters' dtype whatever the numeric type
    of ``lr``.
    """
    lr = float(lr)
    state.t += 1
    b1, b2, eps = AdamState.BETA1, AdamState.BETA2, AdamState.EPS
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for name, p in params.items():
        if not params.is_trainable(name):
            continue
        g = grads.get(p)
        if g is None:
            raise TrainingError(f"trainable parameter {name!r} has no gradient")
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        with np.errstate(all="ignore"):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            update = (lr / bc1) * m / (np.sqrt(v / bc2) + eps)
            p.data -= update
        if not np.isfinite(p.data).all():
            raise tn.NonFiniteError(f"parameter {name!r} diverged to non-finite values")


def early_stopping_check(val_losses: list[float], patience: int, min_epochs: int = 1) -> bool:
    """True when the best validation loss has gone ``patience`` epochs
    without a strict improvement and at least ``min_epochs`` have run."""
    if not val_losses:
        raise TrainingError("no recorded epochs")
    if len(val_losses) < min_epochs:
        return False
    best_index = int(np.argmin(val_losses))  # first occurrence of the minimum
    return (len(val_losses) - 1 - best_index) >= patience


def _clip_loss(spec, params, sample, num_classes):
    """Cross-entropy of one clip, as a tensor, and 1.0 if its top class is the label.

    Training calls it under a tape and validation without one. A ShapeError
    or NonFiniteError leaves naming the clip.
    """
    try:
        probs = models.forward(spec, params, Tensor(sample.frames))
    except (ShapeError, tn.NonFiniteError) as exc:
        exc.args = (f"clip {sample.clip_id}: {exc}",)
        raise
    truth = one_hot([sample.label_index], num_classes)
    loss = categorical_crossentropy(tn.reshape(probs, (1, num_classes)), truth)
    return loss, float(probs.data.argmax() == sample.label_index)


def _clip_steps(spec, params, clips, num_classes, batch_size, grads, held) -> list:
    """One taped step per clip, in order, folding into ``grads`` except for
    the ``held`` leaves; returns each clip's (loss, hit)."""
    inv = 1.0 / batch_size  # batch loss = mean over clips
    outcomes = []
    for sample in clips:
        with tn.Tape(grads, held) as tape:
            loss, hit = _clip_loss(spec, params, sample, num_classes)
            scaled = tn.scale(loss, inv)
        tape.backward(scaled)
        outcomes.append((loss.item(), hit))
    return outcomes


@functools.cache
def _blas_pool():
    """(get_num_threads, set_num_threads) of the OpenBLAS numpy runs on, or None.

    numpy's wheels ship OpenBLAS under ``numpy.libs``; loading that file
    again through ctypes returns the library numpy already uses.
    """
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(pattern)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


def _worker_count(clips: int) -> int:
    """The CPUs this process may run on, at most one per clip; 1 where
    ``os.fork``, the affinity mask or OpenBLAS's thread API is missing."""
    if clips < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if _blas_pool() is None:
        return 1
    return min(clips, len(os.sched_getaffinity(0)))


def _batch_gradient(spec, params, batch, num_classes) -> tuple[dict, list]:
    """The batch's gradient, keyed by parameter tensor, and each clip's
    (loss, hit) in batch order.

    One worker runs the batch in-process. More run ``_forked_batch``, whose
    fold gives the same bits.
    """
    workers = _worker_count(len(batch))
    if workers == 1:
        grads = {}
        return grads, _clip_steps(spec, params, batch, num_classes, len(batch), grads, None)
    return _forked_batch(spec, params, batch, num_classes, workers)


# A worker's exit code when its chunk, fold or send raised.
_RAISED = 3


def _forked_batch(spec, params, batch, num_classes, workers) -> tuple[dict, list]:
    """Step contiguous chunks of ``batch`` in forked workers, chaining the fold.

    The workers form one forward chain over N pipes. Worker 0 folds its
    clips as the in-process loop does. Worker i > 0 holds its trainable
    parameters' contributions in tape order, reads worker i-1's message,
    adds its contributions to the running sums one at a time in clip
    order, and passes the message on. A message is every clip's
    (loss, hit) so far plus the running sums; each worker writes exactly
    one, to the next worker or, from the last, to this process. Chaining
    keeps the adds in the workers, overlapped with the later chunks'
    steps: sending every contribution to the parent to fold there made
    cnn_td no faster than the serial loop (0.99x on a 2-vCPU Xeon).

    No error crosses a pipe. A worker whose chunk, fold or send raises
    exits with ``_RAISED`` and writes nothing; one whose upstream message
    never comes, or whose downstream reader has gone, exits 0 without
    writing, so a worker is blamed only for its own failure. The last
    message thus arrives only when every chunk has stepped, and a complete
    one finishes the batch whatever the exit statuses, as when a worker is
    killed after its write. Without it, the earliest chunk whose worker
    failed holds the earliest failing clip. If that worker raised, this
    process steps the chunk again, at the workers' one BLAS thread, which
    raises the serial error with its own type and traceback; if the
    re-step passes, or the worker died any other way, the result is a
    ``TrainingError`` naming the chunk's first clip and the exit code. A
    worker killed by a signal, as for running out of memory, is never
    re-run here.

    The pool is pinned to one BLAS thread before the fork and restored
    after every worker is reaped. On the same 2-vCPU host, two processes
    that kept 2 threads each oversubscribed it (cnn3d 2.67 steps/s against
    7.24 serially), and workers that dropped to one thread themselves after
    a fork from a 2-thread parent took 141-227 ms for five 12x32x32 cnn3d
    steps against 74-78 ms when the parent had pinned first. Workers leave
    only through ``os._exit``, so no inherited stdio buffer is flushed
    twice and no atexit handler runs; this process reaps each one, killing
    those still running when it leaves on an error or interrupt.
    """
    names = [n for n in params.names() if params.is_trainable(n)]
    edges = [len(batch) * i // workers for i in range(workers + 1)]
    chunks = [batch[a:b] for a, b in zip(edges, edges[1:])]
    pipes = [os.pipe() for _ in chunks]
    open_fds = {fd for pipe in pipes for fd in pipe}
    get_threads, set_threads = _blas_pool()
    threads = get_threads()
    set_threads(1)
    pids: list[int] = []
    try:
        for i, chunk in enumerate(chunks):
            link_in = pipes[i - 1][0] if i else None
            pid = os.fork()
            if pid == 0:
                code = _RAISED
                try:
                    for fd in open_fds - {link_in, pipes[i][1]}:
                        os.close(fd)
                    code = _worker(spec, params, chunk, num_classes, len(batch), names,
                                   link_in, pipes[i][1])
                finally:
                    os._exit(code)
            pids.append(pid)
        last = pipes[-1][0]
        for fd in open_fds - {last}:
            os.close(fd)
        open_fds = set()  # _receive closes the last read end
        message = _receive(last)
        statuses = []
        while pids:
            statuses.append(os.waitpid(pids[0], 0)[1])
            pids.pop(0)
        if message is None:
            i = next((i for i, status in enumerate(statuses) if status), len(chunks) - 1)
            code = os.waitstatus_to_exitcode(statuses[i])
            if code == _RAISED:
                _clip_steps(spec, params, chunks[i], num_classes, len(batch), {}, None)
            raise TrainingError(
                f"clip {chunks[i][0].clip_id}: training worker ended without a result "
                f"(exit code {code})")
    finally:
        for fd in open_fds:
            os.close(fd)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        set_threads(threads)
    outcomes, sums = message
    return {params[name]: g for name, g in sums.items()}, outcomes


def _worker(spec, params, chunk, num_classes, batch_size, names, link_in, link_out) -> int:
    """Body of a forked worker; see ``_forked_batch``. Returns its exit
    code: 0 after it wrote its message, found no upstream message, or
    found its downstream reader gone. A raise leaves with ``_RAISED``."""
    signal.signal(signal.SIGPIPE, signal.SIG_IGN)  # a gone reader is a BrokenPipeError
    held = None if link_in is None else {params[n]: [] for n in names}
    grads = {}
    outcomes = _clip_steps(spec, params, chunk, num_classes, batch_size, grads, held)
    if link_in is not None:
        upstream = _receive(link_in)
        if upstream is None:  # an earlier worker failed
            return 0
        outcomes = upstream[0] + outcomes
        grads = {params[n]: g for n, g in upstream[1].items()}
        tn.Tape.fold(grads, held)
    sums = {n: grads[params[n]] for n in names if params[n] in grads}
    with contextlib.suppress(BrokenPipeError):  # a later worker died; it is the one to blame
        _send(link_out, (outcomes, sums))
    return 0


def _send(fd: int, message) -> None:
    with open(fd, "wb") as pipe:
        pickle.dump(message, pipe, protocol=pickle.HIGHEST_PROTOCOL)


def _receive(fd: int):
    """The one message on a pipe, or None if its writer left without one."""
    with open(fd, "rb") as pipe:
        try:
            return pickle.load(pipe)
        except Exception:  # a worker that died mid-write leaves a cut message
            return None


def fit(spec: ModelSpec, manifest: DatasetManifest, cfg: TrainingConfig) -> tuple[ParameterStore, History]:
    """Train a model on the manifest's training split.

    The validation set is the last validation_split fraction of the
    seeded-shuffled training list, carved once before epoch 1; it never
    contributes gradients. Returns the final-epoch weights (no rollback on
    early stop) and the per-epoch history.

    Each batch of two or more clips is stepped by forked workers, as many
    as CPUs in the process's affinity mask and at most one per clip
    (``_forked_batch`` gives the protocol); ``taskset -c 0`` gives a serial
    fit, as does a host without ``os.fork`` or OpenBLAS's thread-count API.
    Weights and history do not depend on the worker count wherever a
    step's bits do not depend on the BLAS thread count, as on OpenBLAS's
    SkylakeX kernel: workers run at one BLAS thread, so on a kernel that
    splits a conv-backward GEMM's sums across threads (OpenBLAS's Haswell
    kernel) their bits can differ from an in-process batch at more. While
    workers run, this process's OpenBLAS pool is pinned to one thread; the
    old count is restored, and no worker is left running, when ``fit``
    goes on or leaves. A clip's error is raised here with the serial type
    and message, for the earliest failing clip in batch order; a worker
    that dies any other way is a ``TrainingError`` naming its first clip.
    """
    if not manifest.train:
        raise TrainingError("training set is empty")
    num_classes = len(manifest.class_names)
    if num_classes != spec.num_classes:
        raise TrainingError(
            f"manifest has {num_classes} classes but model expects {spec.num_classes}"
        )

    rng = Rng(cfg.seed)
    params = models.init_model(spec, rng)
    state = AdamState()

    pool = list(manifest.train)
    rng.shuffle(pool)
    n_val = int(len(pool) * cfg.validation_split)
    if n_val == 0:
        raise TrainingError(
            f"validation split {cfg.validation_split} leaves zero validation samples"
        )
    val_set = pool[-n_val:]
    pool = pool[:-n_val]
    if not pool:
        raise TrainingError("validation split leaves zero training samples")

    history = History()
    val_losses: list[float] = []
    for epoch in range(1, cfg.max_epochs + 1):
        rng.shuffle(pool)
        loss_sum = correct = 0.0
        try:
            for start in range(0, len(pool), cfg.batch_size):
                batch = pool[start : start + cfg.batch_size]
                grads, outcomes = _batch_gradient(spec, params, batch, num_classes)
                for loss, hit in outcomes:
                    loss_sum += loss
                    correct += hit
                adam_step(params, grads, state, cfg.learning_rate)
            train_loss = loss_sum / len(pool)
            train_acc = correct / len(pool)

            v_loss_sum = v_correct = 0.0
            for sample in val_set:
                loss, hit = _clip_loss(spec, params, sample, num_classes)
                v_loss_sum += loss.item()
                v_correct += hit
            val_loss = v_loss_sum / len(val_set)
            val_acc = v_correct / len(val_set)
        except (ShapeError, tn.NonFiniteError, TrainingError) as exc:
            exc.args = (f"epoch {epoch}: {exc}",)
            raise

        history.records.append(EpochRecord(epoch, train_loss, train_acc, val_loss, val_acc))
        val_losses.append(val_loss)
        if early_stopping_check(val_losses, cfg.patience, cfg.min_epochs):
            history.stopped_early = True
            break

    history.best_epoch = 1 + int(np.argmin(val_losses))
    return params, history
