"""Loss, metrics, Adam, early stopping, and the mini-batch training loop.

``fit`` is fully deterministic: the training config's seed drives
parameter initialization, the one-time validation carve-out, and every
epoch's shuffle, so a (spec, manifest, config) triple always produces
bit-identical weights and history.
"""

from __future__ import annotations

import io
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


def fit(spec: ModelSpec, manifest: DatasetManifest, cfg: TrainingConfig) -> tuple[ParameterStore, History]:
    """Train a model on the manifest's training split.

    The validation set is the last validation_split fraction of the
    seeded-shuffled training list, carved once before epoch 1; it never
    contributes gradients. Returns the final-epoch weights (no rollback on
    early stop) and the per-epoch history.
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
                grads = {}
                inv = 1.0 / len(batch)
                for sample in batch:
                    with tn.record(grads) as tape:
                        loss, hit = _clip_loss(spec, params, sample, num_classes)
                        scaled = tn.scale(loss, inv)  # batch loss = mean over clips
                    tape.backward(scaled)
                    loss_sum += loss.item()
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
        except (ShapeError, tn.NonFiniteError) as exc:
            exc.args = (f"epoch {epoch}: {exc}",)
            raise

        history.records.append(EpochRecord(epoch, train_loss, train_acc, val_loss, val_acc))
        val_losses.append(val_loss)
        if early_stopping_check(val_losses, cfg.patience, cfg.min_epochs):
            history.stopped_early = True
            break

    history.best_epoch = 1 + int(np.argmin(val_losses))
    return params, history
