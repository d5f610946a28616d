"""Builders for the four clip-classification architectures.

Every builder takes a clip shape (T, H, W, C) and a class count and ends
the chain with dense(num_classes) + softmax, so any model's forward pass
returns a probability vector over classes. The architecture identifiers
``cnn_lstm | cnn3d | cnn_rnn_lstm | cnn_td`` are the stable strings used
by the CLI and the model-file header.

Default hyperparameters are sized so that the 3-d convolutional model has
the largest parameter count of the four at the default input shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .nn import LayerConfig, ParameterStore
from .tensor import Rng, ShapeError, Tensor

__all__ = [
    "ARCHITECTURES",
    "ModelSpec",
    "build_cnn_lstm",
    "build_cnn3d",
    "build_cnn_rnn_lstm",
    "build_cnn_td",
    "build",
    "param_count",
    "init_model",
    "forward",
    "predict_probs",
]

DEFAULT_INPUT_SHAPE = (35, 64, 64, 1)


@dataclass
class ModelSpec:
    """One architecture instantiated for a fixed input shape and class count."""

    architecture: str
    input_shape: tuple
    num_classes: int
    layers: list[LayerConfig] = field(default_factory=list)
    feature_extractor_trainable: bool = True


def _validate_input(input_shape, num_classes, min_t, min_hw, arch):
    if len(input_shape) != 4:
        raise ShapeError(f"{arch}: input shape must be (T, H, W, C), got {input_shape}")
    t, h, w, c = input_shape
    if min(t, h, w, c) < 1:
        raise ShapeError(f"{arch}: non-positive input extent in {input_shape}")
    if t < min_t:
        raise ShapeError(f"{arch}: needs at least {min_t} frames, got {t}")
    if h < min_hw or w < min_hw:
        raise ShapeError(f"{arch}: needs spatial extents >= {min_hw}, got {h}x{w}")
    if num_classes < 2:
        raise ShapeError(f"{arch}: needs at least 2 classes")


def _finish(spec: ModelSpec) -> ModelSpec:
    # Shape-check the whole chain now so bad configs fail at build time.
    out, _ = nn.trace_layers(spec.layers, spec.input_shape)
    if out != (spec.num_classes,):
        raise ShapeError(
            f"{spec.architecture}: chain produces {out}, expected ({spec.num_classes},)"
        )
    return spec


def build_cnn_lstm(input_shape=DEFAULT_INPUT_SHAPE, num_classes: int = 10) -> ModelSpec:
    """Convolutional-LSTM front end feeding a dense classifier.

    convlstm2d(8 filters, 3x3, same, final state) -> maxpool2d 2x2 ->
    flatten -> dense(num_classes) -> softmax.
    """
    _validate_input(input_shape, num_classes, min_t=1, min_hw=2, arch="cnn_lstm")
    layers = [
        LayerConfig("convlstm2d", units=8, kernel_size=(3, 3), padding="same"),
        LayerConfig("maxpool2d", kernel_size=(2, 2)),
        LayerConfig("flatten"),
        LayerConfig("dense", units=num_classes),
        LayerConfig("softmax"),
    ]
    return _finish(ModelSpec("cnn_lstm", tuple(input_shape), num_classes, layers))


def build_cnn3d(input_shape=DEFAULT_INPUT_SHAPE, num_classes: int = 10) -> ModelSpec:
    """Three conv3d/relu/maxpool3d blocks, then dense(128) and the classifier.

    Filter widths 8 -> 16 -> 32; the first pool keeps the time axis intact.
    """
    _validate_input(input_shape, num_classes, min_t=4, min_hw=8, arch="cnn3d")
    layers = [
        LayerConfig("conv3d", filters=8, kernel_size=(3, 3, 3), padding="same"),
        LayerConfig("relu"),
        LayerConfig("maxpool3d", kernel_size=(1, 2, 2)),
        LayerConfig("conv3d", filters=16, kernel_size=(3, 3, 3), padding="same"),
        LayerConfig("relu"),
        LayerConfig("maxpool3d", kernel_size=(2, 2, 2)),
        LayerConfig("conv3d", filters=32, kernel_size=(3, 3, 3), padding="same"),
        LayerConfig("relu"),
        LayerConfig("maxpool3d", kernel_size=(2, 2, 2)),
        LayerConfig("flatten"),
        LayerConfig("dense", units=128),
        LayerConfig("relu"),
        LayerConfig("dense", units=num_classes),
        LayerConfig("softmax"),
    ]
    return _finish(ModelSpec("cnn3d", tuple(input_shape), num_classes, layers))


def _frame_extractor(dense_units: int, trainable: bool) -> list[LayerConfig]:
    return [
        LayerConfig("conv2d", filters=8, kernel_size=(3, 3), padding="same", trainable=trainable),
        LayerConfig("relu"),
        LayerConfig("maxpool2d", kernel_size=(2, 2)),
        LayerConfig("conv2d", filters=16, kernel_size=(3, 3), padding="same", trainable=trainable),
        LayerConfig("relu"),
        LayerConfig("maxpool2d", kernel_size=(2, 2)),
        LayerConfig("flatten"),
        LayerConfig("dense", units=dense_units, trainable=trainable),
        LayerConfig("relu"),
    ]


def build_cnn_rnn_lstm(
    input_shape=DEFAULT_INPUT_SHAPE,
    num_classes: int = 10,
    feature_extractor_trainable: bool = False,
) -> ModelSpec:
    """Per-frame CNN features into a simple RNN, then an LSTM classifier head.

    With ``feature_extractor_trainable=False`` (the default) the wrapped
    CNN keeps its seeded random initial weights. Its parameters need no
    gradient, so a training step never records the extractor on the tape
    and the optimizer skips it. The frozen extractor stands in for the
    paper's pretrained transfer-learning front end, since no pretrained
    weights ship with signet.
    """
    _validate_input(input_shape, num_classes, min_t=2, min_hw=4, arch="cnn_rnn_lstm")
    layers = [
        LayerConfig(
            "time_distributed",
            wrapped=_frame_extractor(64, feature_extractor_trainable),
            trainable=feature_extractor_trainable,
        ),
        LayerConfig("simple_rnn", units=32, return_sequences=True),
        LayerConfig("lstm", units=32),
        LayerConfig("dense", units=num_classes),
        LayerConfig("softmax"),
    ]
    spec = ModelSpec(
        "cnn_rnn_lstm",
        tuple(input_shape),
        num_classes,
        layers,
        feature_extractor_trainable=feature_extractor_trainable,
    )
    return _finish(spec)


def build_cnn_td(input_shape=DEFAULT_INPUT_SHAPE, num_classes: int = 10) -> ModelSpec:
    """Shared-weight per-frame CNN, flattened over time into the classifier."""
    _validate_input(input_shape, num_classes, min_t=1, min_hw=4, arch="cnn_td")
    layers = [
        LayerConfig("time_distributed", wrapped=_frame_extractor(32, True)),
        LayerConfig("flatten"),
        LayerConfig("dense", units=num_classes),
        LayerConfig("softmax"),
    ]
    return _finish(ModelSpec("cnn_td", tuple(input_shape), num_classes, layers))


_BUILDERS = {
    "cnn_lstm": build_cnn_lstm,
    "cnn3d": build_cnn3d,
    "cnn_rnn_lstm": build_cnn_rnn_lstm,
    "cnn_td": build_cnn_td,
}

ARCHITECTURES = tuple(_BUILDERS)


def build(
    architecture: str,
    input_shape=DEFAULT_INPUT_SHAPE,
    num_classes: int = 10,
    feature_extractor_trainable: bool = False,
) -> ModelSpec:
    """Build any architecture by its identifier string."""
    if architecture not in _BUILDERS:
        raise ShapeError(
            f"unknown architecture {architecture!r}; pick one of {', '.join(ARCHITECTURES)}"
        )
    if architecture == "cnn_rnn_lstm":
        return build_cnn_rnn_lstm(input_shape, num_classes, feature_extractor_trainable)
    return _BUILDERS[architecture](input_shape, num_classes)


def param_count(spec: ModelSpec, trainable_only: bool = False) -> int:
    """Total parameter scalars, optionally restricted to trainable ones."""
    _, plans = nn.trace_layers(spec.layers, spec.input_shape)
    return sum(
        int(np.prod(p.shape, dtype=np.int64))
        for p in plans
        if not trainable_only or p.trainable
    )


def init_model(spec: ModelSpec, rng: Rng, dtype=np.float32) -> ParameterStore:
    """Fresh parameters for a spec; bit-identical for a given rng state."""
    return nn.init_params(spec.layers, spec.input_shape, rng, dtype=dtype)


def forward(
    spec: ModelSpec,
    params: ParameterStore,
    clip: Tensor,
    train: bool = False,
    rng: Rng | None = None,
) -> Tensor:
    """Probability vector (num_classes,) for one clip tensor (T, H, W, C)."""
    if clip.shape != spec.input_shape:
        raise ShapeError(
            f"clip shape {clip.shape} does not match model input {spec.input_shape}"
        )
    return nn.apply_layers(spec.layers, params, clip, train=train, rng=rng)


def predict_probs(spec: ModelSpec, params: ParameterStore, frames: np.ndarray) -> np.ndarray:
    """Forward pass outside any tape; returns a plain numpy probability row."""
    out = forward(spec, params, Tensor(np.asarray(frames, dtype=np.float32)))
    return out.data.copy()
