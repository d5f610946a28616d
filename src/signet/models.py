"""Builders for the four clip-classification architectures.

Every builder takes a clip shape (T, H, W, C) and a class count, and
``_spec`` ends each chain with dense(num_classes) + softmax, so any model's
forward pass returns a probability vector over classes. The architecture
identifiers ``cnn_lstm | cnn3d | cnn_rnn_lstm | cnn_td`` are the stable
strings used by the CLI and the model-file header.

Each builder is its layer list. The chain alone sets each architecture's
smallest clip: a builder traces its layers over the input shape and rejects
a clip that its convolutions and pools cannot fit. cnn_rnn_lstm adds the
one limit its chain does not imply, a floor of two frames.

Default hyperparameters are sized so that the 3-d convolutional model has
the largest parameter count of the four at the default input shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .data import PreprocessConfig
from .nn import LayerConfig, ParameterStore
from .tensor import Rng, ShapeError, Tensor, _integers

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

DEFAULT_INPUT_SHAPE = PreprocessConfig().clip_shape


@dataclass
class ModelSpec:
    """One architecture instantiated for a fixed input shape and class count.

    ``feature_extractor_trainable`` is derived from the layers: it is False
    exactly when some top-level layer is frozen, which only a frozen
    cnn_rnn_lstm extractor is. The other three architectures have no
    separable extractor, so it is always True for them.
    """

    architecture: str
    input_shape: tuple
    num_classes: int
    layers: list[LayerConfig]

    @property
    def feature_extractor_trainable(self) -> bool:
        return all(cfg.trainable for cfg in self.layers)


def _spec(arch: str, input_shape, num_classes: int, body: list[LayerConfig]) -> ModelSpec:
    """The checked spec of one architecture: its ``body`` of layers, then
    the dense(num_classes) and softmax head.

    Only what the chain cannot see is checked here: a (T, H, W, C) shape
    with positive extents, and an integral class count of at least two,
    taken before the head is made. Tracing the chain then rejects a clip too
    small for its convolutions and pools, so the layers alone set each
    architecture's smallest clip.
    """
    shape = _integers(input_shape, f"{arch}: input shape")
    if len(shape) != 4:
        raise ShapeError(f"{arch}: input shape must be (T, H, W, C), got {shape}")
    if min(shape) < 1:
        raise ShapeError(f"{arch}: non-positive input extent in {shape}")
    (num_classes,) = _integers((num_classes,), f"{arch}: class count")
    if num_classes < 2:
        raise ShapeError(f"{arch}: needs at least 2 classes")
    layers = body + [LayerConfig("dense", units=num_classes), LayerConfig("softmax")]
    try:
        nn.trace_layers(layers, shape)
    except ShapeError as exc:
        raise ShapeError(f"{arch}: input {shape} is too small: {exc}") from exc
    return ModelSpec(arch, shape, num_classes, layers)


def build_cnn_lstm(input_shape, num_classes: int) -> ModelSpec:
    """Convolutional-LSTM front end feeding a dense classifier.

    convlstm2d(8 filters, 3x3, same, final state) -> maxpool2d 2x2 ->
    flatten -> dense(num_classes) -> softmax.
    """
    layers = [
        LayerConfig("convlstm2d", units=8, kernel_size=(3, 3), padding="same"),
        LayerConfig("maxpool2d", kernel_size=(2, 2)),
        LayerConfig("flatten"),
    ]
    return _spec("cnn_lstm", input_shape, num_classes, layers)


def build_cnn3d(input_shape, num_classes: int) -> ModelSpec:
    """Three conv3d/relu/maxpool3d blocks, then dense(128) and the classifier.

    Filter widths 8 -> 16 -> 32; the first pool keeps the time axis intact.
    """
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
    ]
    return _spec("cnn3d", input_shape, num_classes, layers)


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
    input_shape, num_classes: int, feature_extractor_trainable: bool = False
) -> ModelSpec:
    """Per-frame CNN features into a simple RNN, then an LSTM classifier head.

    With ``feature_extractor_trainable=False`` (the default) the wrapped
    CNN keeps its seeded random initial weights. Its parameters need no
    gradient, so a training step never records the extractor on the tape
    and the optimizer skips it. The frozen extractor stands in for the
    paper's pretrained transfer-learning front end, since no pretrained
    weights ship with signet.
    """
    layers = [
        LayerConfig(
            "time_distributed",
            wrapped=_frame_extractor(64, feature_extractor_trainable),
            trainable=feature_extractor_trainable,
        ),
        LayerConfig("simple_rnn", units=32, return_sequences=True),
        LayerConfig("lstm", units=32),
    ]
    spec = _spec("cnn_rnn_lstm", input_shape, num_classes, layers)
    # The one limit the chain does not imply. It follows _spec, which has
    # checked that the shape has a frame axis to read.
    if spec.input_shape[0] < 2:
        raise ShapeError(f"cnn_rnn_lstm: input {spec.input_shape} is too small: needs 2 frames")
    return spec


def build_cnn_td(input_shape, num_classes: int) -> ModelSpec:
    """Shared-weight per-frame CNN, flattened over time into the classifier."""
    layers = [
        LayerConfig("time_distributed", wrapped=_frame_extractor(32, True)),
        LayerConfig("flatten"),
    ]
    return _spec("cnn_td", input_shape, num_classes, layers)


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
    """Build any architecture by its identifier string.

    ``feature_extractor_trainable`` concerns cnn_rnn_lstm only, whose
    time-distributed extractor it freezes when False. cnn_lstm, cnn3d and
    cnn_td have no separable extractor and are always fully trainable,
    whatever the flag says.
    """
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
        math.prod(p.shape)
        for p in plans
        if not trainable_only or p.trainable
    )


def init_model(spec: ModelSpec, rng: Rng) -> ParameterStore:
    """Fresh float32 parameters for a spec; bit-identical for a given rng state."""
    return nn.init_params(spec.layers, spec.input_shape, rng)


def forward(spec: ModelSpec, params: ParameterStore, clip: Tensor) -> Tensor:
    """Probability vector (num_classes,) for one clip tensor (T, H, W, C).

    Training and inference run the same ops; under an open tape the taped
    ones are recorded for the backward pass.
    """
    if clip.shape != spec.input_shape:
        raise ShapeError(
            f"clip shape {clip.shape} does not match model input {spec.input_shape}"
        )
    return nn.apply_layers(spec.layers, params, clip)


def predict_probs(spec: ModelSpec, params: ParameterStore, frames: np.ndarray) -> np.ndarray:
    """Forward pass outside any tape; returns a plain numpy probability row."""
    out = forward(spec, params, Tensor(np.asarray(frames, dtype=np.float32)))
    return out.data
