"""Layer library: dense, activations, recurrence, and parameter stores.

Layers are pure functions of (parameters, input). ``LayerConfig`` describes
one layer declaratively; ``trace_layers`` walks a config chain to validate
shapes and enumerate parameter tensors, and ``apply_layers`` runs the same
chain on data. Both walks visit layers in the same order, so parameter
names, initialization draws, and serialization stay aligned.

Gate packing for the recurrent layers is (i, f, g, o) along the last axis
of the packed kernels; serialized weights depend on this order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tn
from .tensor import Rng, ShapeError, Tensor

__all__ = [
    "LayerConfig",
    "ParameterStore",
    "dense",
    "softmax",
    "relu",
    "dropout",
    "simple_rnn",
    "lstm",
    "convlstm2d",
    "time_distributed",
    "trace_layers",
    "init_params",
    "apply_layers",
]

LAYER_KINDS = (
    "dense",
    "relu",
    "softmax",
    "flatten",
    "dropout",
    "conv2d",
    "conv3d",
    "maxpool2d",
    "maxpool3d",
    "simple_rnn",
    "lstm",
    "convlstm2d",
    "time_distributed",
)

RECURRENT_KINDS = ("simple_rnn", "lstm", "convlstm2d")


@dataclass
class LayerConfig:
    """Declarative description of one layer.

    Only the fields relevant to ``kind`` are consulted; the rest stay None.
    """

    kind: str
    units: int | None = None
    filters: int | None = None
    kernel_size: tuple | None = None
    stride: tuple | int | None = None
    padding: str | None = None
    rate: float | None = None
    return_sequences: bool = False
    trainable: bool = True
    wrapped: list["LayerConfig"] | None = None

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ShapeError(f"unknown layer kind {self.kind!r}")
        if self.kind == "dense" and (self.units is None or self.units < 1):
            raise ShapeError("dense needs units >= 1")
        if self.kind in ("conv2d", "conv3d"):
            if self.filters is None or self.filters < 1:
                raise ShapeError(f"{self.kind} needs filters >= 1")
            if not self.kernel_size or any(k < 1 for k in self.kernel_size):
                raise ShapeError(f"{self.kind} needs a positive kernel_size")
        if self.kind in ("maxpool2d", "maxpool3d"):
            if not self.kernel_size or any(k < 1 for k in self.kernel_size):
                raise ShapeError(f"{self.kind} needs a positive window")
        if self.kind == "dropout":
            if self.rate is None or not (0.0 <= self.rate < 1.0):
                raise ShapeError("dropout rate must lie in [0, 1)")
        if self.kind in RECURRENT_KINDS and (self.units is None or self.units < 1):
            raise ShapeError(f"{self.kind} needs units >= 1")
        if self.kind == "convlstm2d":
            if not self.kernel_size or any(k < 1 for k in self.kernel_size):
                raise ShapeError("convlstm2d needs a positive kernel_size")
        if self.kind == "time_distributed":
            if not self.wrapped:
                raise ShapeError("time_distributed must wrap at least one layer")
            for cfg in self.wrapped:
                if cfg.kind in RECURRENT_KINDS or cfg.kind == "time_distributed":
                    raise ShapeError(f"time_distributed cannot wrap {cfg.kind}")
        if self.kernel_size is not None:
            self.kernel_size = tuple(int(k) for k in self.kernel_size)

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for key in ("units", "filters", "rate"):
            v = getattr(self, key)
            if v is not None:
                d[key] = v
        if self.kernel_size is not None:
            d["kernel_size"] = list(self.kernel_size)
        if self.stride is not None:
            d["stride"] = list(self.stride) if isinstance(self.stride, tuple) else self.stride
        if self.padding is not None:
            d["padding"] = self.padding
        if self.kind in RECURRENT_KINDS:
            d["return_sequences"] = self.return_sequences
        if not self.trainable:
            d["trainable"] = False
        if self.wrapped is not None:
            d["wrapped"] = [cfg.to_dict() for cfg in self.wrapped]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "LayerConfig":
        kwargs = dict(d)
        if "kernel_size" in kwargs:
            kwargs["kernel_size"] = tuple(kwargs["kernel_size"])
        if isinstance(kwargs.get("stride"), list):
            kwargs["stride"] = tuple(kwargs["stride"])
        if "wrapped" in kwargs:
            kwargs["wrapped"] = [cls.from_dict(w) for w in kwargs["wrapped"]]
        kwargs.setdefault("trainable", True)
        kwargs.setdefault("return_sequences", False)
        return cls(**kwargs)


class ParameterStore:
    """Named parameter tensors with a per-parameter trainable mask.

    Iteration order is insertion order and is the canonical order for
    initialization draws and serialization. ``add`` sets each tensor's
    ``requires_grad`` from its trainable flag, so frozen parameters are
    never recorded on a tape and never receive gradients.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._trainable: dict[str, bool] = {}

    def add(self, name: str, t: Tensor, trainable: bool = True) -> None:
        if name in self._params:
            raise ShapeError(f"duplicate parameter name {name!r}")
        t.requires_grad = bool(trainable)
        self._params[name] = t
        self._trainable[name] = t.requires_grad

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def is_trainable(self, name: str) -> bool:
        return self._trainable[name]

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def size(self, trainable_only: bool = False) -> int:
        return sum(
            t.numel
            for name, t in self._params.items()
            if not trainable_only or self._trainable[name]
        )


# ---------------------------------------------------------------------------
# Layer functions
# ---------------------------------------------------------------------------


def dense(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """x . kernel + bias over the trailing axis; leading axes pass through."""
    k_in, k_out = kernel.shape
    if x.shape[-1] != k_in:
        raise ShapeError(f"dense: trailing extent {x.shape[-1]} != kernel rows {k_in}")
    lead = x.shape[:-1]
    flat = tn.reshape(x, (int(np.prod(lead, dtype=np.int64)) if lead else 1, k_in))
    out = tn.add(tn.matmul(flat, kernel), tn.reshape(bias, (1, k_out)))
    return tn.reshape(out, lead + (k_out,))


softmax = tn.softmax
relu = tn.relu


def dropout(x: Tensor, rate: float, train: bool, rng: Rng | None = None) -> Tensor:
    """Inverted dropout: scales kept values by 1/(1-rate) at train time."""
    if not (0.0 <= rate < 1.0):
        raise ShapeError("dropout rate must lie in [0, 1)")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ShapeError("dropout in train mode needs an Rng")
    keep = 1.0 - rate
    mask = (rng.uniforms(x.numel) < keep).astype(x.data.dtype).reshape(x.shape)
    return tn.scale(tn.mul(x, Tensor(mask)), 1.0 / keep)


def _split_gates(packed: Tensor, units: int, axis: int = -1):
    """(i, f, g, o) slices from a packed 4*units axis."""
    ax = packed.data.ndim - 1 if axis == -1 else axis
    return tuple(tn.narrow(packed, ax, k * units, units) for k in range(4))


def simple_rnn(
    seq: Tensor,
    kernel: Tensor,
    recurrent_kernel: Tensor,
    bias: Tensor,
    return_sequences: bool = False,
) -> Tensor:
    """h_t = tanh(x_t . Wx + h_{t-1} . Wh + b) from a zero initial state."""
    steps, dim = seq.shape
    units = kernel.shape[1]
    if kernel.shape != (dim, units) or recurrent_kernel.shape != (units, units):
        raise ShapeError(
            f"simple_rnn: kernels {kernel.shape}/{recurrent_kernel.shape} do not fit input {seq.shape}"
        )
    h = Tensor(np.zeros((1, units), dtype=seq.data.dtype))
    brow = tn.reshape(bias, (1, units))
    outputs = []
    for t in range(steps):
        x_t = tn.narrow(seq, 0, t, 1)
        h = tn.tanh(tn.add(tn.add(tn.matmul(x_t, kernel), tn.matmul(h, recurrent_kernel)), brow))
        outputs.append(tn.reshape(h, (units,)))
    if return_sequences:
        return tn.stack(outputs, axis=0)
    return outputs[-1]


def lstm(
    seq: Tensor,
    kernel: Tensor,
    recurrent_kernel: Tensor,
    bias: Tensor,
    return_sequences: bool = False,
) -> Tensor:
    """Standard LSTM over a (T, D) sequence.

    Gates i, f, g, o come from one packed (D, 4U) kernel and (U, 4U)
    recurrent kernel; c' = f*c + i*g and h' = o*tanh(c').
    """
    steps, dim = seq.shape
    units = recurrent_kernel.shape[0]
    if kernel.shape != (dim, 4 * units) or recurrent_kernel.shape != (units, 4 * units):
        raise ShapeError(
            f"lstm: kernels {kernel.shape}/{recurrent_kernel.shape} do not fit input {seq.shape}"
        )
    if bias.shape != (4 * units,):
        raise ShapeError(f"lstm: bias shape {bias.shape} != ({4 * units},)")
    zeros = np.zeros((1, units), dtype=seq.data.dtype)
    h, c = Tensor(zeros), Tensor(zeros.copy())
    brow = tn.reshape(bias, (1, 4 * units))
    outputs = []
    for t in range(steps):
        x_t = tn.narrow(seq, 0, t, 1)
        gates = tn.add(
            tn.add(tn.matmul(x_t, kernel), tn.matmul(h, recurrent_kernel)), brow
        )
        gi, gf, gg, go = _split_gates(gates, units)
        i, f, g, o = tn.sigmoid(gi), tn.sigmoid(gf), tn.tanh(gg), tn.sigmoid(go)
        c = tn.add(tn.mul(f, c), tn.mul(i, g))
        h = tn.mul(o, tn.tanh(c))
        outputs.append(tn.reshape(h, (units,)))
    if return_sequences:
        return tn.stack(outputs, axis=0)
    return outputs[-1]


def convlstm2d(
    seq: Tensor,
    kernel: Tensor,
    recurrent_kernel: Tensor,
    bias: Tensor,
    return_sequences: bool = False,
) -> Tensor:
    """LSTM recurrence with the matrix products replaced by 2-d convolution.

    Input is (T, H, W, Cin); kernels are (kH, kW, Cin, 4U) and
    (kH, kW, U, 4U). Same-padding, stride 1, so spatial extents persist.
    """
    if seq.data.ndim != 4:
        raise ShapeError(f"convlstm2d: input must be (T, H, W, C), got {seq.shape}")
    steps, height, width, cin = seq.shape
    units = recurrent_kernel.shape[2]
    kh, kw = kernel.shape[0], kernel.shape[1]
    if kernel.shape != (kh, kw, cin, 4 * units) or recurrent_kernel.shape != (kh, kw, units, 4 * units):
        raise ShapeError(
            f"convlstm2d: kernels {kernel.shape}/{recurrent_kernel.shape} do not fit input {seq.shape}"
        )
    if bias.shape != (4 * units,):
        raise ShapeError(f"convlstm2d: bias shape {bias.shape} != ({4 * units},)")
    zeros = np.zeros((height, width, units), dtype=seq.data.dtype)
    h, c = Tensor(zeros), Tensor(zeros.copy())
    outputs = []
    for t in range(steps):
        x_t = tn.reshape(tn.narrow(seq, 0, t, 1), (height, width, cin))
        gates = tn.add(
            tn.conv2d(x_t, kernel, bias, padding="same", stride=1),
            tn.conv2d(h, recurrent_kernel, None, padding="same", stride=1),
        )
        gi, gf, gg, go = _split_gates(gates, units)
        i, f, g, o = tn.sigmoid(gi), tn.sigmoid(gf), tn.tanh(gg), tn.sigmoid(go)
        c = tn.add(tn.mul(f, c), tn.mul(i, g))
        h = tn.mul(o, tn.tanh(c))
        outputs.append(h)
    if return_sequences:
        return tn.stack(outputs, axis=0)
    return outputs[-1]


def time_distributed(apply_frame, seq: Tensor) -> Tensor:
    """Apply one frame function to every leading-axis slice and restack.

    ``apply_frame`` must close over a single shared parameter set, so the
    gradient w.r.t. those parameters is the sum over frames.
    """
    steps = seq.shape[0]
    frame_shape = seq.shape[1:]
    outputs = []
    for t in range(steps):
        frame = tn.reshape(tn.narrow(seq, 0, t, 1), frame_shape)
        outputs.append(apply_frame(frame))
    return tn.stack(outputs, axis=0)


# ---------------------------------------------------------------------------
# Config-driven trace / init / apply
# ---------------------------------------------------------------------------


@dataclass
class ParamPlan:
    name: str
    shape: tuple
    trainable: bool
    init: str  # glorot | zeros | gate_bias
    fan_in: int = 0
    fan_out: int = 0


def _conv_out_shape(in_sp, k_sp, stride, padding, kind):
    strides = tn._norm_stride(stride if stride is not None else 1, len(k_sp))
    _, outs = tn._conv_geometry(in_sp, k_sp, strides, padding or "valid")
    return outs


def _pool_out_shape(in_sp, window, stride, kind):
    strides = tn._norm_stride(stride if stride is not None else window, len(window))
    for size, w in zip(in_sp, window):
        if w > size:
            raise ShapeError(f"{kind}: window {window} does not fit input {in_sp}")
    return tuple((size - w) // st + 1 for size, w, st in zip(in_sp, window, strides))


def trace_layers(
    layers: list[LayerConfig], input_shape: tuple, prefix: str = "layer"
) -> tuple[tuple, list[ParamPlan]]:
    """Validate a layer chain and enumerate its parameters in order.

    Returns (output_shape, parameter plans). Raises ShapeError if any layer
    does not fit the shape produced by its predecessor.
    """
    shape = tuple(int(s) for s in input_shape)
    plans: list[ParamPlan] = []
    for i, cfg in enumerate(layers):
        name = f"{prefix}{i}_{cfg.kind}"
        if cfg.kind == "dense":
            if len(shape) < 1:
                raise ShapeError("dense needs at least one axis")
            k, n = shape[-1], cfg.units
            plans.append(ParamPlan(f"{name}/kernel", (k, n), cfg.trainable, "glorot", k, n))
            plans.append(ParamPlan(f"{name}/bias", (n,), cfg.trainable, "zeros"))
            shape = shape[:-1] + (n,)
        elif cfg.kind in ("relu", "softmax", "dropout"):
            pass
        elif cfg.kind == "flatten":
            shape = (int(np.prod(shape, dtype=np.int64)),)
        elif cfg.kind in ("conv2d", "conv3d"):
            nd = 2 if cfg.kind == "conv2d" else 3
            if len(shape) != nd + 1:
                raise ShapeError(f"{cfg.kind} needs {nd + 1}-d input, got {shape}")
            k_sp = cfg.kernel_size
            if len(k_sp) != nd:
                raise ShapeError(f"{cfg.kind}: kernel_size {k_sp} must have {nd} extents")
            cin, cout = shape[-1], cfg.filters
            rf = int(np.prod(k_sp, dtype=np.int64))
            plans.append(
                ParamPlan(
                    f"{name}/kernel", k_sp + (cin, cout), cfg.trainable, "glorot",
                    rf * cin, rf * cout,
                )
            )
            plans.append(ParamPlan(f"{name}/bias", (cout,), cfg.trainable, "zeros"))
            outs = _conv_out_shape(shape[:-1], k_sp, cfg.stride, cfg.padding, cfg.kind)
            shape = outs + (cout,)
        elif cfg.kind in ("maxpool2d", "maxpool3d"):
            nd = 2 if cfg.kind == "maxpool2d" else 3
            if len(shape) != nd + 1:
                raise ShapeError(f"{cfg.kind} needs {nd + 1}-d input, got {shape}")
            outs = _pool_out_shape(shape[:-1], cfg.kernel_size, cfg.stride, cfg.kind)
            shape = outs + (shape[-1],)
        elif cfg.kind == "simple_rnn":
            if len(shape) != 2:
                raise ShapeError(f"simple_rnn needs (T, D) input, got {shape}")
            t, d, u = shape[0], shape[1], cfg.units
            plans.append(ParamPlan(f"{name}/kernel", (d, u), cfg.trainable, "glorot", d, u))
            plans.append(
                ParamPlan(f"{name}/recurrent_kernel", (u, u), cfg.trainable, "glorot", u, u)
            )
            plans.append(ParamPlan(f"{name}/bias", (u,), cfg.trainable, "zeros"))
            shape = (t, u) if cfg.return_sequences else (u,)
        elif cfg.kind == "lstm":
            if len(shape) != 2:
                raise ShapeError(f"lstm needs (T, D) input, got {shape}")
            t, d, u = shape[0], shape[1], cfg.units
            plans.append(ParamPlan(f"{name}/kernel", (d, 4 * u), cfg.trainable, "glorot", d, 4 * u))
            plans.append(
                ParamPlan(f"{name}/recurrent_kernel", (u, 4 * u), cfg.trainable, "glorot", u, 4 * u)
            )
            plans.append(ParamPlan(f"{name}/bias", (4 * u,), cfg.trainable, "gate_bias"))
            shape = (t, u) if cfg.return_sequences else (u,)
        elif cfg.kind == "convlstm2d":
            if len(shape) != 4:
                raise ShapeError(f"convlstm2d needs (T, H, W, C) input, got {shape}")
            if cfg.padding not in (None, "same"):
                raise ShapeError("convlstm2d supports same-padding only")
            t, hgt, wid, cin = shape
            u = cfg.units
            kh, kw = cfg.kernel_size
            rf = kh * kw
            plans.append(
                ParamPlan(
                    f"{name}/kernel", (kh, kw, cin, 4 * u), cfg.trainable, "glorot",
                    rf * cin, rf * 4 * u,
                )
            )
            plans.append(
                ParamPlan(
                    f"{name}/recurrent_kernel", (kh, kw, u, 4 * u), cfg.trainable, "glorot",
                    rf * u, rf * 4 * u,
                )
            )
            plans.append(ParamPlan(f"{name}/bias", (4 * u,), cfg.trainable, "gate_bias"))
            shape = (t, hgt, wid, u) if cfg.return_sequences else (hgt, wid, u)
        elif cfg.kind == "time_distributed":
            if len(shape) < 2:
                raise ShapeError(f"time_distributed needs a leading time axis, got {shape}")
            frame_out, sub = trace_layers(cfg.wrapped, shape[1:], prefix=f"{name}/td")
            plans.extend(sub)
            shape = (shape[0],) + frame_out
        else:  # pragma: no cover - guarded by LayerConfig
            raise ShapeError(f"unknown layer kind {cfg.kind!r}")
    return shape, plans


def init_params(
    layers: list[LayerConfig],
    input_shape: tuple,
    rng: Rng,
    dtype=np.float32,
    prefix: str = "layer",
) -> ParameterStore:
    """Create a ParameterStore for a layer chain.

    Kernels are Glorot-uniform with limit sqrt(6 / (fan_in + fan_out));
    biases start at zero except the forget-gate slice of lstm/convlstm2d
    biases, which starts at 1. Draws consume the rng stream in plan order,
    so a given seed always produces the same store.
    """
    _, plans = trace_layers(layers, input_shape, prefix=prefix)
    store = ParameterStore()
    for plan in plans:
        n = int(np.prod(plan.shape, dtype=np.int64))
        if plan.init == "glorot":
            limit = math.sqrt(6.0 / (plan.fan_in + plan.fan_out))
            values = (rng.uniforms(n) * 2.0 - 1.0) * limit
            data = values.astype(dtype).reshape(plan.shape)
        elif plan.init == "zeros":
            data = np.zeros(plan.shape, dtype=dtype)
        elif plan.init == "gate_bias":
            data = np.zeros(plan.shape, dtype=dtype)
            units = plan.shape[0] // 4
            data[units : 2 * units] = 1.0  # forget gate opens fully at step 0
        else:  # pragma: no cover
            raise ShapeError(f"unknown init {plan.init!r}")
        store.add(plan.name, Tensor(data), trainable=plan.trainable)
    return store


def apply_layers(
    layers: list[LayerConfig],
    store: ParameterStore,
    x: Tensor,
    train: bool = False,
    rng: Rng | None = None,
    prefix: str = "layer",
) -> Tensor:
    """Run a layer chain on one sample. Mirrors ``trace_layers`` exactly."""
    for i, cfg in enumerate(layers):
        name = f"{prefix}{i}_{cfg.kind}"
        if cfg.kind == "dense":
            x = dense(x, store[f"{name}/kernel"], store[f"{name}/bias"])
        elif cfg.kind == "relu":
            x = relu(x)
        elif cfg.kind == "softmax":
            x = softmax(x)
        elif cfg.kind == "flatten":
            x = tn.reshape(x, (x.numel,))
        elif cfg.kind == "dropout":
            x = dropout(x, cfg.rate, train, rng)
        elif cfg.kind in ("conv2d", "conv3d"):
            op = tn.conv2d if cfg.kind == "conv2d" else tn.conv3d
            x = op(
                x,
                store[f"{name}/kernel"],
                store[f"{name}/bias"],
                padding=cfg.padding or "valid",
                stride=cfg.stride if cfg.stride is not None else 1,
            )
        elif cfg.kind == "maxpool2d":
            x = tn.maxpool2d(x, cfg.kernel_size, cfg.stride)
        elif cfg.kind == "maxpool3d":
            x = tn.maxpool3d(x, cfg.kernel_size, cfg.stride)
        elif cfg.kind == "simple_rnn":
            x = simple_rnn(
                x,
                store[f"{name}/kernel"],
                store[f"{name}/recurrent_kernel"],
                store[f"{name}/bias"],
                return_sequences=cfg.return_sequences,
            )
        elif cfg.kind == "lstm":
            x = lstm(
                x,
                store[f"{name}/kernel"],
                store[f"{name}/recurrent_kernel"],
                store[f"{name}/bias"],
                return_sequences=cfg.return_sequences,
            )
        elif cfg.kind == "convlstm2d":
            x = convlstm2d(
                x,
                store[f"{name}/kernel"],
                store[f"{name}/recurrent_kernel"],
                store[f"{name}/bias"],
                return_sequences=cfg.return_sequences,
            )
        elif cfg.kind == "time_distributed":
            wrapped, sub_prefix = cfg.wrapped, f"{name}/td"
            x = time_distributed(
                lambda frame: apply_layers(
                    wrapped, store, frame, train=train, rng=rng, prefix=sub_prefix
                ),
                x,
            )
        else:  # pragma: no cover
            raise ShapeError(f"unknown layer kind {cfg.kind!r}")
    return x
