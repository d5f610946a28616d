"""Layer library: dense, activations, recurrence, and parameter stores.

Layers are pure functions of (parameters, input). ``LayerConfig`` describes
one layer declaratively. Each layer kind has one entry in ``_KINDS`` that
holds its config check, its trace (output shape and parameters), its apply
and its parameter suffixes. ``trace_layers`` walks a config chain through
the traces to validate shapes and enumerate parameter tensors, and
``apply_layers`` runs the chain on data through the applies. Both loops
name a layer's parameters ``{prefix}{i}_{kind}/{suffix}``, so parameter
names, initialization draws, and serialization stay aligned.

Entries look layer functions up when they run (``dense(...)``,
``getattr(tn, cfg.kind)(...)``) instead of holding the function objects,
so a tracer that swaps module attributes, such as ``perfbench/tracer.py``,
sees every call.

Gate packing for lstm and convlstm2d is (i, f, g, o) along the last axis
of the packed kernels; serialized weights depend on this order, which
``_lstm_cell`` alone decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

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


@dataclass
class LayerConfig:
    """Declarative description of one layer.

    Only the fields relevant to ``kind`` are consulted; the rest stay None.
    A time_distributed layer's ``trainable`` flag covers every parameter it
    wraps, so the wrapped layers that have parameters must carry the same flag.
    """

    kind: str
    units: int | None = None
    filters: int | None = None
    kernel_size: tuple | None = None
    padding: str | None = None
    rate: float | None = None
    return_sequences: bool = False
    trainable: bool = True
    wrapped: list["LayerConfig"] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ShapeError(f"unknown layer kind {self.kind!r}")
        _KINDS[self.kind].check(self)
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
        if self.padding is not None:
            d["padding"] = self.padding
        if _KINDS[self.kind].recurrent:
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


def _lstm_cell(gates: Tensor, c: Tensor, units: int) -> tuple[Tensor, Tensor]:
    """New (h, c) from gate pre-activations packed (i, f, g, o) on the last axis.

    c' = f*c + i*g and h' = o*tanh(c'), with sigmoid i, f, o and tanh g.
    """
    ax = gates.data.ndim - 1
    gi, gf, gg, go = (tn.narrow(gates, ax, k * units, units) for k in range(4))
    i, f, g, o = tn.sigmoid(gi), tn.sigmoid(gf), tn.tanh(gg), tn.sigmoid(go)
    c = tn.add(tn.mul(f, c), tn.mul(i, g))
    return tn.mul(o, tn.tanh(c)), c


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
    recurrent kernel; ``_lstm_cell`` applies them.
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
        h, c = _lstm_cell(gates, c, units)
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
        h, c = _lstm_cell(gates, c, units)
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
# Layer registry and the config-driven trace / init / apply loops
# ---------------------------------------------------------------------------


@dataclass
class ParamPlan:
    name: str
    shape: tuple
    trainable: bool
    init: str  # glorot | zeros | gate_bias


class _Kind(NamedTuple):
    """One layer kind.

    ``check(cfg)`` rejects a bad config. ``trace(cfg, shape)`` returns the
    output shape and the parameters as (suffix, shape, init) triples.
    ``apply(cfg, x, params, train, rng, store, name)`` runs the layer, with
    ``params`` fetched from the store in ``params`` suffix order.
    """

    apply: Callable
    trace: Callable = lambda cfg, shape: (shape, [])
    check: Callable = lambda cfg: None
    params: tuple = ()
    recurrent: bool = False


def _check_units(cfg: LayerConfig) -> None:
    if cfg.units is None or cfg.units < 1:
        raise ShapeError(f"{cfg.kind} needs units >= 1")


def _check_kernel(cfg: LayerConfig, nd: int) -> None:
    k = cfg.kernel_size
    if not k or len(k) != nd or any(e < 1 for e in k):
        raise ShapeError(f"{cfg.kind} needs a positive kernel_size of {nd} extents")


def _check_rank(cfg: LayerConfig, shape: tuple, rank: int) -> None:
    if len(shape) != rank:
        raise ShapeError(f"{cfg.kind} needs {rank}-d input, got {shape}")


def _check_rate(cfg: LayerConfig) -> None:
    if cfg.rate is None or not (0.0 <= cfg.rate < 1.0):
        raise ShapeError("dropout rate must lie in [0, 1)")


def _trace_dense(cfg, shape):
    if len(shape) < 1:
        raise ShapeError("dense needs at least one axis")
    k, n = shape[-1], cfg.units
    return shape[:-1] + (n,), [("kernel", (k, n), "glorot"), ("bias", (n,), "zeros")]


def _conv(nd: int) -> _Kind:
    """conv2d (nd=2) or conv3d (nd=3) at stride 1, valid or same padding."""

    def check(cfg):
        if cfg.filters is None or cfg.filters < 1:
            raise ShapeError(f"{cfg.kind} needs filters >= 1")
        _check_kernel(cfg, nd)

    def trace(cfg, shape):
        _check_rank(cfg, shape, nd + 1)
        _, outs = tn._conv_geometry(shape[:-1], cfg.kernel_size, (1,) * nd, cfg.padding or "valid")
        cin, cout = shape[-1], cfg.filters
        kernel = ("kernel", cfg.kernel_size + (cin, cout), "glorot")
        return outs + (cout,), [kernel, ("bias", (cout,), "zeros")]

    def apply(cfg, x, params, *_):
        return getattr(tn, cfg.kind)(x, *params, padding=cfg.padding or "valid")

    return _Kind(apply, trace, check, ("kernel", "bias"))


def _maxpool(nd: int) -> _Kind:
    """maxpool2d (nd=2) or maxpool3d (nd=3) with the stride equal to the window."""

    def trace(cfg, shape):
        _check_rank(cfg, shape, nd + 1)
        _, outs = tn._pool_geometry(shape[:-1], cfg.kernel_size, None, cfg.kind)
        return outs + shape[-1:], []

    def apply(cfg, x, *_):
        return getattr(tn, cfg.kind)(x, cfg.kernel_size)

    return _Kind(apply, trace, lambda cfg: _check_kernel(cfg, nd))


def _recurrent(gates: int, bias_init: str, nd: int = 0) -> _Kind:
    """simple_rnn (1 gate) or lstm (4 gates) over (T, D); convlstm2d with nd=2.

    Kernels are (k..., Cin, gates*U) and (k..., U, gates*U), where the
    spatial kernel extents k are empty unless nd > 0.
    """

    def check(cfg):
        _check_units(cfg)
        if nd:
            _check_kernel(cfg, nd)
            if cfg.padding not in (None, "same"):
                raise ShapeError(f"{cfg.kind} supports same-padding only")

    def trace(cfg, shape):
        _check_rank(cfg, shape, nd + 2)
        k_sp, u = (cfg.kernel_size if nd else ()), cfg.units
        out = shape[:-1] if cfg.return_sequences else shape[1:-1]
        return out + (u,), [
            ("kernel", k_sp + (shape[-1], gates * u), "glorot"),
            ("recurrent_kernel", k_sp + (u, gates * u), "glorot"),
            ("bias", (gates * u,), bias_init),
        ]

    def apply(cfg, x, params, *_):
        return globals()[cfg.kind](x, *params, return_sequences=cfg.return_sequences)

    return _Kind(apply, trace, check, ("kernel", "recurrent_kernel", "bias"), recurrent=True)


def _check_time_distributed(cfg):
    if not cfg.wrapped:
        raise ShapeError("time_distributed must wrap at least one layer")
    for inner in cfg.wrapped:
        kind = _KINDS[inner.kind]
        if kind.recurrent or inner.kind == "time_distributed":
            raise ShapeError(f"time_distributed cannot wrap {inner.kind}")
        if kind.params and inner.trainable != cfg.trainable:
            raise ShapeError(f"time_distributed and its {inner.kind} differ in trainable")


def _trace_time_distributed(cfg, shape):
    if len(shape) < 2:
        raise ShapeError(f"time_distributed needs a leading time axis, got {shape}")
    frame_out, plans = trace_layers(cfg.wrapped, shape[1:], prefix="td")
    return shape[:1] + frame_out, [(p.name, p.shape, p.init) for p in plans]


def _apply_time_distributed(cfg, x, params, train, rng, store, name):
    return time_distributed(
        lambda frame: apply_layers(cfg.wrapped, store, frame, train, rng, prefix=name + "td"), x
    )


_KINDS: dict[str, _Kind] = {
    "dense": _Kind(
        lambda cfg, x, p, *_: dense(x, *p), _trace_dense, _check_units, ("kernel", "bias")
    ),
    "relu": _Kind(lambda cfg, x, *_: relu(x)),
    "softmax": _Kind(lambda cfg, x, *_: softmax(x)),
    "flatten": _Kind(
        lambda cfg, x, *_: tn.reshape(x, (x.numel,)),
        lambda cfg, shape: ((int(np.prod(shape, dtype=np.int64)),), []),
    ),
    "dropout": _Kind(
        lambda cfg, x, p, train, rng, *_: dropout(x, cfg.rate, train, rng), check=_check_rate
    ),
    "conv2d": _conv(2),
    "conv3d": _conv(3),
    "maxpool2d": _maxpool(2),
    "maxpool3d": _maxpool(3),
    "simple_rnn": _recurrent(1, "zeros"),
    "lstm": _recurrent(4, "gate_bias"),
    "convlstm2d": _recurrent(4, "gate_bias", nd=2),
    "time_distributed": _Kind(
        _apply_time_distributed, _trace_time_distributed, _check_time_distributed
    ),
}


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
        name = f"{prefix}{i}_{cfg.kind}/"
        shape, params = _KINDS[cfg.kind].trace(cfg, shape)
        plans += [ParamPlan(name + suffix, shp, cfg.trainable, init) for suffix, shp, init in params]
    return shape, plans


def init_params(
    layers: list[LayerConfig],
    input_shape: tuple,
    rng: Rng,
    dtype=np.float32,
    prefix: str = "layer",
) -> ParameterStore:
    """Create a ParameterStore for a layer chain.

    Kernels are Glorot-uniform with limit sqrt(6 / (fan_in + fan_out)),
    where fan_in and fan_out are the receptive field (the product of all
    but the last two kernel axes) times the input and output channels.
    Biases start at zero except the forget-gate slice of lstm/convlstm2d
    biases, which starts at 1. Draws consume the rng stream in plan order,
    so a given seed always produces the same store.
    """
    _, plans = trace_layers(layers, input_shape, prefix=prefix)
    store = ParameterStore()
    for plan in plans:
        if plan.init == "glorot":
            *window, cin, cout = plan.shape
            rf = int(np.prod(window, dtype=np.int64))
            limit = math.sqrt(6.0 / (rf * cin + rf * cout))
            values = (rng.uniforms(rf * cin * cout) * 2.0 - 1.0) * limit
            data = values.astype(dtype).reshape(plan.shape)
        else:
            data = np.zeros(plan.shape, dtype=dtype)
            if plan.init == "gate_bias":
                units = plan.shape[0] // 4
                data[units : 2 * units] = 1.0  # forget gate opens fully at step 0
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
    """Run a layer chain on one sample.

    Each layer runs through its kind's entry in ``_KINDS`` with the
    parameters that ``trace_layers`` names for it, fetched from ``store``.
    """
    for i, cfg in enumerate(layers):
        name = f"{prefix}{i}_{cfg.kind}/"
        kind = _KINDS[cfg.kind]
        x = kind.apply(cfg, x, [store[name + s] for s in kind.params], train, rng, store, name)
    return x
