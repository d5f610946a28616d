"""Layer library: dense, recurrence, the layer registry, and parameter stores.

Layers are pure functions of (parameters, input), with one forward mode for
training and inference alike. ``LayerConfig`` describes one layer
declaratively. Each layer kind has one entry in ``_KINDS`` that holds its
config check, its trace (output shape and parameters), its apply and its
parameter suffixes. ``trace_layers`` walks a config chain through the traces
to validate shapes and enumerate parameter tensors, and ``apply_layers`` runs
the chain on data through the applies. Both loops name a layer's parameters
``{prefix}{i}_{kind}/{suffix}``, so parameter names, initialization draws,
and serialization stay aligned.

Entries look layer functions up when they run (``dense(...)``,
``getattr(tn, cfg.kind)(...)``) instead of holding the function objects,
so a tracer that swaps module attributes, such as ``perfbench/tracer.py``,
sees every call.

Every per-time-step loop is ``_scan``: it slices the leading axis of a
sequence and feeds each slice, with the carried state, to a step function.
A step returns the new state, a tuple whose first element is that step's
output: (h,) for simple_rnn, (h, c) for lstm and convlstm2d, and
(frame_out,) for time_distributed, whose step ignores the state it gets.
``_scan`` stacks the first elements, or returns the last one. simple_rnn
and lstm share one matmul recurrence and differ only in the cell and the
gate count; convlstm2d has its own conv step. ``_packed_shapes`` states the
packed recurrent layout, kernel (k..., Cin, gates*U), recurrent kernel
(k..., U, gates*U) and bias (gates*U,), for both the layer functions' check
and the registry's trace.

Gate packing for lstm and convlstm2d is (i, f, g, o) along the last axis
of the packed kernels, and serialized weights depend on this order. Two
places encode it: ``_lstm_cell`` slices the gates in that order, and
``init_params`` opens the forget slice ``[U:2U]`` of a ``gate_bias`` bias.
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

    Only the fields relevant to ``kind`` are consulted; the rest keep their
    defaults. ``units`` serves dense and the recurrent kinds, ``filters`` the
    conv kinds, ``kernel_size`` the conv, pool and convlstm2d kinds,
    ``padding`` the conv kinds and convlstm2d, ``return_sequences`` the
    recurrent kinds, and ``wrapped`` time_distributed.
    A time_distributed layer's ``trainable`` flag covers every parameter it
    wraps, so the wrapped layers that have parameters must carry the same flag.
    """

    kind: str
    units: int | None = None
    filters: int | None = None
    kernel_size: tuple | None = None
    padding: str | None = None
    return_sequences: bool = False
    trainable: bool = True
    wrapped: list["LayerConfig"] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ShapeError(f"unknown layer kind {self.kind!r}")
        if self.units is not None:
            (self.units,) = tn._integers((self.units,), f"{self.kind} units")
        if self.filters is not None:
            (self.filters,) = tn._integers((self.filters,), f"{self.kind} filters")
        if self.kernel_size is not None:
            self.kernel_size = tn._integers(self.kernel_size, f"{self.kind} kernel_size")
        _KINDS[self.kind].check(self)

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for key in ("units", "filters", "kernel_size", "padding"):
            v = getattr(self, key)
            if v is not None:
                d[key] = list(v) if key == "kernel_size" else v
        if _KINDS[self.kind].recurrent:
            d["return_sequences"] = self.return_sequences
        if not self.trainable:
            d["trainable"] = False
        if self.wrapped is not None:
            d["wrapped"] = [cfg.to_dict() for cfg in self.wrapped]
        return d


class ParameterStore:
    """Named parameter tensors with a per-parameter trainable mask.

    Iteration order is insertion order and is the canonical order for
    initialization draws and serialization. A parameter's trainable flag is
    its tensor's ``requires_grad``: ``add`` sets it and ``is_trainable``
    reads it, so frozen parameters are never recorded on a tape and never
    get an entry in a tape's ``grads``.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, t: Tensor, trainable: bool = True) -> None:
        if name in self._params:
            raise ShapeError(f"duplicate parameter name {name!r}")
        t.requires_grad = bool(trainable)
        self._params[name] = t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def is_trainable(self, name: str) -> bool:
        return self._params[name].requires_grad


# ---------------------------------------------------------------------------
# Layer functions
# ---------------------------------------------------------------------------


def dense(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """x . kernel + bias over the trailing axis; leading axes pass through."""
    k_in, k_out = kernel.shape
    if x.shape[-1] != k_in:
        raise ShapeError(f"dense: trailing extent {x.shape[-1]} != kernel rows {k_in}")
    lead = x.shape[:-1]
    flat = tn.reshape(x, (math.prod(lead), k_in))
    out = tn.add(tn.matmul(flat, kernel), tn.reshape(bias, (1, k_out)))
    return tn.reshape(out, lead + (k_out,))


def _scan(seq: Tensor, step: Callable, state: tuple, return_sequences: bool = True) -> Tensor:
    """Run ``step`` over the leading (time) axis of ``seq``.

    For each t, ``state = step(x_t, state)`` where ``x_t`` is the (1, ...)
    slice at t. The state is a tuple whose first element is the step's
    output. Returns the outputs stacked on a new leading axis, or only the
    last one.
    """
    outputs = []
    for t in range(seq.shape[0]):
        state = step(tn.narrow(seq, 0, t, 1), state)
        outputs.append(state[0])
    return tn.stack(outputs) if return_sequences else state[0]


def _packed_shapes(k_sp: tuple, cin: int, units: int, gates: int) -> tuple:
    """Kernel (k..., Cin, gates*U), recurrent kernel (k..., U, gates*U) and
    bias (gates*U,) shapes of a recurrent layer; k is empty unless convolutional."""
    return k_sp + (cin, gates * units), k_sp + (units, gates * units), (gates * units,)


def _check_recurrent(op, seq, kernel, recurrent_kernel, bias, gates: int, nd: int = 0) -> int:
    """Check a recurrent layer's input rank and packed shapes; returns its units."""
    if seq.data.ndim != nd + 2:
        raise ShapeError(f"{op}: input must be {nd + 2}-d, got {seq.shape}")
    units = bias.numel // gates
    got = (kernel.shape, recurrent_kernel.shape, bias.shape)
    if got != _packed_shapes(kernel.shape[:nd], seq.shape[-1], units, gates):
        raise ShapeError(f"{op}: parameter shapes {got} do not fit input {seq.shape}")
    return units


def _lstm_cell(gates: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """New state (h, c) from gate pre-activations packed (i, f, g, o) on the last axis.

    c' = f*c + i*g and h' = o*tanh(c'), with sigmoid i, f, o and tanh g.
    """
    units = gates.shape[-1] // 4
    gi, gf, gg, go = (tn.narrow(gates, -1, k * units, units) for k in range(4))
    i, f, g, o = tn.sigmoid(gi), tn.sigmoid(gf), tn.tanh(gg), tn.sigmoid(go)
    c = tn.add(tn.mul(f, c), tn.mul(i, g))
    return tn.mul(o, tn.tanh(c)), c


def _recurrence(op, gates, cell, seq, kernel, recurrent_kernel, bias, return_sequences):
    """The recurrence of simple_rnn and lstm over a (T, D) sequence.

    Each step hands the pre-activation x_t . Wx + h . Wh + b, with h the
    state's first element, and the rest of the state to ``cell``, which
    returns the new state. The state starts at zeros, (h,) for one gate and
    (h, c) for four. The (1, U) outputs are reshaped once, after the scan.
    """
    units = _check_recurrent(op, seq, kernel, recurrent_kernel, bias, gates)
    brow = tn.reshape(bias, (1, bias.numel))

    def step(x_t, state):
        pre = tn.add(tn.add(tn.matmul(x_t, kernel), tn.matmul(state[0], recurrent_kernel)), brow)
        return cell(pre, *state[1:])

    zero = Tensor(np.zeros((1, units), dtype=seq.data.dtype))
    out = _scan(seq, step, (zero,) if gates == 1 else (zero, zero), return_sequences)
    return tn.reshape(out, out.shape[:-2] + (units,))


def simple_rnn(
    seq: Tensor,
    kernel: Tensor,
    recurrent_kernel: Tensor,
    bias: Tensor,
    return_sequences: bool = False,
) -> Tensor:
    """h_t = tanh(x_t . Wx + h_{t-1} . Wh + b) from a zero initial state."""
    return _recurrence("simple_rnn", 1, lambda pre: (tn.tanh(pre),),
                       seq, kernel, recurrent_kernel, bias, return_sequences)


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
    return _recurrence("lstm", 4, _lstm_cell, seq, kernel, recurrent_kernel, bias, return_sequences)


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
    The bias is added inside the input convolution.
    """
    units = _check_recurrent("convlstm2d", seq, kernel, recurrent_kernel, bias, gates=4, nd=2)

    def step(x_t, state):
        gates = tn.add(
            tn.conv2d(tn.reshape(x_t, seq.shape[1:]), kernel, bias, padding="same", stride=1),
            tn.conv2d(state[0], recurrent_kernel, None, padding="same", stride=1),
        )
        return _lstm_cell(gates, state[1])

    zero = Tensor(np.zeros(seq.shape[1:3] + (units,), dtype=seq.data.dtype))
    return _scan(seq, step, (zero, zero), return_sequences)


def time_distributed(apply_frame, seq: Tensor) -> Tensor:
    """Apply one frame function to every leading-axis slice and restack.

    ``apply_frame`` must close over a single shared parameter set, so the
    gradient w.r.t. those parameters is the sum over frames.
    """
    return _scan(seq, lambda x_t, _: (apply_frame(tn.reshape(x_t, seq.shape[1:])),), ())


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
    ``apply(cfg, x, params, store, name)`` runs the layer, with
    ``params`` fetched from the store in ``params`` suffix order; only
    time_distributed reads ``store`` and ``name``, to run its wrapped chain.
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
        outs = tn._pool_geometry(shape[:-1], cfg.kernel_size, cfg.kind)
        return outs + shape[-1:], []

    def apply(cfg, x, *_):
        return getattr(tn, cfg.kind)(x, cfg.kernel_size)

    return _Kind(apply, trace, lambda cfg: _check_kernel(cfg, nd))


def _recurrent(gates: int, bias_init: str, nd: int = 0) -> _Kind:
    """simple_rnn (1 gate) or lstm (4 gates) over (T, D); convlstm2d with nd=2.

    Parameter shapes come from ``_packed_shapes``.
    """
    suffixes = ("kernel", "recurrent_kernel", "bias")

    def check(cfg):
        _check_units(cfg)
        if nd:
            _check_kernel(cfg, nd)
            if cfg.padding not in (None, "same"):
                raise ShapeError(f"{cfg.kind} supports same-padding only")

    def trace(cfg, shape):
        _check_rank(cfg, shape, nd + 2)
        out = shape[:-1] if cfg.return_sequences else shape[1:-1]
        packed = _packed_shapes(cfg.kernel_size if nd else (), shape[-1], cfg.units, gates)
        return out + (cfg.units,), list(zip(suffixes, packed, ("glorot", "glorot", bias_init)))

    def apply(cfg, x, params, *_):
        return globals()[cfg.kind](x, *params, return_sequences=cfg.return_sequences)

    return _Kind(apply, trace, check, suffixes, recurrent=True)


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


def _apply_time_distributed(cfg, x, params, store, name):
    return time_distributed(
        lambda frame: apply_layers(cfg.wrapped, store, frame, prefix=name + "td"), x
    )


_KINDS: dict[str, _Kind] = {
    "dense": _Kind(
        lambda cfg, x, p, *_: dense(x, *p), _trace_dense, _check_units, ("kernel", "bias")
    ),
    "relu": _Kind(lambda cfg, x, *_: tn.relu(x)),
    "softmax": _Kind(lambda cfg, x, *_: tn.softmax(x)),
    "flatten": _Kind(
        lambda cfg, x, *_: tn.reshape(x, (x.numel,)),
        lambda cfg, shape: ((math.prod(shape),), []),
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
    shape = tn._integers(input_shape, "input shape")
    plans: list[ParamPlan] = []
    for i, cfg in enumerate(layers):
        name = f"{prefix}{i}_{cfg.kind}/"
        shape, params = _KINDS[cfg.kind].trace(cfg, shape)
        plans += [ParamPlan(name + suffix, shp, cfg.trainable, init) for suffix, shp, init in params]
    return shape, plans


def init_params(layers: list[LayerConfig], input_shape: tuple, rng: Rng) -> ParameterStore:
    """Create a float32 ParameterStore for a layer chain, named ``layer{i}_{kind}/...``.

    Kernels are Glorot-uniform with limit sqrt(6 / (fan_in + fan_out)),
    where fan_in and fan_out are the receptive field (the product of all
    but the last two kernel axes) times the input and output channels.
    Biases start at zero except the forget-gate slice of lstm/convlstm2d
    biases, which starts at 1. Draws consume the rng stream in plan order,
    so a given seed always produces the same store.
    """
    _, plans = trace_layers(layers, input_shape)
    store = ParameterStore()
    for plan in plans:
        if plan.init == "glorot":
            *window, cin, cout = plan.shape
            rf = math.prod(window)
            limit = math.sqrt(6.0 / (rf * cin + rf * cout))
            values = (rng.uniforms(rf * cin * cout) * 2.0 - 1.0) * limit
            data = values.astype(np.float32).reshape(plan.shape)
        else:
            data = np.zeros(plan.shape, dtype=np.float32)
            if plan.init == "gate_bias":
                units = plan.shape[0] // 4
                data[units : 2 * units] = 1.0  # forget gate opens fully at step 0
        store.add(plan.name, Tensor(data), trainable=plan.trainable)
    return store


def apply_layers(
    layers: list[LayerConfig],
    store: ParameterStore,
    x: Tensor,
    prefix: str = "layer",
) -> Tensor:
    """Run a layer chain on one sample.

    Each layer runs through its kind's entry in ``_KINDS`` with the
    parameters that ``trace_layers`` names for it, fetched from ``store``.
    A ShapeError or NonFiniteError leaves with the name of the innermost
    layer it came from, such as ``layer0_time_distributed/td7_dense``,
    prefixed to its message once.
    """
    for i, cfg in enumerate(layers):
        name = f"{prefix}{i}_{cfg.kind}/"
        kind = _KINDS[cfg.kind]
        try:
            x = kind.apply(cfg, x, [store[name + s] for s in kind.params], store, name)
        except (ShapeError, tn.NonFiniteError) as exc:
            if not hasattr(exc, "layer"):
                exc.layer = name[:-1]
                exc.args = (f"{exc.layer}: {exc}",)
            raise
    return x
