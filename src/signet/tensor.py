"""Dense float tensors, numeric kernels, and reverse-mode autodiff.

Values are row-major float32 arrays by default; building a graph from
float64 tensors gives a high-precision mode used for gradient checking.
Every kernel validates shapes up front and raises ``NonFiniteError`` if an
output contains NaN/Inf, so bad values never propagate silently into
training. Tensors hold no gradients: gradients land in ``tape.grads``, a
dict the caller may pass to ``Tape`` so that several tapes fold into it.

A forward computes only what its output needs. Its ``bw`` reads the inputs
its tape node already holds, and what the forward built on the way, such as
conv's im2col or max pooling's argmax; anything only backward needs, like
relu's and clip's masks, ``bw`` builds from those inputs. So an untaped
forward does no work for a backward that never runs.

Float errors have one rule: ``NonFiniteError`` is the only signal. numpy's
float warnings are off inside every op, ``Tape.backward`` and the update of
``train.adam_step``, through ``np.errstate`` blocks, never process-wide.
``_result`` is the one place a non-finite op output is reported, naming the
op. A gradient may overflow in backward without a report; ``adam_step``'s
check on the updated parameters is the one place that is reported, naming
the parameter.

Reproducibility rules, fixed for every kernel:

* ``matmul`` and the reduce ops accumulate strictly in ascending index
  order in the working dtype. The matmul fold is one fold vectorised two
  ways: along k with ``np.add.accumulate`` when K is long against the
  output (every forward matmul of the builders), and over the (M, N)
  output, one in-place add per k-slice, when K is short (the weight
  gradients); both give the bits of the scalar loop.
* convolutions accumulate in 64-bit precision, in blocks of output rows,
  and round once on output; a row's value does not depend on its block.
* max pooling breaks ties toward the first cell in row-major scan order.
* kernels never reassociate accumulations, so results are bit-identical
  from run to run for identical inputs.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
import operator

import numpy as np

__all__ = [
    "ShapeError",
    "NonFiniteError",
    "TapeError",
    "Rng",
    "Tensor",
    "Tape",
    "add",
    "sub",
    "mul",
    "neg",
    "scale",
    "log",
    "clip",
    "relu",
    "sigmoid",
    "tanh",
    "softmax",
    "reshape",
    "narrow",
    "stack",
    "reduce_sum",
    "reduce_mean",
    "matmul",
    "conv2d",
    "conv3d",
    "maxpool2d",
    "maxpool3d",
    "grad_check",
]


class ShapeError(ValueError):
    """Tensor extents do not satisfy an operation's contract."""


class NonFiniteError(ArithmeticError):
    """A kernel produced (or was handed) NaN or Inf values."""


class TapeError(RuntimeError):
    """Backward was requested without a usable recording tape."""


# ---------------------------------------------------------------------------
# Seeded random stream
# ---------------------------------------------------------------------------

_U64 = (1 << 64) - 1


class Rng:
    """xoshiro256** stream seeded through splitmix64.

    Pure integer arithmetic, so an identical seed yields an identical
    stream on every platform. ``next_u64`` is the scalar reference step.

    ``uniforms(n)`` returns exactly what ``n`` calls of ``uniform()`` would,
    and leaves the state where those calls would. It runs the stream as
    lanes of ``m`` consecutive draws (``m`` a power of two near sqrt(n)/4):
    lane ``i`` starts ``i * m`` steps ahead, so it yields draws
    ``i*m .. i*m+m-1``. The state update is linear over GF(2), so a jump
    of ``2**j`` steps is one 256x256 bit matrix (Blackman & Vigna 2018,
    arXiv:1805.01407); lane starts come from doubling, with lanes
    ``[0, k)`` jumped by ``k * m`` steps to give lanes ``[k, 2k)``. Then
    ``m`` vectorised steps advance all lanes together.
    """

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        state = int(seed) & _U64
        s = []
        for _ in range(4):
            state = (state + 0x9E3779B97F4A7C15) & _U64
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
            s.append(z ^ (z >> 31))
        # The finalizer is a bijection and the four states differ, so at most
        # one word is 0: never the all-zero state xoshiro forbids.
        self._s = s

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = ((((s1 * 5) & _U64) << 7 | ((s1 * 5) & _U64) >> 57) & _U64) * 9 & _U64
        t = (s1 << 17) & _U64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _U64
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self) -> float:
        """One double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), equal to n sequential ``uniform()`` calls."""
        n = operator.index(n)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        m = _lane_length(n)
        lanes = -(-n // m)
        log_m = m.bit_length() - 1
        # Row i holds lane i's state words; doubling fills rows [k, 2k).
        state = np.empty((lanes, 4), dtype=np.uint64)
        state[0] = self._s
        k = 1
        while k < lanes:
            grow = min(k, lanes - k)
            state[k : k + grow] = _gf2_apply(_jump_table(log_m + k.bit_length() - 1), state[:grow])
            k += grow
        s0, s1, s2, s3 = (state[:, w].copy() for w in range(4))
        # Draws pass through a small step-major block on their way to the
        # lane-major output, so memory is written once and in cache lines.
        # m is a power of two, so the block divides it.
        block = min(m, 16)
        raw = np.empty((block, lanes), dtype=np.uint64)
        out = np.empty(lanes * m, dtype=np.float64)
        by_lane = out.reshape(lanes, m)
        last_steps = n - (lanes - 1) * m  # the last lane is only partly used
        for step in range(m):
            r = s1 * 5
            np.multiply((r << 7) | (r >> 57), 9, out=raw[step % block])
            t = s1 << 17
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = (s3 << 45) | (s3 >> 19)
            if step + 1 == last_steps:
                self._s = [int(s0[-1]), int(s1[-1]), int(s2[-1]), int(s3[-1])]
            if (step + 1) % block == 0:
                raw >>= 11
                np.multiply(raw.T, 2.0**-53, out=by_lane[:, step + 1 - block : step + 1])
        return out[:n]

    def randbelow(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        threshold = ((_U64 + 1) // n) * n
        while True:
            r = self.next_u64()
            if r < threshold:
                return r % n

    def shuffle(self, items: list) -> list:
        """In-place Fisher-Yates shuffle; returns the same list."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def _lane_length(n: int) -> int:
    """Draws per lane in ``Rng.uniforms(n)``: a power of two near sqrt(n)/4.

    Each step costs a fixed number of numpy calls and each lane one jump, so
    the total is least with a few times more lanes than steps per lane.
    """
    return 1 << max(0, n.bit_length() // 2 - 2)


def _gf2_apply(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Multiply each row of ``states`` (k, 4) by a GF(2) matrix.

    ``table[p, v]`` is the matrix's image of byte ``p`` of a state (byte
    ``p % 8`` of word ``p // 8``) holding ``v`` with every other byte zero,
    so the product is the XOR of 32 looked-up images.
    """
    shifts = np.arange(0, 64, 8, dtype=np.uint64)
    index = ((states[:, :, None] >> shifts) & np.uint64(0xFF)).reshape(len(states), 32)
    return np.bitwise_xor.reduce(table[np.arange(32), index], axis=1)


def _byte_table(rows: np.ndarray) -> np.ndarray:
    """``_gf2_apply``'s table for the matrix whose image of state bit ``b``
    (bit ``b % 64`` of word ``b // 64``) is ``rows[b]``."""
    rows = rows.reshape(32, 8, 4)
    table = np.zeros((32, 256, 4), dtype=np.uint64)
    for i in range(8):
        table[:, 1 << i : 2 << i] = table[:, : 1 << i] ^ rows[:, i, None]
    return table


@functools.lru_cache(maxsize=None)
def _jump_table(j: int) -> np.ndarray:
    """The xoshiro256** state update applied ``2**j`` times, as a byte table.

    Built by exact XOR arithmetic: for ``2**0`` steps each bit's image is
    ``Rng.next_u64`` run on the state with only that bit set, and each later
    table is the one before applied to its own bit images (a squaring).
    """
    if j == 0:
        unit = Rng.__new__(Rng)
        rows = []
        for b in range(256):
            words = [0, 0, 0, 0]
            words[b // 64] = 1 << (b % 64)
            unit._s = words
            unit.next_u64()
            rows.append(unit._s)
        rows = np.array(rows, dtype=np.uint64)
    else:
        half = _jump_table(j - 1)
        rows = _gf2_apply(half, half[:, 1 << np.arange(8)].reshape(256, 4))
    table = _byte_table(rows)
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# Tensors and the recording tape
# ---------------------------------------------------------------------------

# The innermost open tape of the running thread or task; None outside any.
_TAPE: contextvars.ContextVar["Tape | None"] = contextvars.ContextVar("tape", default=None)


class Tensor:
    """Dense n-dimensional float array; its gradient lives in a tape's ``grads``."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, _checked: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if 0 in arr.shape:
            raise ShapeError(f"zero-extent tensor shape {arr.shape}")
        if not _checked and not np.isfinite(arr).all():
            raise NonFiniteError("tensor initialized with non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def numel(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"


class _Node:
    __slots__ = ("inputs", "out", "bw")

    def __init__(self, inputs, out, bw):
        self.inputs = inputs
        self.out = out
        self.bw = bw


class Tape:
    """Ordered record of operations for one reverse pass.

    Open one as ``with Tape(grads, held) as tape:``; both dicts are
    optional. Nodes are appended in execution order, which is a topological order by
    construction; ``backward`` walks them once, in reverse. Gradients land
    in ``grads``, a dict from tensor to array: the caller's, or a fresh one.
    After the pass it holds the leaves only: the tensors no node on this
    tape produced, such as parameters and clips. Tapes that share one dict
    fold into it in the order their passes run, so a batch's gradient is
    one sequential fold over its clips. A tape runs backward at most once,
    since a second pass would add into the leaves' gradients again.
    ``nodes`` stays readable afterwards. Entering a tape makes it the
    active one in the current thread only, so tapes opened in concurrent
    threads never record each other's operations.

    ``held``, a dict from leaf tensor to list, is the one way to take a
    leaf's contributions out of the fold: backward appends each
    contribution to such a leaf to its list, in the order it would have
    folded them, and ``Tape.fold`` adds the lists into a ``grads`` dict
    later with the same rule, so the sum has the bits that folding them
    during the pass would have given.
    """

    def __init__(self, grads: dict | None = None, held: dict | None = None):
        self.nodes: list[_Node] = []
        self.grads: dict[Tensor, np.ndarray] = {} if grads is None else grads
        self.held: dict[Tensor, list] = {} if held is None else held
        self._spent = False

    def __enter__(self) -> "Tape":
        self._token = _TAPE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPE.reset(self._token)
        return False

    def backward(self, loss: Tensor) -> None:
        """Add the scalar loss's gradient into ``grads`` for every leaf it depends on.

        A produced tensor's gradient is complete once the reverse walk
        reaches its producer, because every consumer comes later on the
        tape. The walk pops it from ``grads`` and hands it to the producer's
        ``bw``. Each ``bw`` returns, per input, None or an array of that
        input's shape and dtype; an input's first contribution is stored as
        is and later ones are added to it, unless the input is ``held``.
        """
        if loss.numel != 1:
            raise TapeError(f"loss must be scalar, got shape {loss.shape}")
        if not any(node.out is loss for node in reversed(self.nodes)):
            raise TapeError("loss was not produced under this tape")
        if self._spent:
            raise TapeError("backward already ran on this tape; record a new one")
        self._spent = True
        grads, held = self.grads, self.held
        grads[loss] = np.ones_like(loss.data)
        with np.errstate(all="ignore"):
            for node in reversed(self.nodes):
                gout = grads.pop(node.out, None)
                if gout is None:
                    continue
                for t, g in zip(node.inputs, node.bw(gout)):
                    if g is None:
                        continue
                    if t in held:
                        held[t].append(g)
                    else:
                        _fold(grads, t, g)

    @staticmethod
    def fold(grads: dict, held: dict) -> None:
        """Add each held leaf's contributions into ``grads``, in list order."""
        with np.errstate(all="ignore"):
            for t, contributions in held.items():
                for g in contributions:
                    _fold(grads, t, g)


def _fold(grads: dict, t: Tensor, g: np.ndarray) -> None:
    """The one summation rule: a first contribution is stored as is, later ones are added."""
    grads[t] = g if t not in grads else grads[t] + g


def _result(data: np.ndarray, inputs: tuple, bw, op: str) -> Tensor:
    if not np.isfinite(data).all():
        raise NonFiniteError(f"{op} produced non-finite values")
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=requires, _checked=True)
    tape = _TAPE.get()
    if tape is not None and requires:
        tape.nodes.append(_Node(inputs, out, bw))
    return out


def _same_dtype(*tensors: Tensor):
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise ShapeError(
                f"mixed dtypes {dt} vs {t.data.dtype}; build the graph in one precision"
            )
    return dt


def _integers(values, what: str, error: type = ShapeError) -> tuple:
    """``values`` as ints through ``operator.index``, so numpy integers pass
    and a float, even 2.0, raises ``error`` naming ``what``."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise error(f"{what} must be integral, got {values!r}") from None


def _axis(op: str, axis: int, ndim: int) -> int:
    """``axis`` as an index in [0, ndim); negative axes count from the end."""
    (axis,) = _integers((axis,), f"{op}: axis")
    if not -ndim <= axis < ndim:
        raise ShapeError(f"{op}: axis {axis} outside a {ndim}-d tensor")
    return axis % ndim


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to ``shape`` (inverse of numpy broadcasting), as an array
    even for a 0-d ``shape``."""
    extra = g.ndim - len(shape)
    if extra:
        g = np.asarray(g.sum(axis=tuple(range(extra))))
    axes = tuple(i for i, e in enumerate(shape) if e == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Elementwise operations
# ---------------------------------------------------------------------------


def _broadcast(op: str, fn, a: Tensor, b: Tensor, grad_a, grad_b) -> Tensor:
    """``fn(a, b)`` under numpy broadcasting. Backward sums ``grad_a(g)`` and
    ``grad_b(g)``, each side's gradient at the output's shape, down to that
    side's shape."""
    _same_dtype(a, b)
    try:
        with np.errstate(all="ignore"):
            out = fn(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from exc
    ash, bsh = a.shape, b.shape

    def bw(g):
        ga = _unbroadcast(grad_a(g), ash) if a.requires_grad else None
        gb = _unbroadcast(grad_b(g), bsh) if b.requires_grad else None
        return ga, gb

    return _result(out, (a, b), bw, op)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast("add", np.add, a, b, lambda g: g, lambda g: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast("sub", np.subtract, a, b, lambda g: g, np.negative)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast("mul", np.multiply, a, b, lambda g: g * b.data, lambda g: g * a.data)


def neg(a: Tensor) -> Tensor:
    return _result(-a.data, (a,), lambda g: (-g,), "neg")


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar constant."""
    s = float(s)
    with np.errstate(all="ignore"):
        out = a.data * np.asarray(s, dtype=a.data.dtype)

    def bw(g):
        return (g * np.asarray(s, dtype=g.dtype),)

    return _result(out, (a,), bw, "scale")


def log(a: Tensor) -> Tensor:
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log(a.data)
    ad = a.data

    def bw(g):
        return (g / ad,)

    return _result(out, (a,), bw, "log")


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes through where lo <= x <= hi."""
    out = np.clip(a.data, lo, hi)

    def bw(g):
        return (g * ((a.data >= lo) & (a.data <= hi)),)

    return _result(out, (a,), bw, "clip")


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)

    def bw(g):
        return (g * (a.data > 0),)

    return _result(out, (a,), bw, "relu")


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    # exp(-|x|) never overflows; both halves are the same rational in it.
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    out /= 1.0 + e

    def bw(g):
        return (g * out * (1.0 - out),)

    return _result(out, (a,), bw, "sigmoid")


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def bw(g):
        return (g * (1.0 - out * out),)

    return _result(out, (a,), bw, "tanh")


def softmax(a: Tensor) -> Tensor:
    """Shift-stabilized softmax along the last axis."""
    x = a.data
    axis = _axis("softmax", -1, x.ndim)
    with np.errstate(over="ignore"):
        shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    denom = _ordered_sum(e, axis=axis, keepdims=True)
    out = e / denom

    def bw(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _result(out, (a,), bw, "softmax")


# ---------------------------------------------------------------------------
# Shape operations
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    """``a`` with extents ``shape``: integers of at least 1 whose product is ``a.numel``."""
    shape = _integers(shape, f"reshape of {a.shape}: shape")
    if min(shape, default=1) < 1 or math.prod(shape) != a.numel:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")
    ash = a.shape

    def bw(g):
        return (g.reshape(ash),)

    return _result(a.data.reshape(shape), (a,), bw, "reshape")


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` elements along ``axis``; negative axes count from the end."""
    axis = _axis("narrow", axis, a.data.ndim)
    start, length = _integers((start, length), "narrow: start and length")
    extent = a.shape[axis]
    if start < 0 or length < 1 or start + length > extent:
        raise ShapeError(f"narrow [{start}:{start + length}] outside extent {extent}")
    index = tuple(
        slice(start, start + length) if i == axis else slice(None) for i in range(a.data.ndim)
    )
    ash = a.shape

    def bw(g):
        full = np.zeros(ash, dtype=g.dtype)
        full[index] = g
        return (full,)

    return _result(a.data[index].copy(), (a,), bw, "narrow")


def stack(tensors: list[Tensor]) -> Tensor:
    """Equal-shaped tensors stacked on a new leading axis."""
    if not tensors:
        raise ShapeError("stack of zero tensors")
    _same_dtype(*tensors)
    base = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != base:
            raise ShapeError(f"stack: mismatched shapes {base} vs {t.shape}")
    out = np.stack([t.data for t in tensors])
    needs = [t.requires_grad for t in tensors]

    def bw(g):
        return tuple(g[i] if needs[i] else None for i in range(len(tensors)))

    return _result(out, tuple(tensors), bw, "stack")


# ---------------------------------------------------------------------------
# Reductions and matrix multiply (ascending-order accumulation)
# ---------------------------------------------------------------------------


def _ordered_sum(x: np.ndarray, axis, keepdims: bool = False) -> np.ndarray:
    """Sum with strictly ascending accumulation order along ``axis``, or
    over the flattened array when ``axis`` is None."""
    if axis is None:
        x, axis = x.reshape(-1), 0
    acc = np.add.accumulate(x, axis=axis)
    index = tuple(
        slice(-1, None) if i == (axis % x.ndim) else slice(None) for i in range(x.ndim)
    )
    out = acc[index]
    return out if keepdims else out.squeeze(axis=axis)


def _reduce(op: str, a: Tensor, axis: int | None, mean: bool) -> Tensor:
    """Ordered sum of ``a`` along ``axis`` (all axes when None), divided by
    the reduced count when ``mean``; backward broadcasts ``g`` (or g/n) back."""
    axis = None if axis is None else _axis(op, axis, a.data.ndim)
    n = np.asarray(a.numel if axis is None else a.shape[axis], dtype=a.data.dtype)
    with np.errstate(all="ignore"):
        out = _ordered_sum(a.data, axis)
        if mean:
            out = out / n

    def bw(g):
        if mean:
            g = g / n
        g = g.reshape(()) if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _result(out, (a,), bw, op)


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    return _reduce("reduce_sum", a, axis, mean=False)


def reduce_mean(a: Tensor, axis: int | None = None) -> Tensor:
    return _reduce("reduce_mean", a, axis, mean=True)


# Elements in one (M, chunk, N) product block of the ordered matmul. It sets
# only the speed: every block size gives the same bits.
_MATMUL_BLOCK_ELEMS = 1 << 16


def _ordered_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b with per-element accumulation strictly in ascending k order.

    Equivalent, bit for bit, to the scalar triple loop
    ``for k: out[m, n] += a[m, k] * b[k, n]`` in the working dtype, with the
    first product taken as is (so a -0.0 survives). K is multiplied out in
    chunks of ``max(1, _MATMUL_BLOCK_ELEMS // (M * N))`` rows, and the one
    ascending fold is vectorised one of two ways, chosen from the shapes:

    * along k (``M * N <= 4 * K``, every forward matmul of the builders):
      ``np.add.accumulate`` sums each chunk's products in order, after the
      running sum is added into the chunk's first product;
    * over the (M, N) output (``M * N > 4 * K``, the short-K weight
      gradients): ``out`` starts as the first product and each later k-slice
      is added into it in place. With K = 1 the result is the product itself.

    IEEE addition is commutative, so ``first + carry`` and ``out + p_k`` are
    the fold's next step exactly. Its callers switch numpy's float warnings
    off: ``matmul`` runs its forward in an ``np.errstate`` block and its
    backward inside ``Tape.backward``'s, so overflow is left to the
    finiteness checks of the float-error rule rather than reported by numpy.
    """
    m, k = a.shape
    n = b.shape[1]
    step = max(1, _MATMUL_BLOCK_ELEMS // (m * n))
    over_output = m * n > 4 * k
    out = None
    for lo in range(0, k, step):
        prod = a[:, lo : lo + step, None] * b[None, lo : lo + step, :]
        if over_output:
            if out is None:
                out, prod = np.ascontiguousarray(prod[:, 0]), prod[:, 1:]
            for j in range(prod.shape[1]):
                out += prod[:, j]
        else:
            if out is not None:
                prod[:, 0] += out
            out = np.add.accumulate(prod, axis=1)[:, -1]
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype(a, b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    with np.errstate(all="ignore"):
        out = _ordered_matmul(a.data, b.data)
    ad, bd = a.data, b.data

    def bw(g):
        ga = _ordered_matmul(g, bd.T) if a.requires_grad else None
        gb = _ordered_matmul(ad.T, g) if b.requires_grad else None
        return ga, gb

    return _result(out, (a, b), bw, "matmul")


# ---------------------------------------------------------------------------
# Convolution (n spatial dims + trailing channel axis)
# ---------------------------------------------------------------------------


def _norm_stride(stride, ndim: int) -> tuple:
    strides = _integers((stride,) * ndim if np.ndim(stride) == 0 else stride, "stride")
    if len(strides) != ndim:
        raise ShapeError(f"stride {stride} does not match {ndim} spatial dims")
    if any(s < 1 for s in strides):
        raise ShapeError(f"stride must be positive, got {stride}")
    return strides


def _conv_geometry(in_sp, k_sp, strides, padding):
    """Per-dim (pad_lo, pad_hi) and output extents."""
    pads, outs = [], []
    for size, k, st in zip(in_sp, k_sp, strides):
        if padding == "same":
            out = -(-size // st)
            total = max((out - 1) * st + k - size, 0)
            lo = total // 2
            pads.append((lo, total - lo))
            outs.append(out)
        elif padding == "valid":
            if k > size:
                raise ShapeError(f"kernel extent {k} exceeds input extent {size}")
            pads.append((0, 0))
            outs.append((size - k) // st + 1)
        else:
            raise ShapeError(f"padding must be 'valid' or 'same', got {padding!r}")
    return tuple(pads), tuple(outs)


def _im2col(x: np.ndarray, k_sp, strides, padding):
    """The im2col of ``x`` (spatial..., C) and its geometry: (cols, pads, outs).

    ``cols`` is a contiguous (prod(outs), prod(k_sp) * C) array with one row
    per window position, in row-major order, holding the window's cells in
    row-major (k..., C) order. ``x`` is zero-padded first only when some pad
    is nonzero.
    """
    n = len(k_sp)
    pads, outs = _conv_geometry(x.shape[:n], k_sp, strides, padding)
    if any(lo or hi for lo, hi in pads):
        x = np.pad(x, pads + ((0, 0),))
    st = x.strides
    view = np.lib.stride_tricks.as_strided(
        x, outs + k_sp + x.shape[-1:],
        tuple(st[i] * strides[i] for i in range(n)) + st[:n] + st[-1:])
    return np.ascontiguousarray(view).reshape(math.prod(outs), -1), pads, outs


def _col2im(cols: np.ndarray, shape, k_sp, strides, pads, outs) -> np.ndarray:
    """Adjoint of ``_im2col``: sum each row's window cells back onto a zero
    array of the input's ``shape``.

    Windows that tile the input (stride equal to the window, no padding)
    cover each cell at most once, so one ``+=`` through the output, split
    into (out, window) axis pairs and transposed to ``cols``' order, places
    every value. Otherwise the sum runs on the padded input, which is then
    cut back to ``shape`` (a copy only when something was padded). The loop
    runs over kernel offsets in ascending row-major order. For a fixed
    offset the strided destination cells are disjoint, so each ``+=`` is
    overlap-free and the result is deterministic; a cell covered by several
    windows receives their values in offset order. Both ways add onto +0.0,
    so a -0.0 value lands as +0.0.
    """
    n = len(k_sp)
    cells = cols.reshape(outs + k_sp + shape[n:])
    if tuple(strides) == tuple(k_sp) and not any(lo or hi for lo, hi in pads):
        out = np.zeros(shape, dtype=cols.dtype)
        covered = out[tuple(slice(0, o * k) for o, k in zip(outs, k_sp))]
        # Splitting an axis never copies, so ``tiles`` is a view of ``out``.
        tiles = covered.reshape(tuple(e for ok in zip(outs, k_sp) for e in ok) + shape[n:])
        tiles = tiles.transpose(tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2)) + (2 * n,))
        tiles += cells
        return out
    out = np.zeros(tuple(e + lo + hi for e, (lo, hi) in zip(shape, pads)) + shape[n:],
                   dtype=cols.dtype)
    for offset in itertools.product(*(range(k) for k in k_sp)):
        dst = tuple(slice(o, o + e * s, s) for o, e, s in zip(offset, outs, strides))
        out[dst] += cells[(slice(None),) * n + offset]
    return np.ascontiguousarray(out[tuple(slice(lo, lo + e) for e, (lo, _) in zip(shape, pads))])


# Float64 im2col elements in one block of conv forward rows. It sets only the
# speed: every block size gives the same bits.
_CONV_BLOCK_ELEMS = 1 << 15


def _conv_nd(x: Tensor, kernel: Tensor, bias, padding, stride, ndim: int, op: str) -> Tensor:
    """im2col, then a 64-bit GEMM and bias add per block of rows, rounded once
    to the working dtype.

    The working-dtype im2col ``cols``, with K = kernel taps x input channels
    columns, is built whole, since backward reads it. Each block of
    ``max(1, _CONV_BLOCK_ELEMS // K)`` rows is converted to float64 on its
    own, so the float64 im2col never exists whole; a conv whose float64
    im2col fits in one block runs as one GEMM. Every output is one float64
    dot product over K of a row of ``cols`` with a kernel column, and BLAS
    does not split K, so a row's value does not depend on its block.

    Backward contracts in the working dtype: gradient kernels only need
    run-to-run determinism, not the forward's 64-bit accumulation. Each
    gradient is computed only for an operand that requires it, so a conv on
    a gradient-free input such as a raw clip skips the input gradient's GEMM
    and its ``_col2im``.
    """
    _same_dtype(x, kernel, *((bias,) if bias is not None else ()))
    if x.data.ndim != ndim + 1:
        raise ShapeError(f"{op}: input must have {ndim + 1} dims, got {x.shape}")
    if kernel.data.ndim != ndim + 2:
        raise ShapeError(f"{op}: kernel must have {ndim + 2} dims, got {kernel.shape}")
    if x.shape[-1] != kernel.shape[-2]:
        raise ShapeError(
            f"{op}: input channels {x.shape[-1]} != kernel channels {kernel.shape[-2]}"
        )
    if bias is not None and bias.shape != (kernel.shape[-1],):
        raise ShapeError(f"{op}: bias shape {bias.shape} != ({kernel.shape[-1]},)")
    strides = _norm_stride(stride, ndim)
    k_sp, cout = kernel.shape[:ndim], kernel.shape[-1]
    wmat = kernel.data.reshape(-1, cout)
    cols, pads, outs = _im2col(x.data, k_sp, strides, padding)
    w64 = wmat.astype(np.float64)
    out = np.empty((len(cols), cout), dtype=x.data.dtype)
    step = max(1, _CONV_BLOCK_ELEMS // len(wmat))
    with np.errstate(all="ignore"):
        for lo in range(0, len(cols), step):
            block = cols[lo : lo + step].astype(np.float64) @ w64
            if bias is not None:
                block += bias.data
            out[lo : lo + step] = block
    out = out.reshape(outs + (cout,))
    inputs = (x, kernel) if bias is None else (x, kernel, bias)

    def bw(g):
        gmat = np.ascontiguousarray(g.reshape(-1, cout))
        gx = None
        if x.requires_grad:
            gx = _col2im(gmat @ wmat.T, x.shape, k_sp, strides, pads, outs)
        grads = [gx, (cols.T @ gmat).reshape(kernel.shape) if kernel.requires_grad else None]
        if bias is not None:
            grads.append(gmat.sum(axis=0) if bias.requires_grad else None)
        return tuple(grads)

    return _result(out, inputs, bw, op)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None,
           padding: str = "valid", stride=1) -> Tensor:
    """Cross-correlation of (H, W, Cin) with kernel (kH, kW, Cin, Cout)."""
    return _conv_nd(x, kernel, bias, padding, stride, 2, "conv2d")


def conv3d(x: Tensor, kernel: Tensor, bias: Tensor | None = None,
           padding: str = "valid", stride=1) -> Tensor:
    """Cross-correlation of (T, H, W, Cin) with kernel (kT, kH, kW, Cin, Cout)."""
    return _conv_nd(x, kernel, bias, padding, stride, 3, "conv3d")


# ---------------------------------------------------------------------------
# Max pooling
# ---------------------------------------------------------------------------


def _pool_geometry(in_sp, window, op: str):
    """Output extents of an unpadded pool whose stride is its window."""
    if len(window) != len(in_sp) or any(w < 1 for w in window):
        raise ShapeError(f"{op}: bad window {window}")
    return _conv_geometry(in_sp, window, window, "valid")[1]


def _maxpool_nd(x: Tensor, window, ndim: int, op: str) -> Tensor:
    """Max over non-overlapping windows, each strided by its own extent."""
    if x.data.ndim != ndim + 1:
        raise ShapeError(f"{op}: input must have {ndim + 1} dims, got {x.shape}")
    window = _integers(window, f"{op}: window")
    _pool_geometry(x.shape[:ndim], window, op)
    channels = x.shape[-1]
    cols, pads, outs = _im2col(x.data, window, window, "valid")
    flat = cols.reshape(len(cols), -1, channels)
    # First maximum in row-major window scan order wins ties.
    idx = flat.argmax(axis=1)[:, None, :]
    out = np.take_along_axis(flat, idx, axis=1).reshape(outs + (channels,))

    def bw(g):
        # Each output's gradient goes to its argmax cell, then onto the input.
        cells = np.zeros((len(idx), math.prod(window), channels), dtype=g.dtype)
        np.put_along_axis(cells, idx, g.reshape(len(idx), 1, channels), axis=1)
        return (_col2im(cells, x.shape, window, window, pads, outs),)

    return _result(out, (x,), bw, op)


def maxpool2d(x: Tensor, window) -> Tensor:
    """Max over (h, w) windows of an (H, W, C) input, strided by the window."""
    return _maxpool_nd(x, window, 2, "maxpool2d")


def maxpool3d(x: Tensor, window) -> Tensor:
    """Max over (t, h, w) windows of a (T, H, W, C) input, strided by the window."""
    return _maxpool_nd(x, window, 3, "maxpool3d")


# ---------------------------------------------------------------------------
# The finite-difference gradient harness
# ---------------------------------------------------------------------------


def grad_check(f, x: Tensor, step: float = 1e-3) -> float:
    """Max relative error between tape gradients and central differences.

    ``f`` must map a tensor to a scalar tensor. The error per coordinate is
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|). Run with a
    float64 ``x`` for meaningful tolerances.
    """
    probe = Tensor(x.data.copy(), requires_grad=True)
    with Tape() as tape:
        y = f(probe)
    if not isinstance(y, Tensor) or y.numel != 1:
        raise TapeError("grad_check needs a scalar-valued function")
    tape.backward(y)
    analytic = tape.grads.get(probe, np.zeros_like(probe.data)).reshape(-1)

    flat = x.data.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        bump = np.array(flat, copy=True)
        bump[i] = flat[i] + step
        hi = f(Tensor(bump.reshape(x.shape))).item()
        bump[i] = flat[i] - step
        lo = f(Tensor(bump.reshape(x.shape))).item()
        numeric = (hi - lo) / (2.0 * step)
        a = float(analytic[i])
        err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
        if err > worst:
            worst = err
    return worst
