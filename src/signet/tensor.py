"""Dense float tensors, numeric kernels, and reverse-mode autodiff.

Values are row-major float32 arrays by default; building a graph from
float64 tensors gives a high-precision mode used for gradient checking.
Every kernel validates shapes up front and raises ``NonFiniteError`` if an
output contains NaN/Inf, so bad values never propagate silently into
training.

Reproducibility rules, fixed for every kernel:

* ``matmul`` and the reduce ops accumulate strictly in ascending index
  order in the working dtype. The matmul fold is one fold vectorised two
  ways: along k with ``np.add.accumulate`` when K is long against the
  output (every forward matmul of the builders), and over the (M, N)
  output, one in-place add per k-slice, when K is short (the weight
  gradients); both give the bits of the scalar loop.
* convolutions accumulate in 64-bit precision and round once on output.
* max pooling breaks ties toward the first cell in row-major scan order.
* kernels never reassociate accumulations, so results are bit-identical
  from run to run for identical inputs.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import operator

import numpy as np

__all__ = [
    "ShapeError",
    "NonFiniteError",
    "TapeError",
    "Rng",
    "Tensor",
    "Tape",
    "record",
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
        if not any(s):
            s[0] = 1  # all-zero state is the one forbidden xoshiro state
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
    """Dense n-dimensional float array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

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
        self.grad = None

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

    Nodes are appended in execution order, which is a topological order by
    construction; ``backward`` walks them once, in reverse, and a tape runs
    backward at most once, since its tensors keep the gradients of the
    first pass. ``nodes`` stays readable afterwards. Entering a tape
    makes it the active one in the current thread only, so tapes opened in
    concurrent threads never record each other's operations.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._produced: set[int] = set()
        self._spent = False

    def __enter__(self) -> "Tape":
        self._token = _TAPE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPE.reset(self._token)
        return False

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every tensor the scalar loss depends on."""
        if loss.numel != 1:
            raise TapeError(f"loss must be scalar, got shape {loss.shape}")
        if id(loss) not in self._produced:
            raise TapeError("loss was not produced under this tape")
        if self._spent:
            raise TapeError("backward already ran on this tape; record a new one")
        self._spent = True
        loss.grad = np.ones_like(loss.data)
        for node in reversed(self.nodes):
            gout = node.out.grad
            if gout is None:
                continue
            grads = node.bw(gout)
            for t, g in zip(node.inputs, grads):
                if g is None:
                    continue
                g = np.asarray(g, dtype=t.data.dtype).reshape(t.data.shape)
                t.grad = g if t.grad is None else t.grad + g


def record() -> Tape:
    """Open a fresh tape; use as ``with record() as tape:``."""
    return Tape()


def _result(data: np.ndarray, inputs: tuple, bw, op: str) -> Tensor:
    if not np.isfinite(data).all():
        raise NonFiniteError(f"{op} produced non-finite values")
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=requires, _checked=True)
    tape = _TAPE.get()
    if tape is not None and requires:
        tape.nodes.append(_Node(inputs, out, bw))
        tape._produced.add(id(out))
    return out


def _same_dtype(*tensors: Tensor):
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise ShapeError(
                f"mixed dtypes {dt} vs {t.data.dtype}; build the graph in one precision"
            )
    return dt


def _axis(op: str, axis: int, ndim: int) -> int:
    """``axis`` as an index in [0, ndim); negative axes count from the end."""
    if not -ndim <= axis < ndim:
        raise ShapeError(f"{op}: axis {axis} outside a {ndim}-d tensor")
    return axis % ndim


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to ``shape`` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, e in enumerate(shape) if e == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Elementwise operations
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype(a, b)
    try:
        out = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}") from exc
    ash, bsh = a.shape, b.shape

    def bw(g):
        ga = _unbroadcast(g, ash) if a.requires_grad else None
        gb = _unbroadcast(g, bsh) if b.requires_grad else None
        return ga, gb

    return _result(out, (a, b), bw, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype(a, b)
    try:
        out = a.data - b.data
    except ValueError as exc:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}") from exc
    ash, bsh = a.shape, b.shape

    def bw(g):
        ga = _unbroadcast(g, ash) if a.requires_grad else None
        gb = -_unbroadcast(g, bsh) if b.requires_grad else None
        return ga, gb

    return _result(out, (a, b), bw, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype(a, b)
    try:
        with np.errstate(over="ignore"):
            out = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}") from exc
    ad, bd = a.data, b.data

    def bw(g):
        ga = _unbroadcast(g * bd, ad.shape) if a.requires_grad else None
        gb = _unbroadcast(g * ad, bd.shape) if b.requires_grad else None
        return ga, gb

    return _result(out, (a, b), bw, "mul")


def neg(a: Tensor) -> Tensor:
    return _result(-a.data, (a,), lambda g: (-g,), "neg")


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar constant."""
    s = float(s)
    out = (a.data * np.asarray(s, dtype=a.data.dtype))

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
    mask = ((a.data >= lo) & (a.data <= hi)).astype(a.data.dtype)

    def bw(g):
        return (g * mask,)

    return _result(out, (a,), bw, "clip")


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)
    mask = (a.data > 0).astype(a.data.dtype)

    def bw(g):
        return (g * mask,)

    return _result(out, (a,), bw, "relu")


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    # exp(-|x|) never overflows; both halves are the same rational in it.
    e = np.exp(-np.abs(x))
    denom = 1.0 + e
    out = np.where(x >= 0, 1.0 / denom, e / denom)

    def bw(g):
        return (g * out * (1.0 - out),)

    return _result(out, (a,), bw, "sigmoid")


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def bw(g):
        return (g * (1.0 - out * out),)

    return _result(out, (a,), bw, "tanh")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Shift-stabilized softmax along ``axis``."""
    x = a.data
    axis = _axis("softmax", axis, x.ndim)
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
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.numel:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")
    ash = a.shape

    def bw(g):
        return (g.reshape(ash),)

    return _result(a.data.reshape(shape), (a,), bw, "reshape")


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` elements along ``axis``; negative axes count from the end."""
    axis = _axis("narrow", axis, a.data.ndim)
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


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("stack of zero tensors")
    _same_dtype(*tensors)
    base = tensors[0].shape
    axis = _axis("stack", axis, len(base) + 1)
    for t in tensors[1:]:
        if t.shape != base:
            raise ShapeError(f"stack: mismatched shapes {base} vs {t.shape}")
    out = np.stack([t.data for t in tensors], axis=axis)
    needs = [t.requires_grad for t in tensors]

    def bw(g):
        parts = np.moveaxis(g, axis, 0)
        return tuple(parts[i] if needs[i] else None for i in range(len(tensors)))

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


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    if axis is not None:
        axis = _axis("reduce_sum", axis, a.data.ndim)
    out = _ordered_sum(a.data, axis)
    ash = a.shape

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g.reshape(()), ash).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), ash).copy(),)

    return _result(out, (a,), bw, "reduce_sum")


def reduce_mean(a: Tensor, axis: int | None = None) -> Tensor:
    if axis is not None:
        axis = _axis("reduce_mean", axis, a.data.ndim)
    n = a.numel if axis is None else a.shape[axis]
    summed = _ordered_sum(a.data, axis)
    out = summed / np.asarray(n, dtype=a.data.dtype)
    ash = a.shape

    def bw(g):
        gg = g / np.asarray(n, dtype=g.dtype)
        if axis is None:
            return (np.broadcast_to(gg.reshape(()), ash).copy(),)
        return (np.broadcast_to(np.expand_dims(gg, axis), ash).copy(),)

    return _result(out, (a,), bw, "reduce_mean")


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
    the fold's next step exactly. Overflow is left to the caller's
    finiteness check rather than reported by numpy.
    """
    m, k = a.shape
    n = b.shape[1]
    step = max(1, _MATMUL_BLOCK_ELEMS // (m * n))
    over_output = m * n > 4 * k
    out = None
    with np.errstate(over="ignore", invalid="ignore"):
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
    if isinstance(stride, int):
        strides = (stride,) * ndim
    else:
        strides = tuple(int(s) for s in stride)
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


def _window_view(xp: np.ndarray, k_sp, strides, outs) -> np.ndarray:
    """Strided view (out..., k..., C) over the padded input."""
    n = len(k_sp)
    shape = tuple(outs) + tuple(k_sp) + (xp.shape[-1],)
    st = xp.strides
    strides_full = tuple(st[i] * strides[i] for i in range(n)) + st[:n] + (st[-1],)
    return np.lib.stride_tricks.as_strided(xp, shape=shape, strides=strides_full)


def _conv_forward(x, w, b, pads, strides, outs):
    """im2col + 64-bit GEMM, rounded once to the working dtype."""
    n = len(outs)
    xp = np.pad(x, tuple(pads) + ((0, 0),))
    cols = np.ascontiguousarray(_window_view(xp, w.shape[:n], strides, outs)).reshape(
        int(np.prod(outs, dtype=np.int64)), -1
    )
    wmat = w.reshape(-1, w.shape[-1]).astype(np.float64)
    out = cols.astype(np.float64) @ wmat
    if b is not None:
        out = out + b.astype(np.float64)
    return out.reshape(tuple(outs) + (w.shape[-1],)).astype(x.dtype), xp.shape, cols


def _scatter_windows(cols: np.ndarray, shape, strides) -> np.ndarray:
    """Adjoint of ``_window_view``: sum window cells (out..., k..., C) back
    onto a zero array of ``shape``.

    The loop runs over kernel offsets in ascending row-major order. For a
    fixed offset the strided destination cells are disjoint, so each ``+=``
    is overlap-free and the result is deterministic; a cell covered by
    several windows receives their values in offset order.
    """
    n = len(strides)
    outs, k_sp = cols.shape[:n], cols.shape[n : 2 * n]
    out = np.zeros(shape, dtype=cols.dtype)
    for offset in itertools.product(*(range(k) for k in k_sp)):
        dst = tuple(
            slice(offset[i], offset[i] + outs[i] * strides[i], strides[i]) for i in range(n)
        )
        out[dst] += cols[(slice(None),) * n + offset]
    return out


def _conv_backward(gout, cin, w, xp_shape, cols, pads, strides, outs, need_gx):
    """Gradients for input, kernel, bias, contracted in the working dtype.

    Gradient kernels only need run-to-run determinism, not the forward
    path's 64-bit accumulation, so they stay in the tensors' own dtype.
    The input gradient (a GEMM plus the col2im scatter ``_scatter_windows``)
    is computed only when ``need_gx`` is set and is None otherwise, so a
    conv on a gradient-free input such as a raw clip pays for the kernel
    and bias gradients alone.
    """
    n = len(outs)
    cout = w.shape[-1]
    gmat = np.ascontiguousarray(gout.reshape(-1, cout))

    gw = (cols.T @ gmat).reshape(w.shape)

    gb = gmat.sum(axis=0)
    if not need_gx:
        return None, gw, gb

    dcols = (gmat @ w.reshape(-1, cout).T).reshape(tuple(outs) + w.shape[:n] + (cin,))
    gxp = _scatter_windows(dcols, xp_shape, strides)
    unpad = tuple(slice(lo, gxp.shape[i] - hi) for i, (lo, hi) in enumerate(pads))
    return np.ascontiguousarray(gxp[unpad]), gw, gb


def _conv_nd(x: Tensor, kernel: Tensor, bias, padding, stride, ndim: int, op: str) -> Tensor:
    _same_dtype(x, kernel, *( (bias,) if bias is not None else () ))
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
    pads, outs = _conv_geometry(x.shape[:ndim], kernel.shape[:ndim], strides, padding)
    bdata = bias.data if bias is not None else None
    out, xp_shape, cols = _conv_forward(x.data, kernel.data, bdata, pads, strides, outs)
    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    cin, kd = x.shape[-1], kernel.data

    def bw(g):
        gx, gw, gb = _conv_backward(
            g, cin, kd, xp_shape, cols, pads, strides, outs, x.requires_grad
        )
        grads = [gx, gw if kernel.requires_grad else None]
        if bias is not None:
            grads.append(gb if bias.requires_grad else None)
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


def _pool_geometry(in_sp, window, stride, op: str):
    """Strides and output extents of an unpadded pool; stride defaults to window."""
    if len(window) != len(in_sp) or any(w < 1 for w in window):
        raise ShapeError(f"{op}: bad window {window}")
    strides = _norm_stride(window if stride is None else stride, len(in_sp))
    return strides, _conv_geometry(in_sp, window, strides, "valid")[1]


def _maxpool_nd(x: Tensor, window, stride, ndim: int, op: str) -> Tensor:
    if x.data.ndim != ndim + 1:
        raise ShapeError(f"{op}: input must have {ndim + 1} dims, got {x.shape}")
    window = tuple(int(w) for w in window)
    strides, outs = _pool_geometry(x.shape[:ndim], window, stride, op)
    channels = x.shape[-1]

    view = _window_view(x.data, window, strides, outs)
    m = int(np.prod(outs, dtype=np.int64))
    wprod = int(np.prod(window, dtype=np.int64))
    flat = np.ascontiguousarray(view).reshape(m, wprod, channels)
    # First maximum in row-major window scan order wins ties.
    idx = flat.argmax(axis=1)[:, None, :]
    out = np.take_along_axis(flat, idx, axis=1).reshape(outs + (channels,))
    in_shape, cell_shape = x.shape, view.shape

    def bw(g):
        # Each output's gradient goes to its argmax cell, then onto the input.
        cells = np.zeros((m, wprod, channels), dtype=g.dtype)
        np.put_along_axis(cells, idx, g.reshape(m, 1, channels), axis=1)
        return (_scatter_windows(cells.reshape(cell_shape), in_shape, strides),)

    return _result(out, (x,), bw, op)


def maxpool2d(x: Tensor, window, stride=None) -> Tensor:
    """Max over (h, w) windows of an (H, W, C) input; stride defaults to window."""
    return _maxpool_nd(x, window, stride, 2, "maxpool2d")


def maxpool3d(x: Tensor, window, stride=None) -> Tensor:
    """Max over (t, h, w) windows of a (T, H, W, C) input."""
    return _maxpool_nd(x, window, stride, 3, "maxpool3d")


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
    with record() as tape:
        y = f(probe)
    if not isinstance(y, Tensor) or y.numel != 1:
        raise TapeError("grad_check needs a scalar-valued function")
    tape.backward(y)
    analytic = probe.grad.reshape(-1)

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
