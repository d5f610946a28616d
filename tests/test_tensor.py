import hashlib
import inspect
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from signet import tensor as tn
from signet.tensor import NonFiniteError, Rng, ShapeError, TapeError, Tensor


def t32(arr, **kw):
    return Tensor(np.asarray(arr, dtype=np.float32), **kw)


# ---------------------------------------------------------------------------
# Rng
# ---------------------------------------------------------------------------


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = Rng(123), Rng(123)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_uniforms_match_single_draws(self):
        # Lane lengths m (pinned below): 1 for n < 32, 4 for 200, 8 for
        # 1023..1025, 16 for 4097, 64 for 65_539. So 1024 is 128 full lanes,
        # 1023 ends on a partial lane and 1025 on a one-draw lane.
        for n in (0, 1, 2, 3, 200, 1023, 1024, 1025, 4097, 65_539):
            a, b = Rng(9), Rng(9)
            batch = a.uniforms(n)
            singles = np.array([b.uniform() for _ in range(n)], dtype=np.float64)
            assert batch.shape == (n,)
            assert batch.view(np.uint64).tobytes() == singles.view(np.uint64).tobytes(), n
            assert a._s == b._s, n

    def test_lane_lengths_cover_the_boundaries(self):
        sizes = (1, 2, 3, 31, 200, 1023, 1024, 1025, 4097, 65_539)
        assert [tn._lane_length(n) for n in sizes] == [1, 1, 1, 1, 4, 8, 8, 8, 16, 64]

    def test_interleaved_calls_follow_one_stream(self):
        a, b = Rng(21), Rng(21)
        got = [a.uniforms(300).tolist(), a.next_u64(), a.randbelow(10),
               a.shuffle(list(range(9))), a.uniforms(77).tolist()]
        want = [[b.uniform() for _ in range(300)], b.next_u64(), b.randbelow(10),
                b.shuffle(list(range(9))), [b.uniform() for _ in range(77)]]
        assert got == want
        assert a._s == b._s

    @pytest.mark.parametrize("j", [0, 1, 2, 5])
    def test_jump_table_equals_scalar_steps(self, j):
        r = Rng(4)
        start = np.array([r._s], dtype=np.uint64)
        jumped = tn._gf2_apply(tn._jump_table(j), start)
        for _ in range(2**j):
            r.next_u64()
        assert [int(w) for w in jumped[0]] == r._s

    def test_uniforms_golden_digest(self):
        # Digest of the stream as drawn one value at a time before uniforms
        # was vectorised; pins the values, not only run-to-run agreement.
        digest = hashlib.sha256(Rng(0).uniforms(300_001).tobytes()).hexdigest()
        assert digest == "01c84cce3c18f3db8e6e8c8afd182e255196962ea7ea8dc23051c092a2f0cd8f"

    def test_seeding_matches_published_splitmix64_vector(self):
        # The four state words for seed 0 are the first four reference
        # splitmix64 outputs; transcribe the algorithm independently here.
        mask = (1 << 64) - 1
        state, words = 0, []
        for _ in range(4):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            words.append(z ^ (z >> 31))
        assert words[:3] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert Rng(0)._s == words

    def test_known_first_value_is_stable(self):
        # Frozen so an accidental algorithm change cannot slip by.
        assert Rng(0).next_u64() == 11091344671253066420

    def test_uniform_range(self):
        u = Rng(7).uniforms(10000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_shuffle_deterministic_permutation(self):
        a = Rng(5).shuffle(list(range(10)))
        b = Rng(5).shuffle(list(range(10)))
        assert a == b and sorted(a) == list(range(10))

    def test_randbelow_bounds(self):
        r = Rng(3)
        draws = [r.randbelow(7) for _ in range(500)]
        assert min(draws) >= 0 and max(draws) < 7 and len(set(draws)) == 7


# ---------------------------------------------------------------------------
# Tensor basics and error policy
# ---------------------------------------------------------------------------


_HUGE = 3e38  # finite in float32; twice it is not

# One call per op whose float32 result is non-finite for finite operands.
_OVERFLOW_CASES = {
    "add": lambda: tn.add(t32([_HUGE]), t32([_HUGE])),
    "sub": lambda: tn.sub(t32([_HUGE]), t32([-_HUGE])),
    "mul": lambda: tn.mul(t32([_HUGE]), t32([_HUGE])),
    "scale": lambda: tn.scale(t32([_HUGE]), 2.0),
    "reduce_sum": lambda: tn.reduce_sum(t32([_HUGE, _HUGE])),
    "reduce_mean": lambda: tn.reduce_mean(t32([_HUGE, _HUGE])),
    "matmul": lambda: tn.matmul(t32([[_HUGE, _HUGE]]), t32([[1.0], [1.0]])),
    "conv2d": lambda: tn.conv2d(t32(np.full((1, 2, 1), _HUGE)), t32(np.ones((1, 2, 1, 1)))),
    "conv3d": lambda: tn.conv3d(t32(np.full((1, 1, 2, 1), _HUGE)),
                                t32(np.ones((1, 1, 2, 1, 1)))),
    "log": lambda: tn.log(t32([0.0])),
}

# Ops that cannot turn finite operands into a non-finite result.
_FINITE_FROM_FINITE = {
    "neg", "clip", "relu", "sigmoid", "tanh", "softmax",
    "reshape", "narrow", "stack", "maxpool2d", "maxpool3d",
}


class TestTensorBasics:
    def test_zero_extent_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 0, 3), dtype=np.float32))

    def test_non_finite_rejected_at_creation(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([1.0, np.nan], dtype=np.float32))

    @pytest.mark.parametrize("op", sorted(_OVERFLOW_CASES))
    def test_non_finite_kernel_output_raises(self, op):
        # NonFiniteError naming the op is the only signal: no numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=f"^{op} produced non-finite values"):
                _OVERFLOW_CASES[op]()

    def test_overflow_cases_cover_every_op(self):
        ops = {name for name in tn.__all__ if inspect.isfunction(getattr(tn, name))}
        assert not set(_OVERFLOW_CASES) & _FINITE_FROM_FINITE
        assert set(_OVERFLOW_CASES) | _FINITE_FROM_FINITE == ops - {"grad_check"}

    def test_log_of_negative_raises(self):
        with pytest.raises(NonFiniteError):
            tn.log(t32([-1.0]))

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(ShapeError):
            tn.add(t32([1.0]), Tensor(np.array([1.0])))

    def test_narrow_negative_axis_counts_from_the_end(self):
        xv = np.arange(12, dtype=np.float32).reshape(3, 4)
        g = np.arange(6, dtype=np.float32).reshape(3, 2)
        results = []
        for axis in (1, -1):
            x = Tensor(xv, requires_grad=True)
            with tn.Tape() as tape:
                out = tn.narrow(x, axis, 1, 2)
                loss = tn.reduce_sum(tn.mul(out, t32(g)))
            tape.backward(loss)
            results.append((out.data, tape.grads[x]))
        (d1, g1), (d2, g2) = results
        assert np.array_equal(d1, xv[:, 1:3]) and np.array_equal(d2, d1)
        assert np.array_equal(g2, g1)

    @pytest.mark.parametrize("axis", [2, -3])
    def test_narrow_axis_out_of_range(self, axis):
        with pytest.raises(ShapeError):
            tn.narrow(t32(np.ones((3, 4))), axis, 0, 1)

    @pytest.mark.parametrize("shape", [(-2, -2), (-1, -4), (4, 1.5), (2, 3)],
                             ids=["negative", "negative_wildcard", "float", "size"])
    def test_reshape_rejects_extents_other_than_positive_integers(self, shape):
        with pytest.raises(ShapeError):
            tn.reshape(t32(np.arange(4)), shape)

    NON_INTEGRAL = {
        "maxpool2d_window": lambda: tn.maxpool2d(t32(np.ones((4, 4, 1))), (2.5, 2)),
        "conv2d_stride": lambda: tn.conv2d(t32(np.ones((4, 4, 1))), t32(np.ones((2, 2, 1, 1))),
                                           stride=1.5),
        "conv2d_stride_pair": lambda: tn.conv2d(t32(np.ones((4, 4, 1))),
                                                t32(np.ones((2, 2, 1, 1))), stride=(1.5, 1)),
        "narrow_start": lambda: tn.narrow(t32(np.ones((3, 4))), 1, 1.0, 1),
        "narrow_axis": lambda: tn.narrow(t32(np.ones((3, 4))), 1.0, 0, 1),
        "reduce_sum_axis": lambda: tn.reduce_sum(t32(np.ones((3, 4))), 1.0),
    }

    @pytest.mark.parametrize("case", list(NON_INTEGRAL))
    def test_non_integral_extent_or_axis_is_shape_error(self, case):
        with pytest.raises(ShapeError):
            self.NON_INTEGRAL[case]()

    AXIS_OPS = {
        "narrow": lambda x, axis: tn.narrow(x, axis, 0, 1),
        "reduce_sum": lambda x, axis: tn.reduce_sum(x, axis=axis),
        "reduce_mean": lambda x, axis: tn.reduce_mean(x, axis=axis),
    }

    @pytest.mark.parametrize("op", list(AXIS_OPS))
    @pytest.mark.parametrize("side", ["above", "below"])
    def test_axis_out_of_range_is_shape_error(self, op, side):
        axis = 2 if side == "above" else -3
        with pytest.raises(ShapeError):
            self.AXIS_OPS[op](t32(np.ones((3, 4))), axis)

    # narrow has its own negative-axis test above.
    @pytest.mark.parametrize("op", [op for op in AXIS_OPS if op != "narrow"])
    def test_negative_axis_matches_positive(self, op):
        xv = np.random.default_rng(3).uniform(-1, 1, (3, 4)).astype(np.float32)
        results = []
        for axis in (1, -1):
            x = Tensor(xv, requires_grad=True)
            with tn.Tape() as tape:
                out = self.AXIS_OPS[op](x, axis)
                loss = tn.reduce_sum(tn.mul(out, out))
            tape.backward(loss)
            results.append((out.data.tobytes(), out.shape, tape.grads[x].tobytes()))
        assert results[0] == results[1]


# ---------------------------------------------------------------------------
# matmul / reductions
# ---------------------------------------------------------------------------


class TestMatmul:
    def test_identity(self):
        x = np.random.default_rng(0).uniform(-1, 1, (4, 4)).astype(np.float32)
        out = tn.matmul(t32(np.eye(4)), t32(x))
        assert np.array_equal(out.data, x)

    def test_one_by_one(self):
        out = tn.matmul(t32([[3.0]]), t32([[4.0]]))
        assert out.data.reshape(()) == np.float32(12.0)

    def test_matches_triple_loop_exactly(self):
        rng = np.random.default_rng(42)
        a = rng.uniform(-1, 1, (3, 4)).astype(np.float32)
        b = rng.uniform(-1, 1, (4, 2)).astype(np.float32)
        got = tn.matmul(t32(a), t32(b)).data
        assert np.array_equal(got, oracles.matmul_triple_loop_f32(a, b))

    def test_chunked_fold_matches_triple_loop(self):
        # K spans three whole chunks and a partial fourth, so the running sum
        # is carried into three later chunks.
        m, n = 16, 64
        chunk = tn._MATMUL_BLOCK_ELEMS // (m * n)
        k = 3 * chunk + 5
        assert chunk > 5
        rng = np.random.default_rng(1)
        a = rng.uniform(-1, 1, (m, k)).astype(np.float32)
        b = rng.uniform(-1, 1, (k, n)).astype(np.float32)
        got = tn.matmul(t32(a), t32(b)).data
        assert np.array_equal(got, oracles.matmul_triple_loop_f32(a, b))

    def test_inner_extent_mismatch(self):
        with pytest.raises(ShapeError):
            tn.matmul(t32(np.ones((2, 3))), t32(np.ones((4, 2))))

    def test_reduce_sum_matches_sequential_fold(self):
        x = np.random.default_rng(3).uniform(-1, 1, 257).astype(np.float32)
        acc = np.float32(0.0)
        for v in x:
            acc = np.float32(acc + v)
        assert tn.reduce_sum(t32(x)).data.reshape(()) == acc

    def test_reduce_mean_axis(self):
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        out = tn.reduce_mean(t32(x), axis=0)
        assert np.allclose(out.data, x.mean(axis=0))


def _signed_zero_operand(rng, shape, dtype):
    """Mostly ±0.0 and ±tiny, so products underflow to signed zeros."""
    tiny = np.finfo(dtype).tiny
    pick = np.array([0.0, -0.0, tiny, -tiny, 1.0, -0.5], dtype=dtype)
    return pick[rng.choice(len(pick), size=shape, p=[0.25, 0.25, 0.2, 0.2, 0.05, 0.05])]


class TestOrderedMatmulOracle:
    """The fold kernel against the chunked-accumulate reference, byte for byte."""

    # (M, K, N, operand layout, which way the fold is vectorised)
    CASES = {
        "along_k": (3, 40, 2, "", "k"),
        "switch_at_4k": (2, 4, 8, "", "k"),
        "switch_past_4k": (2, 4, 9, "", "output"),
        "k1_scalar": (1, 1, 1, "", "k"),
        "k1_switch_at_4k": (1, 1, 4, "", "k"),
        "k1_wide": (64, 1, 32, "", "output"),
        "k1_transposed_a": (300, 1, 16, "a.T", "output"),
        "along_k_past_chunk": (1, 1025, 64, "", "k"),
        "output_past_chunk": (1, 33, 2048, "", "output"),
        "output_two_chunks_and_one": (1, 65, 2048, "", "output"),
        "transposed_b": (1, 32, 300, "b.T", "output"),
        "transposed_b_chunks": (1, 40, 4096, "b.T", "output"),
    }

    @pytest.mark.parametrize("values", ["uniform", "signed_zero"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bytes_match_accumulate_fold(self, case, dtype, values):
        m, k, n, layout, fold = self.CASES[case]
        assert (m * n > 4 * k) == (fold == "output")
        rng = np.random.default_rng([list(self.CASES).index(case), values == "uniform"])
        if values == "uniform":
            a = rng.uniform(-1, 1, (m, k)).astype(dtype)
            b = rng.uniform(-1, 1, (k, n)).astype(dtype)
        else:
            a = _signed_zero_operand(rng, (m, k), dtype)
            b = _signed_zero_operand(rng, (k, n), dtype)
        # Backward passes a transposed view, as matmul's ga and gb do.
        if layout == "a.T":
            a = np.ascontiguousarray(a.T).T
        if layout == "b.T":
            b = np.ascontiguousarray(b.T).T
        want = oracles.ordered_matmul_accumulate(a, b)
        got = tn._ordered_matmul(a, b)
        assert got.dtype == want.dtype == dtype
        assert got.shape == want.shape == (m, n)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 2, 33])
    def test_negative_zero_survives_both_folds(self, dtype, k):
        tiny = np.finfo(dtype).tiny
        a = np.full((1, k), -tiny, dtype=dtype)
        for n in (1, 4 * k + 1):  # one output along k, then a wide one
            b = np.full((k, n), tiny, dtype=dtype)
            got = tn._ordered_matmul(a, b)
            assert not got.any() and np.signbit(got).all()
            assert got.tobytes() == oracles.ordered_matmul_accumulate(a, b).tobytes()

    @pytest.mark.parametrize("n", [1, 9])  # along k, then over the output
    def test_opposite_overflows_raise_without_numpy_warnings(self, n):
        # +inf and -inf products sum to NaN: NonFiniteError is the only signal.
        a = t32([[1e30, 1e30]])
        b = t32(np.tile([[1e30], [-1e30]], (1, n)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                tn.matmul(a, b)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


class TestConv:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).uniform(0, 1, (5, 6, 3)).astype(np.float32)
        k = np.zeros((1, 1, 3, 3), dtype=np.float32)
        for c in range(3):
            k[0, 0, c, c] = 1.0
        out = tn.conv2d(t32(x), t32(k), t32(np.zeros(3)))
        assert np.array_equal(out.data, x)

    def test_all_ones_valid_sums(self):
        out = tn.conv2d(t32(np.ones((3, 3, 1))), t32(np.ones((3, 3, 1, 1))), t32([0.0]))
        assert out.data.reshape(()) == np.float32(9.0)

    def test_conv3d_all_ones(self):
        out = tn.conv3d(t32(np.ones((2, 2, 2, 1))), t32(np.ones((2, 2, 2, 1, 1))))
        assert out.data.reshape(()) == np.float32(8.0)

    def test_conv3d_unit_kernel_identity(self):
        x = np.random.default_rng(1).uniform(0, 1, (3, 4, 4, 1)).astype(np.float32)
        out = tn.conv3d(t32(x), t32(np.ones((1, 1, 1, 1, 1))))
        assert np.array_equal(out.data, x)

    def test_conv2d_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, (5, 5, 2)).astype(np.float32)
        k = rng.uniform(-1, 1, (3, 3, 2, 4)).astype(np.float32)
        b = rng.uniform(-1, 1, 4).astype(np.float32)
        got = tn.conv2d(t32(x), t32(k), t32(b)).data
        assert np.abs(got - oracles.conv2d_loop(x, k, b)).max() < 1e-6

    def test_conv3d_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, (4, 5, 5, 2)).astype(np.float32)
        k = rng.uniform(-1, 1, (3, 3, 3, 2, 3)).astype(np.float32)
        got = tn.conv3d(t32(x), t32(k)).data
        assert np.abs(got - oracles.conv3d_loop(x, k)).max() < 1e-6

    @pytest.mark.parametrize("padding,stride", [("same", 1), ("same", 2), ("valid", 2)])
    def test_conv2d_padded_strided_matches_oracle(self, padding, stride):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, (6, 7, 2)).astype(np.float32)
        k = rng.uniform(-1, 1, (3, 3, 2, 2)).astype(np.float32)
        got = tn.conv2d(t32(x), t32(k), padding=padding, stride=stride).data
        exp = oracles.conv2d_loop(x, k, padding=padding, stride=stride)
        assert got.shape == exp.shape
        assert np.abs(got - exp).max() < 1e-6

    def test_same_padding_output_extents(self):
        x = t32(np.ones((5, 5, 1)))
        k = t32(np.ones((2, 2, 1, 1)))
        assert tn.conv2d(x, k, padding="same").shape == (5, 5, 1)

    def test_kernel_larger_than_input_valid_raises(self):
        with pytest.raises(ShapeError):
            tn.conv2d(t32(np.ones((2, 2, 1))), t32(np.ones((3, 3, 1, 1))))

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            tn.conv2d(t32(np.ones((4, 4, 2))), t32(np.ones((3, 3, 3, 1))))


class TestBlockedConv:
    """The conv forward in row blocks is the whole-matrix forward, byte for byte."""

    @pytest.mark.parametrize("budget", ["one", "k_minus_1", "short_last", "whole"])
    @pytest.mark.parametrize("bias", [False, True], ids=["no_bias", "bias"])
    @pytest.mark.parametrize("padding,stride", [("valid", 1), ("same", 1), ("valid", 2), ("same", 2)])
    @pytest.mark.parametrize("op,x_shape,k_shape", [
        (tn.conv2d, (9, 7, 3), (3, 3, 3, 4)),
        (tn.conv3d, (5, 6, 7, 2), (3, 3, 3, 2, 3)),
    ], ids=["conv2d", "conv3d"])
    def test_matches_whole_matrix(
        self, monkeypatch, op, x_shape, k_shape, padding, stride, bias, budget
    ):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, x_shape).astype(np.float32)
        k = rng.uniform(-1, 1, k_shape).astype(np.float32)
        b = rng.uniform(-1, 1, k_shape[-1]).astype(np.float32) if bias else None
        exp = oracles.conv_whole_matrix(x, k, b, padding, stride)
        rows, kdim = exp.size // k_shape[-1], math.prod(k_shape[:-1])
        short = next(r for r in range(2, rows) if rows % r)  # rows per block, last one short
        elems = {"one": 1, "k_minus_1": kdim - 1, "short_last": short * kdim, "whole": 1 << 20}
        monkeypatch.setattr(tn, "_CONV_BLOCK_ELEMS", elems[budget])
        got = op(t32(x), t32(k), None if b is None else t32(b), padding=padding, stride=stride)
        assert got.data.dtype == exp.dtype and got.shape == exp.shape
        assert got.data.tobytes() == exp.tobytes()

    def test_forward_never_holds_a_whole_float64_im2col(self):
        # cnn3d's second conv: its float32 im2col is 30.97 MB, a float64 copy
        # would double that. tracemalloc counts numpy's buffers exactly.
        rng = np.random.default_rng(12)
        x = t32(rng.uniform(-1, 1, (35, 32, 32, 8)))
        k = t32(rng.uniform(-1, 1, (3, 3, 3, 8, 16)))
        cols_bytes = 35 * 32 * 32 * (27 * 8) * 4
        tracemalloc.start()
        try:
            tn.conv3d(x, k, padding="same")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * cols_bytes, peak / cols_bytes


class TestIm2col:
    """``_col2im`` is the adjoint of ``_im2col``: <im2col(x), c> = <x, col2im(c)>."""

    # (x shape, kernel or window, strides, padding). Odd extents leave a short
    # last window: one that hangs into the padding, or input cells that no
    # window covers. The last two are pool windows, strided by themselves.
    @pytest.mark.parametrize("shape,k_sp,strides,padding", [
        *[pytest.param(shape, k_sp, (s,) * len(k_sp), p, id=f"{op}_{p}_{s}")
          for op, shape, k_sp in [("conv2d", (7, 6, 2), (3, 3)), ("conv3d", (5, 6, 7, 2), (2, 3, 3))]
          for p in ("valid", "same") for s in (1, 2)],
        pytest.param((5, 7, 3), (2, 3), (2, 3), "valid", id="pool2d"),
        pytest.param((3, 5, 7, 2), (2, 2, 3), (2, 2, 3), "valid", id="pool3d"),
    ])
    def test_col2im_is_the_adjoint_of_im2col(self, shape, k_sp, strides, padding):
        rng = np.random.default_rng(11)
        x = rng.integers(-3, 4, shape).astype(np.float64)
        cols, pads, outs = tn._im2col(x, k_sp, strides, padding)
        assert cols.shape == (math.prod(outs), math.prod(k_sp) * shape[-1])
        assert cols.flags.c_contiguous
        c = rng.integers(-3, 4, cols.shape).astype(np.float64)
        back = tn._col2im(c, shape, k_sp, strides, pads, outs)
        assert back.shape == shape
        assert np.sum(cols * c) == np.sum(x * back)

    # Windows that tile the input take _col2im's one-``+=`` case. Extents
    # that the window does not divide leave uncovered cells, which stay 0.
    @pytest.mark.parametrize("shape,window", [
        ((35, 64, 64, 8), (1, 2, 2)),
        ((9, 10, 6, 3), (2, 2, 2)),
        ((64, 64, 8), (2, 2)),
        ((5, 7, 3), (2, 3)),
        ((3, 5, 7, 2), (2, 2, 3)),
    ])
    def test_tiling_windows_match_the_offset_loop_bytes(self, shape, window):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(shape).astype(np.float32)
        cols, pads, outs = tn._im2col(x, window, window, "valid")
        c = rng.standard_normal(cols.shape).astype(np.float32)
        c[::3] = -0.0  # lands as +0.0 on either path
        got = tn._col2im(c, shape, window, window, pads, outs)
        want = oracles.col2im_offset_loop(c, shape, window, window, pads, outs)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[got == 0]).any()


# ---------------------------------------------------------------------------
# Max pooling
# ---------------------------------------------------------------------------


class TestMaxpool:
    def test_two_by_two(self):
        x = t32(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1))
        assert tn.maxpool2d(x, (2, 2)).data.reshape(()) == np.float32(4.0)

    def test_constant_input_constant_output(self):
        x = t32(np.full((4, 6, 2), 0.5))
        out = tn.maxpool2d(x, (2, 2))
        assert np.array_equal(out.data, np.full((2, 3, 2), 0.5, dtype=np.float32))

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (5, 7, 3)).astype(np.float32)
        got = tn.maxpool2d(t32(x), (2, 3)).data
        assert np.array_equal(got, oracles.maxpool_loop(x, (2, 3), (2, 3)))

    def test_maxpool3d_matches_scan_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, (4, 4, 5, 2)).astype(np.float32)
        got = tn.maxpool3d(t32(x), (2, 2, 2)).data
        assert np.array_equal(got, oracles.maxpool_loop(x, (2, 2, 2), (2, 2, 2)))

    def test_window_too_large_raises(self):
        with pytest.raises(ShapeError):
            tn.maxpool2d(t32(np.ones((2, 2, 1))), (3, 3))

    @pytest.mark.parametrize(
        "op, shape, window",
        [
            ("maxpool2d", (7, 10, 3), (2, 3)),
            ("maxpool3d", (4, 6, 5, 2), (2, 2, 2)),
            ("maxpool3d", (3, 6, 7, 2), (1, 2, 2)),
        ],
        ids=["2d_2x3", "3d_2x2x2", "3d_1x2x2"],
    )
    def test_gradient_matches_loop_oracle(self, op, shape, window):
        rng = np.random.default_rng(8)
        # Rounded inputs give ties; integer gradients sum exactly in any order.
        x = np.round(rng.uniform(-2, 2, shape)).astype(np.float32)
        probe = t32(x, requires_grad=True)
        with tn.Tape() as tape:
            y = getattr(tn, op)(probe, window)
            g = rng.integers(-3, 4, y.shape).astype(np.float32)
            loss = tn.reduce_sum(tn.mul(y, t32(g)))
        tape.backward(loss)
        assert np.array_equal(tape.grads[probe], oracles.maxpool_grad_loop(x, g, window))

    def test_tie_routes_gradient_to_first_in_scan_order(self):
        x = t32(np.full((2, 2, 1), 1.0), requires_grad=True)
        with tn.Tape() as tape:
            loss = tn.reduce_sum(tn.maxpool2d(x, (2, 2)))
        tape.backward(loss)
        assert np.array_equal(tape.grads[x].reshape(4), np.array([1, 0, 0, 0], dtype=np.float32))


# ---------------------------------------------------------------------------
# Autodiff and the tape
# ---------------------------------------------------------------------------


# One call per op: the op applied to tensors of the listed shapes. Operands
# are drawn from [0.5, 1.5], inside clip's range and away from relu's kink
# and log's pole; the elementwise pairs broadcast.
_BW_CASES = {
    "add": (tn.add, [(2, 3), (3,)]),
    "sub": (tn.sub, [(2, 1), (1, 3)]),
    "mul": (tn.mul, [(), (2, 3)]),
    "neg": (tn.neg, [(2, 3)]),
    "scale": (lambda a: tn.scale(a, 3.0), [(2, 3)]),
    "log": (tn.log, [(2, 3)]),
    "clip": (lambda a: tn.clip(a, 0.0, 2.0), [(2, 3)]),
    "relu": (tn.relu, [(2, 3)]),
    "sigmoid": (tn.sigmoid, [(2, 3)]),
    "tanh": (tn.tanh, [(2, 3)]),
    "softmax": (tn.softmax, [(2, 3)]),
    "reshape": (lambda a: tn.reshape(a, (3, 2)), [(2, 3)]),
    "narrow": (lambda a: tn.narrow(a, 1, 1, 2), [(2, 3)]),
    "stack": (lambda *ts: tn.stack(list(ts)), [(2, 3), (2, 3)]),
    "reduce_sum": (tn.reduce_sum, [(2, 3)]),
    "reduce_mean": (lambda a: tn.reduce_mean(a, axis=1), [(2, 3)]),
    "matmul": (tn.matmul, [(2, 3), (3, 4)]),
    "conv2d": (lambda x, k, b: tn.conv2d(x, k, b, padding="same", stride=2),
               [(5, 4, 2), (3, 3, 2, 3), (3,)]),
    "conv3d": (tn.conv3d, [(3, 4, 4, 2), (2, 3, 3, 2, 3)]),
    "maxpool2d": (lambda a: tn.maxpool2d(a, (2, 2)), [(4, 5, 2)]),
    "maxpool3d": (lambda a: tn.maxpool3d(a, (1, 2, 2)), [(2, 4, 4, 2)]),
}


# relu and clip at their boundaries, with clip's range [-0.5, 2.0]. Per x:
# relu(x), relu's gradient for g = 1, -1, -0.0, then the same for clip. A
# gradient that does not pass is g * 0.0, a zero with g's sign.
_LO, _HI = -0.5, 2.0
_KINK_ROWS = [
    (-1.0, 0.0, (0.0, -0.0, -0.0), -0.5, (0.0, -0.0, -0.0)),  # below lo
    (-0.0, 0.0, (0.0, -0.0, -0.0), -0.0, (1.0, -1.0, -0.0)),
    (0.0, 0.0, (0.0, -0.0, -0.0), 0.0, (1.0, -1.0, -0.0)),  # relu's kink passes nothing
    (_LO, 0.0, (0.0, -0.0, -0.0), -0.5, (1.0, -1.0, -0.0)),  # clip's bounds are inclusive
    (_HI, 2.0, (1.0, -1.0, -0.0), 2.0, (1.0, -1.0, -0.0)),
    (0.75, 0.75, (1.0, -1.0, -0.0), 0.75, (1.0, -1.0, -0.0)),  # inside
    (3.0, 3.0, (1.0, -1.0, -0.0), 2.0, (0.0, -0.0, -0.0)),  # beyond hi
]


class TestBackward:
    def test_sum_of_squares_gradient_exact(self):
        xv = np.random.default_rng(0).uniform(-1, 1, (3, 4)).astype(np.float32)
        x = Tensor(xv, requires_grad=True)
        with tn.Tape() as tape:
            loss = tn.reduce_sum(tn.mul(x, x))
        tape.backward(loss)
        assert np.array_equal(tape.grads[x], (2 * xv.astype(np.float64)).astype(np.float32) * 1)

    def test_loss_from_other_tape_rejected(self):
        x = t32([1.0, 2.0], requires_grad=True)
        with tn.Tape():
            loss = tn.reduce_sum(x)
        with tn.Tape() as other:
            tn.reduce_sum(x)
            with pytest.raises(TapeError):
                other.backward(loss)

    def test_tapes_in_concurrent_threads_stay_apart(self):
        # A opens its tape, then B opens one, then A computes, then B does.
        a_open, b_open, a_done = threading.Event(), threading.Event(), threading.Event()
        grads, errors = {}, []

        def worker(name, value, wait_open, opened, wait_compute, done):
            try:
                x = t32([value] * 3, requires_grad=True)
                if wait_open is not None:
                    wait_open.wait(10)
                with tn.Tape() as tape:
                    opened.set()
                    wait_compute.wait(10)
                    loss = tn.reduce_sum(tn.mul(x, x))
                tape.backward(loss)
                grads[name] = tape.grads[x].tolist()
            except TapeError as exc:
                errors.append(exc)
            finally:
                opened.set()
                done.set()

        threads = [
            threading.Thread(target=worker, args=("a", 1.0, None, a_open, b_open, a_done)),
            threading.Thread(target=worker,
                             args=("b", 2.0, a_open, b_open, a_done, threading.Event())),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
            assert not t.is_alive()
        assert errors == []
        assert grads == {"a": [2.0, 2.0, 2.0], "b": [4.0, 4.0, 4.0]}

    def test_second_backward_raises_and_keeps_first_gradients(self):
        # A second pass would add into the leaves' gradients a second time.
        x, w = t32([3.0]), t32([2.0], requires_grad=True)
        with tn.Tape() as tape:
            y = tn.mul(x, w)
            loss = tn.reduce_sum(tn.mul(y, y))
        tape.backward(loss)
        assert tape.grads[w].tolist() == [36.0]
        nodes = len(tape.nodes)
        with pytest.raises(TapeError):
            tape.backward(loss)
        assert tape.grads[w].tolist() == [36.0]
        assert len(tape.nodes) == nodes

    def test_non_scalar_loss_rejected(self):
        x = t32([1.0, 2.0], requires_grad=True)
        with tn.Tape() as tape:
            y = tn.mul(x, x)
        with pytest.raises(TapeError):
            tape.backward(y)

    def test_fanout_accumulates(self):
        x = t32([3.0], requires_grad=True)
        with tn.Tape() as tape:
            loss = tn.reduce_sum(tn.add(x, x))
        tape.backward(loss)
        assert tape.grads[x].reshape(()) == np.float32(2.0)

    def test_dense_softmax_crossentropy_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        w = rng.uniform(-1, 1, (6, 4))
        truth = np.eye(4)[rng.integers(0, 4, 3)]

        def f(t):
            z = tn.matmul(tn.reshape(t, (3, 6)), Tensor(w))
            p = tn.clip(tn.softmax(z), 1e-7, 1 - 1e-7)
            picked = tn.reduce_sum(tn.mul(tn.log(p), Tensor(truth)), axis=1)
            return tn.neg(tn.reduce_mean(picked))

        err = tn.grad_check(f, Tensor(rng.uniform(-1, 1, 18)), step=1e-3)
        assert err <= 1e-3

    def test_gradients_are_deterministic(self):
        rng = np.random.default_rng(2)
        xv = rng.uniform(-1, 1, (5, 5, 2)).astype(np.float32)
        kv = rng.uniform(-1, 1, (3, 3, 2, 3)).astype(np.float32)

        def run():
            x = Tensor(xv.copy(), requires_grad=True)
            k = Tensor(kv.copy(), requires_grad=True)
            with tn.Tape() as tape:
                y = tn.conv2d(x, k, padding="same")
                loss = tn.reduce_sum(tn.mul(y, y))
            tape.backward(loss)
            return loss.data.copy(), tape.grads[x].copy(), tape.grads[k].copy()

        la, xa, ka = run()
        lb, xb, kb = run()
        assert np.array_equal(la, lb) and np.array_equal(xa, xb) and np.array_equal(ka, kb)

    @pytest.mark.parametrize(
        "op, x_shape, k_shape, padding, stride",
        [
            (tn.conv2d, (7, 6, 2), (3, 3, 2, 4), "same", 1),
            (tn.conv2d, (9, 8, 3), (3, 2, 3, 2), "valid", (2, 1)),
            (tn.conv3d, (4, 6, 5, 2), (3, 3, 3, 2, 3), "same", 1),
            (tn.conv3d, (5, 7, 6, 1), (2, 3, 3, 1, 2), "valid", 2),
        ],
    )
    def test_conv_on_gradient_free_input(self, op, x_shape, k_shape, padding, stride):
        # Skipping the input gradient must not move the kernel or bias bits.
        rng = np.random.default_rng(12)
        xv = rng.uniform(-1, 1, x_shape).astype(np.float32)
        kv = rng.uniform(-1, 1, k_shape).astype(np.float32)
        bv = rng.uniform(-1, 1, k_shape[-1]).astype(np.float32)

        def run(x_needs_grad):
            x = Tensor(xv, requires_grad=x_needs_grad)
            k, b = Tensor(kv, requires_grad=True), Tensor(bv, requires_grad=True)
            with tn.Tape() as tape:
                y = op(x, k, b, padding=padding, stride=stride)
                loss = tn.reduce_sum(tn.mul(y, y))
            tape.backward(loss)
            return tape.grads.get(x), tape.grads[k], tape.grads[b]

        xa, ka, ba = run(True)
        xb, kb, bb = run(False)
        assert xa is not None and xb is None
        assert ka.tobytes() == kb.tobytes()
        assert ba.tobytes() == bb.tobytes()

    def test_backward_cases_cover_every_op(self):
        ops = {name for name in tn.__all__ if inspect.isfunction(getattr(tn, name))}
        assert set(_BW_CASES) == ops - {"grad_check"}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", sorted(_BW_CASES))
    def test_bw_returns_each_input_shape_and_dtype(self, op, dtype):
        # The tape adds these arrays into grad as they are, without a re-cast.
        fn, shapes = _BW_CASES[op]
        rng = np.random.default_rng(5)
        masks = [(True,) * len(shapes)]
        if len(shapes) > 1:
            masks += [tuple(i == j for i in range(len(shapes))) for j in range(len(shapes))]
        for needs in masks:
            inputs = [Tensor(rng.uniform(0.5, 1.5, s).astype(dtype), requires_grad=r)
                      for s, r in zip(shapes, needs)]
            with tn.Tape() as tape:
                out = fn(*inputs)
            (node,) = tape.nodes
            assert node.out is out and len(node.inputs) == len(inputs)
            grads = node.bw(rng.uniform(-1, 1, out.shape).astype(dtype))
            assert len(grads) == len(inputs)
            for t, g in zip(node.inputs, grads):
                if not t.requires_grad:
                    assert g is None, (op, needs)
                    continue
                assert isinstance(g, np.ndarray), (op, needs)
                assert (g.shape, g.dtype) == (t.shape, t.data.dtype), (op, needs)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", ["relu", "clip"])
    def test_relu_and_clip_at_their_boundaries(self, op, dtype):
        fn = tn.relu if op == "relu" else (lambda a: tn.clip(a, _LO, _HI))
        col = 1 if op == "relu" else 3
        x = np.array([row[0] for row in _KINK_ROWS], dtype=dtype)
        with tn.Tape() as tape:
            out = fn(Tensor(x, requires_grad=True))
        want = np.array([row[col] for row in _KINK_ROWS], dtype=dtype)
        # Bytes compare signbits too: -0.0 and 0.0 differ here.
        assert out.data.dtype == dtype and out.data.tobytes() == want.tobytes()
        for j, g in enumerate((1.0, -1.0, -0.0)):
            (got,) = tape.nodes[0].bw(np.full(x.shape, g, dtype=dtype))
            want = np.array([row[col + 1][j] for row in _KINK_ROWS], dtype=dtype)
            assert got.dtype == dtype and got.tobytes() == want.tobytes(), g
            assert np.array_equal(np.signbit(got), np.signbit(want)), g

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axis", [None, 0, 1, -1])
    @pytest.mark.parametrize("op", ["reduce_sum", "reduce_mean"])
    def test_reduction_gradient_is_the_broadcast_gradient(self, op, axis, dtype):
        shape = (2, 3, 5)
        rng = np.random.default_rng(7)
        a = Tensor(rng.uniform(-1, 1, shape).astype(dtype), requires_grad=True)
        with tn.Tape() as tape:
            out = getattr(tn, op)(a, axis)
        n = dtype(a.numel if axis is None else shape[axis])
        if op == "reduce_mean":
            assert out.data.tobytes() == (tn.reduce_sum(a, axis).data / n).tobytes()
        g = np.asarray(rng.uniform(-1, 1, out.shape), dtype=dtype)
        (got,) = tape.nodes[0].bw(g)
        cell = g / n if op == "reduce_mean" else g
        if axis is None:
            want = np.full(shape, cell, dtype=dtype)
        else:
            want = np.repeat(np.expand_dims(cell, axis), shape[axis], axis=axis)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()

    def test_grads_land_on_leaves_and_leave_produced_tensors(self):
        rng = np.random.default_rng(6)
        clip = t32(rng.uniform(-1, 1, (4, 4, 1)))
        k = t32(rng.uniform(-1, 1, (3, 3, 1, 2)), requires_grad=True)
        w = t32(rng.uniform(-1, 1, (8, 3)), requires_grad=True)
        with tn.Tape() as tape:
            h = tn.relu(tn.conv2d(clip, k, padding="same"))
            flat = tn.reshape(tn.maxpool2d(h, (2, 2)), (1, 8))
            z = tn.add(tn.matmul(flat, w), tn.matmul(flat, w))  # w feeds two nodes
            loss = tn.scale(tn.reduce_sum(tn.log(tn.softmax(z))), -1.0)
        tape.backward(loss)
        assert tape.grads[k].shape == k.shape and tape.grads[w].shape == w.shape
        assert clip not in tape.grads
        assert len(tape.nodes) == 11
        assert all(node.out not in tape.grads for node in tape.nodes)

    @staticmethod
    def _weighted_sum_tape(w, c, grads=None):
        with tn.Tape(grads) as tape:
            loss = tn.reduce_sum(tn.mul(w, t32(c)))
        tape.backward(loss)
        return tape

    def test_tapes_sharing_a_dict_fold_in_tape_order(self):
        # float32 addition does not associate: (1e8 - 1e8) + 1 is 1 but
        # 1e8 + (-1e8 + 1) is 0. The -0.0 column stays -0.0 only if the
        # first contribution is stored as is, not added to zeros.
        cs = ([1e8, -0.0], [-1e8, -0.0], [1.0, -0.0])
        w = t32([1.0, 1.0], requires_grad=True)
        grads = {}
        for c in cs:
            self._weighted_sum_tape(w, c, grads)
        alone = [self._weighted_sum_tape(w, c).grads[w] for c in cs]
        assert list(grads) == [w]
        assert grads[w].tobytes() == ((alone[0] + alone[1]) + alone[2]).tobytes()
        assert grads[w].tolist() == [1.0, 0.0] and np.signbit(grads[w][1])

    def test_held_contributions_fold_later_to_the_same_bits(self):
        # The chain fold of a clip-parallel batch: tape 0 folds into a dict;
        # tapes 1 and 2 hold w's contributions, which are folded onto tape
        # 0's sum afterwards. Each tape gives w three contributions: one
        # from w * c and one per operand of w * w.
        cs = ([1e8, -0.0], [-1e8, -0.0], [1.0, -0.0])

        def tape(c, grads, held=None):
            with tn.Tape(grads, held) as t:
                loss = tn.add(tn.reduce_sum(tn.mul(w, t32(c))), tn.reduce_sum(tn.mul(w, w)))
            t.backward(loss)

        w = t32([1.0, 3.0], requires_grad=True)
        serial = {}
        for c in cs:
            tape(c, serial)
        running, held = {}, {w: []}
        tape(cs[0], running)
        for c in cs[1:]:
            tape(c, {}, held)
        assert len(held[w]) == 2 * 3 and list(running) == [w]
        tn.Tape.fold(running, held)
        assert running[w].tobytes() == serial[w].tobytes()

    def test_leaf_reused_on_a_fresh_tape_gets_only_that_tapes_gradient(self):
        w = t32([2.0], requires_grad=True)
        first = self._weighted_sum_tape(w, [3.0])
        second = self._weighted_sum_tape(w, [5.0])
        assert first.grads[w].tolist() == [3.0] and second.grads[w].tolist() == [5.0]


class TestGradCheck:
    def test_constant_gradient(self):
        err = tn.grad_check(tn.reduce_sum, Tensor(np.random.default_rng(0).uniform(-1, 1, 7)))
        assert err <= 1e-6

    def test_relu_off_kink(self):
        x = np.array([0.5, -0.7, 1.2, -0.3, 0.9])  # nothing within step of 0

        def f(t):
            return tn.reduce_sum(tn.relu(t))

        assert tn.grad_check(f, Tensor(x), step=1e-3) <= 1e-4

    def test_non_scalar_function_rejected(self):
        with pytest.raises(TapeError):
            tn.grad_check(lambda t: tn.mul(t, t), Tensor(np.ones(3)))

    def test_function_ignoring_its_input_has_zero_error(self):
        w = Tensor(np.ones(2), requires_grad=True)
        assert tn.grad_check(lambda t: tn.reduce_sum(w), Tensor(np.ones(3))) == 0.0


# ---------------------------------------------------------------------------
# Softmax invariants
# ---------------------------------------------------------------------------


class TestSoftmax:
    def test_uniform_logits(self):
        out = tn.softmax(t32([[0.0, 0.0, 0.0, 0.0]]))
        assert np.allclose(out.data, 0.25, atol=1e-7)

    def test_large_logits_no_overflow(self):
        out = tn.softmax(t32([[1000.0, 0.0]]))
        assert out.data[0, 0] > 0.999 and out.data[0, 1] < 1e-6

    def test_known_values(self):
        out = tn.softmax(Tensor(np.array([[1.0, 2.0, 3.0]])))
        assert np.abs(out.data - [0.09003057, 0.24472847, 0.66524096]).max() < 1e-5

    def test_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(4)
        z = rng.uniform(-5, 5, (10, 6)).astype(np.float32)
        p1 = tn.softmax(t32(z)).data
        p2 = tn.softmax(t32(z + 3.0)).data
        assert np.abs(p1.sum(axis=1) - 1.0).max() < 1e-6
        assert np.abs(p1 - p2).max() < 1e-6
        assert np.array_equal(p1.argmax(axis=1), z.argmax(axis=1))
        assert (p1 > 0).all() and (p1 < 1).all()
