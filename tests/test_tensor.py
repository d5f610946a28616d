import hashlib
import threading
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


class TestTensorBasics:
    def test_zero_extent_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 0, 3), dtype=np.float32))

    def test_non_finite_rejected_at_creation(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([1.0, np.nan], dtype=np.float32))

    def test_non_finite_kernel_output_raises(self):
        big = t32([1e38, 1e38])
        with pytest.raises(NonFiniteError):
            tn.mul(big, big)

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
            with tn.record() as tape:
                out = tn.narrow(x, axis, 1, 2)
                loss = tn.reduce_sum(tn.mul(out, t32(g)))
            tape.backward(loss)
            results.append((out.data, x.grad))
        (d1, g1), (d2, g2) = results
        assert np.array_equal(d1, xv[:, 1:3]) and np.array_equal(d2, d1)
        assert np.array_equal(g2, g1)

    @pytest.mark.parametrize("axis", [2, -3])
    def test_narrow_axis_out_of_range(self, axis):
        with pytest.raises(ShapeError):
            tn.narrow(t32(np.ones((3, 4))), axis, 0, 1)

    AXIS_OPS = {
        "narrow": lambda x, axis: tn.narrow(x, axis, 0, 1),
        "stack": lambda x, axis: tn.stack([x, tn.scale(x, 2.0)], axis=axis),
        "softmax": lambda x, axis: tn.softmax(x, axis=axis),
        "reduce_sum": lambda x, axis: tn.reduce_sum(x, axis=axis),
        "reduce_mean": lambda x, axis: tn.reduce_mean(x, axis=axis),
    }

    @pytest.mark.parametrize("op", list(AXIS_OPS))
    @pytest.mark.parametrize("side", ["above", "below"])
    def test_axis_out_of_range_is_shape_error(self, op, side):
        rank = 2 + (op == "stack")  # stack's output has one more axis
        axis = rank if side == "above" else -rank - 1
        with pytest.raises(ShapeError):
            self.AXIS_OPS[op](t32(np.ones((3, 4))), axis)

    # narrow has its own negative-axis test above.
    @pytest.mark.parametrize("op", [op for op in AXIS_OPS if op != "narrow"])
    def test_negative_axis_matches_positive(self, op):
        xv = np.random.default_rng(3).uniform(-1, 1, (3, 4)).astype(np.float32)
        results = []
        for axis in (1, -1 - (op == "stack")):
            x = Tensor(xv, requires_grad=True)
            with tn.record() as tape:
                out = self.AXIS_OPS[op](x, axis)
                loss = tn.reduce_sum(tn.mul(out, out))
            tape.backward(loss)
            results.append((out.data.tobytes(), out.shape, x.grad.tobytes()))
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
        got = tn.maxpool2d(t32(x), (2, 3), stride=(1, 2)).data
        assert np.array_equal(got, oracles.maxpool_loop(x, (2, 3), (1, 2)))

    def test_maxpool3d_matches_scan_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, (4, 4, 5, 2)).astype(np.float32)
        got = tn.maxpool3d(t32(x), (2, 2, 2)).data
        assert np.array_equal(got, oracles.maxpool_loop(x, (2, 2, 2), (2, 2, 2)))

    def test_window_too_large_raises(self):
        with pytest.raises(ShapeError):
            tn.maxpool2d(t32(np.ones((2, 2, 1))), (3, 3))

    @pytest.mark.parametrize(
        "op, shape, window, stride",
        [
            ("maxpool2d", (6, 9, 3), (2, 3), (1, 2)),
            ("maxpool3d", (4, 6, 5, 2), (2, 2, 2), None),
            ("maxpool3d", (3, 6, 7, 2), (1, 2, 2), None),
        ],
        ids=["2d_overlapping", "3d_2x2x2", "3d_1x2x2"],
    )
    def test_gradient_matches_loop_oracle(self, op, shape, window, stride):
        rng = np.random.default_rng(8)
        # Rounded inputs give ties; integer gradients sum exactly in any order.
        x = np.round(rng.uniform(-2, 2, shape)).astype(np.float32)
        probe = t32(x, requires_grad=True)
        with tn.record() as tape:
            y = getattr(tn, op)(probe, window, stride)
            g = rng.integers(-3, 4, y.shape).astype(np.float32)
            loss = tn.reduce_sum(tn.mul(y, t32(g)))
        tape.backward(loss)
        assert np.array_equal(probe.grad, oracles.maxpool_grad_loop(x, g, window, stride))

    def test_tie_routes_gradient_to_first_in_scan_order(self):
        x = t32(np.full((2, 2, 1), 1.0), requires_grad=True)
        with tn.record() as tape:
            loss = tn.reduce_sum(tn.maxpool2d(x, (2, 2)))
        tape.backward(loss)
        assert np.array_equal(x.grad.reshape(4), np.array([1, 0, 0, 0], dtype=np.float32))


# ---------------------------------------------------------------------------
# Autodiff and the tape
# ---------------------------------------------------------------------------


class TestBackward:
    def test_sum_of_squares_gradient_exact(self):
        xv = np.random.default_rng(0).uniform(-1, 1, (3, 4)).astype(np.float32)
        x = Tensor(xv, requires_grad=True)
        with tn.record() as tape:
            loss = tn.reduce_sum(tn.mul(x, x))
        tape.backward(loss)
        assert np.array_equal(x.grad, (2 * xv.astype(np.float64)).astype(np.float32) * 1)

    def test_loss_from_other_tape_rejected(self):
        x = t32([1.0, 2.0], requires_grad=True)
        with tn.record():
            loss = tn.reduce_sum(x)
        with tn.record() as other:
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
                with tn.record() as tape:
                    opened.set()
                    wait_compute.wait(10)
                    loss = tn.reduce_sum(tn.mul(x, x))
                tape.backward(loss)
                grads[name] = x.grad.tolist()
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
        # A second pass would start from the first pass's intermediate grads.
        x, w = t32([3.0]), t32([2.0], requires_grad=True)
        with tn.record() as tape:
            y = tn.mul(x, w)
            loss = tn.reduce_sum(tn.mul(y, y))
        tape.backward(loss)
        assert w.grad.tolist() == [36.0]
        nodes = len(tape.nodes)
        with pytest.raises(TapeError):
            tape.backward(loss)
        assert w.grad.tolist() == [36.0]
        assert len(tape.nodes) == nodes

    def test_non_scalar_loss_rejected(self):
        x = t32([1.0, 2.0], requires_grad=True)
        with tn.record() as tape:
            y = tn.mul(x, x)
        with pytest.raises(TapeError):
            tape.backward(y)

    def test_fanout_accumulates(self):
        x = t32([3.0], requires_grad=True)
        with tn.record() as tape:
            loss = tn.reduce_sum(tn.add(x, x))
        tape.backward(loss)
        assert x.grad.reshape(()) == np.float32(2.0)

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
            with tn.record() as tape:
                y = tn.conv2d(x, k, padding="same")
                loss = tn.reduce_sum(tn.mul(y, y))
            tape.backward(loss)
            return loss.data.copy(), x.grad.copy(), k.grad.copy()

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
            with tn.record() as tape:
                y = op(x, k, b, padding=padding, stride=stride)
                loss = tn.reduce_sum(tn.mul(y, y))
            tape.backward(loss)
            return x.grad, k.grad, b.grad

        xa, ka, ba = run(True)
        xb, kb, bb = run(False)
        assert xa is not None and xb is None
        assert ka.tobytes() == kb.tobytes()
        assert ba.tobytes() == bb.tobytes()


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
