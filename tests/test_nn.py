import math

import numpy as np
import pytest

import oracles
from signet import modelio, models, nn, train, tensor as tn
from signet.data import PreprocessConfig
from signet.nn import LayerConfig, ParameterStore
from signet.tensor import Rng, ShapeError, Tensor


def t32(arr, **kw):
    return Tensor(np.asarray(arr, dtype=np.float32), **kw)


class TestDense:
    def test_identity_weights(self):
        x = np.random.default_rng(0).uniform(-1, 1, (3, 4)).astype(np.float32)
        out = nn.dense(t32(x), t32(np.eye(4)), t32(np.zeros(4)))
        assert np.array_equal(out.data, x)

    def test_small_known_case(self):
        out = nn.dense(t32([1.0, 1.0]), t32([[1.0], [1.0]]), t32([1.0]))
        assert out.data.reshape(()) == np.float32(3.0)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (5, 6)).astype(np.float32)
        w = rng.uniform(-1, 1, (6, 3)).astype(np.float32)
        b = rng.uniform(-1, 1, 3).astype(np.float32)
        got = nn.dense(t32(x), t32(w), t32(b)).data
        exp = oracles.matmul_triple_loop_f32(x, w) + b
        assert np.abs(got - exp).max() < 1e-6

    def test_extent_mismatch(self):
        with pytest.raises(ShapeError):
            nn.dense(t32(np.ones((2, 3))), t32(np.ones((4, 2))), t32(np.zeros(2)))


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = t32(np.random.default_rng(0).uniform(0, 1, (4, 4)))
        out = nn.dropout(x, 0.0, train=True, rng=Rng(1))
        assert out is x

    def test_inference_mode_is_identity(self):
        x = t32(np.ones((3, 3)))
        assert nn.dropout(x, 0.5, train=False) is x

    def test_train_mode_scales_survivors(self):
        x = t32(np.ones(1000))
        out = nn.dropout(x, 0.5, train=True, rng=Rng(3)).data
        kept = out[out != 0]
        assert np.allclose(kept, 2.0)
        assert 350 < kept.size < 650

    def test_bad_rate_rejected(self):
        with pytest.raises(ShapeError):
            nn.dropout(t32([1.0]), 1.0, train=True, rng=Rng(0))


class TestSimpleRnn:
    def test_zero_weights_give_tanh_bias(self):
        seq = t32(np.random.default_rng(0).uniform(-1, 1, (4, 3)))
        b = np.array([0.5, -0.2], dtype=np.float32)
        out = nn.simple_rnn(seq, t32(np.zeros((3, 2))), t32(np.zeros((2, 2))), t32(b),
                            return_sequences=True)
        assert np.allclose(out.data, np.tanh(b), atol=1e-7)

    def test_single_step_ignores_recurrent_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (1, 3)).astype(np.float32)
        wx = rng.uniform(-1, 1, (3, 2)).astype(np.float32)
        wh = rng.uniform(-1, 1, (2, 2)).astype(np.float32)
        b = rng.uniform(-1, 1, 2).astype(np.float32)
        out = nn.simple_rnn(t32(x), t32(wx), t32(wh), t32(b))
        exp = np.tanh(x.astype(np.float64) @ wx + b)
        assert np.abs(out.data - exp).max() < 1e-6

    def test_matches_hand_recurrence(self):
        rng = np.random.default_rng(2)
        seq = rng.uniform(-1, 1, (4, 3)).astype(np.float32)
        wx = rng.uniform(-1, 1, (3, 5)).astype(np.float32)
        wh = rng.uniform(-1, 1, (5, 5)).astype(np.float32)
        b = rng.uniform(-1, 1, 5).astype(np.float32)
        got = nn.simple_rnn(t32(seq), t32(wx), t32(wh), t32(b), return_sequences=True).data
        assert np.abs(got - oracles.rnn_recurrence(seq, wx, wh, b)).max() < 1e-5

    def test_final_state_equals_last_sequence_element(self):
        rng = np.random.default_rng(3)
        args = (
            t32(rng.uniform(-1, 1, (5, 3))),
            t32(rng.uniform(-1, 1, (3, 4))),
            t32(rng.uniform(-1, 1, (4, 4))),
            t32(rng.uniform(-1, 1, 4)),
        )
        full = nn.simple_rnn(*args, return_sequences=True).data
        last = nn.simple_rnn(*args, return_sequences=False).data
        assert np.array_equal(full[-1], last)


class TestLstm:
    def _params(self, rng, dim, units):
        return (
            t32(rng.uniform(-1, 1, (dim, 4 * units))),
            t32(rng.uniform(-1, 1, (units, 4 * units))),
            t32(rng.uniform(-1, 1, 4 * units)),
        )

    def test_zero_weights_forget_bias_only_gives_zero(self):
        units = 3
        b = np.zeros(4 * units, dtype=np.float32)
        b[units : 2 * units] = 1.0
        seq = t32(np.random.default_rng(0).uniform(-1, 1, (5, 2)))
        out = nn.lstm(seq, t32(np.zeros((2, 12))), t32(np.zeros((3, 12))), t32(b),
                      return_sequences=True)
        assert np.array_equal(out.data, np.zeros((5, 3), dtype=np.float32))

    def test_single_step_equals_sequence_of_one(self):
        rng = np.random.default_rng(1)
        wx, wh, b = self._params(rng, 3, 2)
        x = t32(rng.uniform(-1, 1, (1, 3)))
        assert np.array_equal(
            nn.lstm(x, wx, wh, b).data, nn.lstm(x, wx, wh, b, return_sequences=True).data[0]
        )

    def test_matches_hand_recurrence(self):
        rng = np.random.default_rng(2)
        seq = rng.uniform(-1, 1, (3, 4)).astype(np.float32)
        wx = rng.uniform(-1, 1, (4, 8)).astype(np.float32)
        wh = rng.uniform(-1, 1, (2, 8)).astype(np.float32)
        b = rng.uniform(-1, 1, 8).astype(np.float32)
        got = nn.lstm(t32(seq), t32(wx), t32(wh), t32(b), return_sequences=True).data
        assert np.abs(got - oracles.lstm_recurrence(seq, wx, wh, b)).max() < 1e-5

    def test_final_state_equals_last_sequence_element(self):
        rng = np.random.default_rng(3)
        wx, wh, b = self._params(rng, 3, 2)
        seq = t32(rng.uniform(-1, 1, (6, 3)))
        full = nn.lstm(seq, wx, wh, b, return_sequences=True).data
        last = nn.lstm(seq, wx, wh, b).data
        assert np.array_equal(full[-1], last)


class TestConvLstm2d:
    def _params(self, rng, cin, units, k=3):
        return (
            t32(rng.uniform(-0.5, 0.5, (k, k, cin, 4 * units))),
            t32(rng.uniform(-0.5, 0.5, (k, k, units, 4 * units))),
            t32(rng.uniform(-0.5, 0.5, 4 * units)),
        )

    def test_zero_weights_forget_bias_only_gives_zero(self):
        units = 2
        b = np.zeros(4 * units, dtype=np.float32)
        b[units : 2 * units] = 1.0
        seq = t32(np.random.default_rng(0).uniform(0, 1, (3, 4, 4, 1)))
        out = nn.convlstm2d(
            seq, t32(np.zeros((3, 3, 1, 8))), t32(np.zeros((3, 3, 2, 8))), t32(b),
            return_sequences=True,
        )
        assert np.array_equal(out.data, np.zeros((3, 4, 4, 2), dtype=np.float32))

    def test_degenerates_to_plain_lstm_for_1x1_everything(self):
        rng = np.random.default_rng(1)
        seq = rng.uniform(-1, 1, (4, 2)).astype(np.float32)
        wx = rng.uniform(-1, 1, (2, 8)).astype(np.float32)
        wh = rng.uniform(-1, 1, (2, 8)).astype(np.float32)
        b = rng.uniform(-1, 1, 8).astype(np.float32)
        conv_out = nn.convlstm2d(
            t32(seq.reshape(4, 1, 1, 2)),
            t32(wx.reshape(1, 1, 2, 8)),
            t32(wh.reshape(1, 1, 2, 8)),
            t32(b),
            return_sequences=True,
        ).data.reshape(4, 2)
        lstm_out = nn.lstm(t32(seq), t32(wx), t32(wh), t32(b), return_sequences=True).data
        assert np.abs(conv_out - lstm_out).max() < 1e-6

    def test_matches_per_pixel_expansion_oracle(self):
        rng = np.random.default_rng(2)
        seq = rng.uniform(-1, 1, (2, 3, 3, 2)).astype(np.float32)
        wx, wh, b = self._params(rng, cin=2, units=2)
        got = nn.convlstm2d(seq=t32(seq), kernel=wx, recurrent_kernel=wh, bias=b,
                            return_sequences=True).data
        exp = oracles.convlstm_recurrence(seq, wx.data, wh.data, b.data)
        assert np.abs(got - exp).max() < 1e-5

    def test_final_state_equals_last_sequence_element(self):
        rng = np.random.default_rng(3)
        wx, wh, b = self._params(rng, cin=1, units=2)
        seq = t32(rng.uniform(-1, 1, (3, 4, 5, 1)))
        full = nn.convlstm2d(seq, wx, wh, b, return_sequences=True).data
        last = nn.convlstm2d(seq, wx, wh, b).data
        assert np.array_equal(full[-1], last)


class TestTimeDistributed:
    def test_identity_function(self):
        seq = t32(np.random.default_rng(0).uniform(0, 1, (4, 3, 2)))
        out = nn.time_distributed(lambda f: f, seq)
        assert np.array_equal(out.data, seq.data)

    def test_equals_per_frame_loop(self):
        rng = np.random.default_rng(1)
        seq = rng.uniform(-1, 1, (5, 4)).astype(np.float32)
        w = t32(rng.uniform(-1, 1, (4, 3)))
        b = t32(rng.uniform(-1, 1, 3))
        out = nn.time_distributed(lambda f: nn.dense(f, w, b), t32(seq)).data
        for t in range(5):
            frame_out = nn.dense(t32(seq[t]), w, b).data
            assert np.array_equal(out[t], frame_out)

    def test_identical_frames_produce_identical_features(self):
        rng = np.random.default_rng(2)
        frame = rng.uniform(-1, 1, 4).astype(np.float32)
        seq = np.stack([frame, frame])
        w = t32(rng.uniform(-1, 1, (4, 3)))
        b = t32(rng.uniform(-1, 1, 3))
        out = nn.time_distributed(lambda f: nn.dense(f, w, b), t32(seq)).data
        assert np.array_equal(out[0], out[1])

    def test_shared_weight_gradient_sums_over_frames(self):
        rng = np.random.default_rng(3)
        seq = rng.uniform(-1, 1, (3, 4))
        w0 = rng.uniform(-1, 1, (4, 2))

        def run_summed_loss(w_tensor):
            out = nn.time_distributed(
                lambda f: nn.dense(f, w_tensor, Tensor(np.zeros(2))), Tensor(seq)
            )
            return tn.reduce_sum(tn.mul(out, out))

        err = tn.grad_check(run_summed_loss, Tensor(w0), step=1e-4)
        assert err <= 1e-6

        # The shared gradient equals the sum of per-frame gradients.
        w = Tensor(w0, requires_grad=True)
        with tn.record() as tape:
            loss = run_summed_loss(w)
        tape.backward(loss)
        per_frame = np.zeros_like(w0)
        for t in range(3):
            wf = Tensor(w0, requires_grad=True)
            with tn.record() as tape_f:
                out = nn.dense(Tensor(seq[t]), wf, Tensor(np.zeros(2)))
                tape_f.backward(tn.reduce_sum(tn.mul(out, out)))
            per_frame += wf.grad
        assert np.abs(w.grad - per_frame).max() < 1e-12


class TestLayerConfig:
    def test_time_distributed_rejects_recurrent_wrapped(self):
        with pytest.raises(ShapeError):
            LayerConfig("time_distributed", wrapped=[LayerConfig("lstm", units=4)])

    def test_time_distributed_rejects_empty_wrap(self):
        with pytest.raises(ShapeError):
            LayerConfig("time_distributed", wrapped=[])

    def test_dropout_rate_validated(self):
        with pytest.raises(ShapeError):
            LayerConfig("dropout", rate=1.0)

    def test_round_trips_through_dict(self):
        cfg = LayerConfig(
            "time_distributed",
            wrapped=[
                LayerConfig("conv2d", filters=8, kernel_size=(3, 3), padding="same",
                            trainable=False),
                LayerConfig("relu"),
                LayerConfig("dense", units=4, trainable=False),
            ],
            trainable=False,
        )
        assert LayerConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ShapeError):
            LayerConfig("attention")

    def test_time_distributed_rejects_mixed_trainable(self):
        # The wrapper's flag covers every wrapped parameter, so a wrapped
        # layer with parameters may not claim a different one.
        with pytest.raises(ShapeError):
            LayerConfig("time_distributed",
                        wrapped=[LayerConfig("dense", units=2, trainable=False)])
        LayerConfig("time_distributed", wrapped=[LayerConfig("relu", trainable=False)])


class TestInitParams:
    def test_dense_glorot_bound_and_zero_bias(self):
        layers = [LayerConfig("dense", units=3)]
        store = nn.init_params(layers, (4,), Rng(0))
        kernel = store["layer0_dense/kernel"].data
        limit = math.sqrt(6.0 / 7.0)
        assert kernel.shape == (4, 3)
        assert np.abs(kernel).max() <= limit
        assert np.array_equal(store["layer0_dense/bias"].data, np.zeros(3, dtype=np.float32))

    def test_same_seed_bit_identical(self):
        layers = [
            LayerConfig("conv2d", filters=4, kernel_size=(3, 3), padding="same"),
            LayerConfig("flatten"),
            LayerConfig("dense", units=2),
        ]
        a = nn.init_params(layers, (6, 6, 1), Rng(99))
        b = nn.init_params(layers, (6, 6, 1), Rng(99))
        assert a.names() == b.names()
        for name in a.names():
            assert np.array_equal(a[name].data, b[name].data)

    def test_lstm_forget_gate_bias_is_one(self):
        store = nn.init_params([LayerConfig("lstm", units=5)], (3, 4), Rng(1))
        bias = store["layer0_lstm/bias"].data
        assert np.array_equal(bias[5:10], np.ones(5, dtype=np.float32))
        assert np.array_equal(np.delete(bias, range(5, 10)), np.zeros(15, dtype=np.float32))

    def test_convlstm_forget_gate_bias_is_one(self):
        store = nn.init_params(
            [LayerConfig("convlstm2d", units=4, kernel_size=(3, 3), padding="same")],
            (2, 6, 6, 1),
            Rng(1),
        )
        bias = store["layer0_convlstm2d/bias"].data
        assert np.array_equal(bias[4:8], np.ones(4, dtype=np.float32))

    def test_frozen_flags_propagate(self):
        layers = [
            LayerConfig(
                "time_distributed",
                wrapped=[LayerConfig("dense", units=2, trainable=False)],
                trainable=False,
            ),
            LayerConfig("dense", units=3),
        ]
        store = nn.init_params(layers, (4, 5), Rng(0))
        assert not store.is_trainable("layer0_time_distributed/td0_dense/kernel")
        assert store.is_trainable("layer1_dense/kernel")


class TestFrozenParameters:
    """Frozen parameters need no gradient, so the tape never records them."""

    SHAPE = (6, 16, 16, 1)

    def _frozen(self):
        spec = models.build("cnn_rnn_lstm", self.SHAPE, 3, feature_extractor_trainable=False)
        return spec, models.init_model(spec, Rng(3))

    def _step(self, spec, store):
        clip = Tensor(np.random.default_rng(8).uniform(0, 1, self.SHAPE).astype(np.float32))
        truth = np.eye(3, dtype=np.float32)[[1]]
        store.zero_grads()
        with tn.record() as tape:
            probs = models.forward(spec, store, clip, train=True, rng=Rng(5))
            loss = train.categorical_crossentropy(tn.reshape(probs, (1, 3)), truth)
        tape.backward(loss)
        return tape, loss

    def test_requires_grad_follows_trainable(self, tmp_path):
        spec, store = self._frozen()
        path = tmp_path / "frozen.slm"
        modelio.save_model(spec, store, PreprocessConfig(16, 16, 1, 6), ["a", "b", "c"],
                           str(path))
        _, loaded, _, _ = modelio.load_model(str(path))
        for s in (store, loaded):
            flags = {name: t.requires_grad for name, t in s.items()}
            assert flags == {name: s.is_trainable(name) for name in s.names()}
            assert any(flags.values()) and not all(flags.values())

    def test_frozen_parameters_never_taped(self):
        spec, store = self._frozen()
        frozen = {id(t) for name, t in store.items() if not store.is_trainable(name)}
        tape, _ = self._step(spec, store)
        assert frozen
        assert not any(id(t) in frozen for node in tape.nodes for t in node.inputs)
        for name, t in store.items():
            assert (t.grad is not None) == store.is_trainable(name), name

    def test_trainable_gradients_match_fully_taped_store(self):
        spec, pruned = self._frozen()
        taped = ParameterStore()
        for name, t in pruned.items():
            taped.add(name, Tensor(t.data.copy()), trainable=pruned.is_trainable(name))
        for _, t in taped.items():
            t.requires_grad = True  # tape the frozen extractor as well
        short, loss_short = self._step(spec, pruned)
        full, loss_full = self._step(spec, taped)
        assert len(short.nodes) < len(full.nodes)
        assert loss_short.data.tobytes() == loss_full.data.tobytes()
        for name in pruned.names():
            if pruned.is_trainable(name):
                assert pruned[name].grad.tobytes() == taped[name].grad.tobytes(), name


class TestLayerGradients:
    """Every trainable layer kind passes a finite-difference check."""

    def _check(self, build_loss, x0, tol=1e-3):
        assert tn.grad_check(build_loss, Tensor(x0), step=1e-3) <= tol

    def test_simple_rnn_params(self):
        rng = np.random.default_rng(0)
        seq = rng.uniform(-1, 1, (3, 2))
        packed0 = rng.uniform(-0.5, 0.5, 2 * 3 + 3 * 3 + 3)

        def loss(packed):
            wx = tn.reshape(tn.narrow(packed, 0, 0, 6), (2, 3))
            wh = tn.reshape(tn.narrow(packed, 0, 6, 9), (3, 3))
            b = tn.narrow(packed, 0, 15, 3)
            out = nn.simple_rnn(Tensor(seq), wx, wh, b, return_sequences=True)
            return tn.reduce_sum(tn.mul(out, out))

        self._check(loss, packed0)

    def test_lstm_params(self):
        rng = np.random.default_rng(1)
        seq = rng.uniform(-1, 1, (3, 2))
        sizes = (2 * 8, 2 * 8, 8)

        def loss(packed):
            wx = tn.reshape(tn.narrow(packed, 0, 0, 16), (2, 8))
            wh = tn.reshape(tn.narrow(packed, 0, 16, 16), (2, 8))
            b = tn.narrow(packed, 0, 32, 8)
            out = nn.lstm(Tensor(seq), wx, wh, b, return_sequences=True)
            return tn.reduce_sum(tn.mul(out, out))

        self._check(loss, rng.uniform(-0.5, 0.5, sum(sizes)))

    def test_convlstm2d_single_step_params(self):
        rng = np.random.default_rng(2)
        seq = rng.uniform(-1, 1, (1, 3, 3, 1))
        n_wx, n_wh, n_b = 3 * 3 * 1 * 4, 3 * 3 * 1 * 4, 4

        def loss(packed):
            wx = tn.reshape(tn.narrow(packed, 0, 0, n_wx), (3, 3, 1, 4))
            wh = tn.reshape(tn.narrow(packed, 0, n_wx, n_wh), (3, 3, 1, 4))
            b = tn.narrow(packed, 0, n_wx + n_wh, n_b)
            out = nn.convlstm2d(Tensor(seq), wx, wh, b)
            return tn.reduce_sum(tn.mul(out, out))

        self._check(loss, rng.uniform(-0.5, 0.5, n_wx + n_wh + n_b))


def _seq(kind, **kw):
    return [LayerConfig(kind, units=3, **kw)]


# One case per layer kind (the first layer of each case), plus the paths a
# builder never takes: dropout in train mode, valid padding, a (1, 2, 2)
# pool window and return_sequences in both settings.
_KIND_CASES = {
    "dense": ((3, 5), [LayerConfig("dense", units=4)]),
    "relu": ((2, 3), [LayerConfig("relu")]),
    "softmax": ((4,), [LayerConfig("softmax")]),
    "flatten": ((2, 3, 4), [LayerConfig("flatten")]),
    "dropout_train": ((6, 2), [LayerConfig("dropout", rate=0.5)]),
    "conv2d_valid": ((7, 6, 2), [LayerConfig("conv2d", filters=3, kernel_size=(3, 2))]),
    "conv2d_same": ((5, 5, 1), [LayerConfig("conv2d", filters=2, kernel_size=(3, 3),
                                            padding="same")]),
    "conv3d": ((4, 5, 5, 1), [LayerConfig("conv3d", filters=2, kernel_size=(3, 3, 3),
                                          padding="same")]),
    "maxpool2d": ((6, 5, 2), [LayerConfig("maxpool2d", kernel_size=(2, 2))]),
    "maxpool3d": ((3, 6, 6, 2), [LayerConfig("maxpool3d", kernel_size=(1, 2, 2))]),
    "simple_rnn_seq": ((4, 2), _seq("simple_rnn", return_sequences=True)),
    "simple_rnn_last": ((4, 2), _seq("simple_rnn")),
    "lstm_seq": ((4, 2), _seq("lstm", return_sequences=True)),
    "lstm_last": ((4, 2), _seq("lstm")),
    "convlstm2d_seq": ((3, 4, 4, 2), _seq("convlstm2d", kernel_size=(3, 3),
                                          return_sequences=True)),
    "convlstm2d_last": ((3, 4, 4, 2), _seq("convlstm2d", kernel_size=(3, 3))),
    "time_distributed": ((3, 6, 6, 1), [LayerConfig("time_distributed", wrapped=[
        LayerConfig("conv2d", filters=2, kernel_size=(3, 3)),
        LayerConfig("maxpool2d", kernel_size=(2, 2)),
        LayerConfig("flatten"),
        LayerConfig("dropout", rate=0.25),
        LayerConfig("dense", units=3),
    ])]),
}


class TestLayerRegistry:
    """trace_layers, init_params and apply_layers agree for every layer kind."""

    @pytest.mark.parametrize("case", list(_KIND_CASES))
    def test_apply_shape_and_store_names_follow_trace(self, case):
        input_shape, layers = _KIND_CASES[case]
        out_shape, plans = nn.trace_layers(layers, input_shape)
        store = nn.init_params(layers, input_shape, Rng(1))
        assert store.names() == [p.name for p in plans]
        x = t32(np.random.default_rng(0).uniform(-1, 1, input_shape))
        out = nn.apply_layers(layers, store, x, train=True, rng=Rng(0))
        assert out.shape == out_shape

    def test_cases_cover_every_kind(self):
        assert {layers[0].kind for _, layers in _KIND_CASES.values()} == set(nn._KINDS)

    def test_layer_functions_are_looked_up_at_call_time(self, monkeypatch):
        # perfbench/tracer.py swaps these module attributes to time each
        # layer; an apply path that held the function objects would bypass it.
        called = set()

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                called.add(f"{module.__name__}.{name}")
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for name in ("dense", "simple_rnn", "lstm", "convlstm2d", "time_distributed"):
            count(nn, name)
        for name in ("conv2d", "conv3d", "maxpool2d", "maxpool3d"):
            count(tn, name)
        shape = (4, 8, 8, 1)
        for arch in models.ARCHITECTURES:
            spec = models.build(arch, shape, 3)
            params = models.init_model(spec, Rng(0))
            models.predict_probs(spec, params, np.zeros(shape, np.float32))
        assert called == {
            "signet.nn.dense", "signet.nn.simple_rnn", "signet.nn.lstm", "signet.nn.convlstm2d",
            "signet.nn.time_distributed", "signet.tensor.conv2d", "signet.tensor.conv3d",
            "signet.tensor.maxpool2d", "signet.tensor.maxpool3d",
        }
