import hashlib

import numpy as np
import pytest

from signet import modelio, models, nn, train, tensor as tn
from signet.data import PreprocessConfig
from signet.tensor import Rng, ShapeError, Tensor

SMALL = (6, 16, 16, 1)


def _probs(arch, shape=SMALL, classes=4, seed=3, **kw):
    spec = models.build(arch, shape, classes, **kw)
    params = models.init_model(spec, Rng(seed))
    clip = np.random.default_rng(0).uniform(0, 1, shape).astype(np.float32)
    return spec, params, models.predict_probs(spec, params, clip)


class TestBuilders:
    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_output_shape_and_normalization(self, arch):
        spec, params, probs = _probs(arch)
        assert probs.shape == (4,)
        assert abs(probs.sum() - 1.0) < 1e-6
        assert (probs > 0).all()

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_default_shape_traces_to_ten_classes(self, arch):
        spec = models.build(arch)
        out, _ = nn.trace_layers(spec.layers, spec.input_shape)
        assert out == (10,)

    def test_final_layers_are_dense_then_softmax(self):
        for arch in models.ARCHITECTURES:
            spec = models.build(arch)
            assert spec.layers[-2].kind == "dense"
            assert spec.layers[-2].units == spec.num_classes
            assert spec.layers[-1].kind == "softmax"

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ShapeError):
            models.build("bogus")

    def test_too_small_inputs_rejected(self):
        with pytest.raises(ShapeError):
            models.build_cnn_lstm((4, 1, 1, 1), 4)
        with pytest.raises(ShapeError):
            models.build_cnn3d((3, 64, 64, 1), 4)  # needs 4 frames
        with pytest.raises(ShapeError):
            models.build_cnn3d((35, 4, 4, 1), 4)  # too small for three pools
        with pytest.raises(ShapeError):
            models.build_cnn_rnn_lstm((1, 64, 64, 1), 4)
        with pytest.raises(ShapeError):
            models.build_cnn_td((4, 2, 2, 1), 4)

    def test_color_input_supported(self):
        spec, params, probs = _probs("cnn_td", shape=(4, 16, 16, 3))
        assert probs.shape == (4,)


class TestParamCounts:
    def test_dense_and_conv_counting(self):
        spec = models.ModelSpec(
            "cnn_td", (4,), 3,
            [nn.LayerConfig("dense", units=3), nn.LayerConfig("softmax")],
        )
        assert models.param_count(spec) == 4 * 3 + 3

        conv_spec = models.ModelSpec(
            "cnn_td", (8, 8, 1), 8,
            [nn.LayerConfig("conv2d", filters=8, kernel_size=(3, 3), padding="same"),
             nn.LayerConfig("flatten"),
             nn.LayerConfig("dense", units=8),
             nn.LayerConfig("softmax")],
        )
        _, plans = nn.trace_layers(conv_spec.layers, conv_spec.input_shape)
        conv_params = sum(
            int(np.prod(p.shape)) for p in plans if p.name.startswith("layer0")
        )
        assert conv_params == 3 * 3 * 1 * 8 + 8 == 80

    def test_cnn_lstm_closed_form(self):
        # 4 gates of (3*3*(1+8)*8 kernel + 8 bias) + dense over 32*32*8.
        spec = models.build_cnn_lstm((35, 64, 64, 1), 10)
        expected = 4 * (3 * 3 * (1 + 8) * 8 + 8) + (32 * 32 * 8 * 10 + 10)
        assert expected == 84554
        assert models.param_count(spec) == expected

    def test_cnn3d_flatten_extent(self):
        spec = models.build_cnn3d((35, 64, 64, 1), 10)
        shape, _ = nn.trace_layers(spec.layers[:9], spec.input_shape)
        assert int(np.prod(shape)) == 8 * 8 * 8 * 32 == 16384

    def test_cnn_td_penultimate_flatten_extent(self):
        spec = models.build_cnn_td((35, 64, 64, 1), 10)
        shape, _ = nn.trace_layers(spec.layers[:2], spec.input_shape)
        assert int(np.prod(shape)) == 35 * 32 == 1120

    def test_cnn3d_has_strictly_most_parameters(self):
        counts = {
            arch: models.param_count(models.build(arch, (35, 64, 64, 1), 10))
            for arch in models.ARCHITECTURES
        }
        assert all(counts["cnn3d"] > c for a, c in counts.items() if a != "cnn3d"), counts

    def test_frozen_trainable_count_covers_head_only(self):
        spec = models.build_cnn_rnn_lstm((35, 64, 64, 1), 10, feature_extractor_trainable=False)
        rnn = 64 * 32 + 32 * 32 + 32
        lstm = 32 * 4 * 32 + 32 * 4 * 32 + 4 * 32
        head = 32 * 10 + 10
        assert models.param_count(spec, trainable_only=True) == rnn + lstm + head == 11754
        assert models.param_count(spec) > models.param_count(spec, trainable_only=True)


class TestDeterminism:
    def test_same_seed_bit_identical_params(self):
        spec = models.build("cnn_td", SMALL, 4)
        a = models.init_model(spec, Rng(21))
        b = models.init_model(spec, Rng(21))
        for name in a.names():
            assert np.array_equal(a[name].data, b[name].data)

    def test_forward_deterministic(self):
        spec, params, p1 = _probs("cnn_lstm")
        clip = np.random.default_rng(0).uniform(0, 1, SMALL).astype(np.float32)
        p2 = models.predict_probs(spec, params, clip)
        assert np.array_equal(p1, p2)

    def test_wrong_clip_shape_rejected(self):
        spec = models.build("cnn_td", SMALL, 4)
        params = models.init_model(spec, Rng(0))
        with pytest.raises(ShapeError):
            models.forward(spec, params, Tensor(np.zeros((3, 16, 16, 1), dtype=np.float32)))


class TestGoldenDigests:
    """Model bytes, outputs and one training step pinned before the layer registry.

    Each case lists the sha256 of the saved SLM1 file, the sha256 of the
    ``predict_probs`` bytes, the float32 loss bytes of one taped step, the
    sha256 of the trainable gradients in store order, and the tape length.
    """

    CASES = {
        ("cnn_lstm", False): (
            "a093efec72f3394947cd57aa4716f1fd76f8e04e7363fb21b0040a47bf41085c",
            "82964f08ae22d69c0efd112e1c648fd189a68b9d2e802e8a56f939577191dd01",
            "2a667e3f",
            "e0f8126587a51fcfe85c7b369bbf13e472dbfc0f7f33c7cf02cc3fec00a7912e",
            111,
        ),
        ("cnn3d", False): (
            "e85b6dcd1ecf12c76b6cbdd9063b17a9195f5314bc0ba8a9c61db4ea7c542a65",
            "0efda70d12d3d0e28ca30c75284b3e3198eee364519ac19a449cb46135582c31",
            "a66d9a3f",
            "1458228f1067bc9952d11462e1571523779557ac53e2cd789736cd88158a8e70",
            29,
        ),
        ("cnn_rnn_lstm", False): (
            "2372dff9015ac71dcc1bd80f7f068e439a3e3e7238d575ca243c992ee4689a7e",
            "7e7b750d3dc922a89d0625fcfae94d3d3b1eb517459f26f7da77a786e1e0f9bb",
            "585fa73f",
            "8b14a5278c1d0d8c19964d8a84faaf8b312e2e288929cd8ae2a636bef985ca42",
            166,
        ),
        ("cnn_rnn_lstm", True): (
            "7d67d160a9a958f741ebb4960c5d9fcaeef7f622f93c48c8db79fd31e0d933d8",
            "7e7b750d3dc922a89d0625fcfae94d3d3b1eb517459f26f7da77a786e1e0f9bb",
            "585fa73f",
            "2b5d0205f3e80f3bb5881dd0a8e881d689f399ec68df78f0c6e5b196bdac2cfe",
            251,
        ),
        ("cnn_td", False): (
            "a0b75738719788e929983e39d3720104ea5bcda19b989a9c748197f47ae3cf9a",
            "c9e3cf5636a535c8d492cd3926f12c6da80b094f6f957fb91a8c6cd2d1e881bc",
            "5efc813f",
            "d16d30e282d75497cddd4bf175f12364f08621941fe9f0b7844848414cd80b0e",
            93,
        ),
    }

    @pytest.mark.parametrize("arch,trainable", list(CASES), ids=lambda v: str(v))
    def test_file_probs_and_step(self, arch, trainable, tmp_path):
        spec = models.build(arch, SMALL, 3, feature_extractor_trainable=trainable)
        params = models.init_model(spec, Rng(5))
        path = tmp_path / "model.slm"
        modelio.save_model(spec, params, PreprocessConfig(16, 16, 1, 6), ["a", "b", "c"],
                           str(path))
        clip = np.random.default_rng(0).uniform(0, 1, SMALL).astype(np.float32)
        probs = models.predict_probs(spec, params, clip)
        with tn.record() as tape:
            out = models.forward(spec, params, Tensor(clip), train=True, rng=Rng(6))
            truth = np.eye(3, dtype=np.float32)[[1]]
            loss = train.categorical_crossentropy(tn.reshape(out, (1, 3)), truth)
        tape.backward(loss)
        grads = hashlib.sha256()
        for name, t in params.items():
            if params.is_trainable(name):
                grads.update(t.grad.tobytes())
        got = (
            hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(probs.tobytes()).hexdigest(),
            loss.data.tobytes().hex(),
            grads.hexdigest(),
            len(tape.nodes),
        )
        assert got == self.CASES[(arch, trainable)]
