import hashlib
import itertools

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

    # (frames, height and width) of each architecture's smallest clip: the
    # limits its builder once stated by hand, which the chain now implies.
    SMALLEST = {
        "cnn_lstm": (1, 2, 2),
        "cnn3d": (4, 8, 8),
        "cnn_rnn_lstm": (2, 4, 4),
        "cnn_td": (1, 4, 4),
    }

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_smallest_clip_builds_and_one_less_is_rejected(self, arch):
        t, h, w = self.SMALLEST[arch]
        assert models.build(arch, (t, h, w, 1), 4).input_shape == (t, h, w, 1)
        for shape in [(t - 1, h, w, 1), (t, h - 1, w, 1), (t, h, w - 1, 1)]:
            with pytest.raises(ShapeError) as exc:
                models.build(arch, shape, 4)
            reason = "non-positive input extent" if 0 in shape else "is too small"
            assert str(exc.value).startswith(f"{arch}: "), exc.value
            assert str(shape) in str(exc.value) and reason in str(exc.value), exc.value

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_non_integral_extent_is_shape_error(self, arch):
        with pytest.raises(ShapeError) as exc:
            models.build(arch, (8, 16.5, 16, 1), 2)
        assert str(exc.value).startswith(f"{arch}: "), exc.value

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_class_count_is_taken_as_an_integer(self, arch, tmp_path):
        # A numpy integer saves as a JSON int; a float, even 3.0, is refused
        # before the builder makes its layers.
        t, h, w = self.SMALLEST[arch]
        spec = models.build(arch, (t, h, w, 1), np.int64(3))
        path = str(tmp_path / "model.slm")
        modelio.save_model(spec, models.init_model(spec, Rng(0)), PreprocessConfig(h, w, 1, t),
                           ["a", "b", "c"], path)
        assert modelio.load_model(path)[0].num_classes == 3
        with pytest.raises(ShapeError) as exc:
            models.build(arch, (t, h, w, 1), 3.0)
        assert str(exc.value).startswith(f"{arch}: "), exc.value

    @pytest.mark.parametrize("count", [np.float64(3.0), "3", None, 1], ids=repr)
    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_each_builder_checks_its_class_count(self, arch, count):
        # The builders themselves, not only build, refuse a count that is
        # not an integer of at least two, naming their architecture.
        t, h, w = self.SMALLEST[arch]
        builder = getattr(models, f"build_{arch}")
        with pytest.raises(ShapeError) as exc:
            builder((t, h, w, 1), count)
        assert str(exc.value).startswith(f"{arch}: "), exc.value
        assert "class" in str(exc.value), exc.value

    def test_accepted_shapes_follow_the_smallest_clips(self):
        # Every (T, H, W, 1) with T in 1..6 and H, W in 1..10, for every
        # architecture: a clip builds exactly when no extent is below the
        # architecture's smallest clip.
        extents = itertools.product(range(1, 7), range(1, 11), range(1, 11))
        accepted = 0
        for (t, h, w), arch in itertools.product(extents, models.ARCHITECTURES):
            min_t, min_h, min_w = self.SMALLEST[arch]
            try:
                models.build(arch, (t, h, w, 1), 4)
                built = True
            except ShapeError:
                built = False
            assert built == (t >= min_t and h >= min_h and w >= min_w), (arch, t, h, w)
            accepted += built
        assert accepted == 1052  # of 2400

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    @pytest.mark.parametrize("trainable", [False, True])
    def test_feature_extractor_trainable_follows_the_layers(self, arch, trainable):
        spec = models.build(arch, SMALL, 3, feature_extractor_trainable=trainable)
        assert spec.feature_extractor_trainable == (arch != "cnn_rnn_lstm" or trainable)

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
    ``predict_probs`` bytes, the float32 loss bytes of one taped step,
    the sha256 of the trainable gradients in store order, and the tape length.
    """

    CASES = {
        ("cnn_lstm", False): (
            "dc17586294c522b6dae7f3f0dfc4cbaababcc92dff7cde4caeeeb2af89dcf068",
            "82964f08ae22d69c0efd112e1c648fd189a68b9d2e802e8a56f939577191dd01",
            "2a667e3f",
            "e0f8126587a51fcfe85c7b369bbf13e472dbfc0f7f33c7cf02cc3fec00a7912e",
            111,
        ),
        ("cnn3d", False): (
            "863169a57b00606ea29c85ebf2e8d79b440d5cc97d5d75181487b79228b8fee5",
            "0efda70d12d3d0e28ca30c75284b3e3198eee364519ac19a449cb46135582c31",
            "a66d9a3f",
            "1458228f1067bc9952d11462e1571523779557ac53e2cd789736cd88158a8e70",
            29,
        ),
        ("cnn_rnn_lstm", False): (
            "254db855327f9460e1b12ae8ee7fa8dfb14863a1509b3de37a79091bb7d1ecbd",
            "7e7b750d3dc922a89d0625fcfae94d3d3b1eb517459f26f7da77a786e1e0f9bb",
            "585fa73f",
            "8b14a5278c1d0d8c19964d8a84faaf8b312e2e288929cd8ae2a636bef985ca42",
            156,
        ),
        ("cnn_rnn_lstm", True): (
            "000d45aa0b006e2cd6fc10a8fbdd3adba2b03e18018621366866133003a19c7b",
            "7e7b750d3dc922a89d0625fcfae94d3d3b1eb517459f26f7da77a786e1e0f9bb",
            "585fa73f",
            "2b5d0205f3e80f3bb5881dd0a8e881d689f399ec68df78f0c6e5b196bdac2cfe",
            241,
        ),
        ("cnn_td", False): (
            "d6d22bb8f87ba43cee350b5d65deef29c60f566c3f494284efab7412ec768ec2",
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
        with tn.Tape() as tape:
            out = models.forward(spec, params, Tensor(clip))
            truth = np.eye(3, dtype=np.float32)[[1]]
            loss = train.categorical_crossentropy(tn.reshape(out, (1, 3)), truth)
        tape.backward(loss)
        grads = hashlib.sha256()
        for name, t in params.items():
            if params.is_trainable(name):
                grads.update(tape.grads[t].tobytes())
        got = (
            hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(probs.tobytes()).hexdigest(),
            loss.data.tobytes().hex(),
            grads.hexdigest(),
            len(tape.nodes),
        )
        assert got == self.CASES[(arch, trainable)]


@pytest.mark.parametrize(
    "arch,trainable",
    [(arch, False) for arch in models.ARCHITECTURES] + [("cnn_rnn_lstm", True)],
    ids=lambda v: str(v),
)
def test_tape_records_nothing_backward_never_reads(arch, trainable):
    """Walking a taped step in reverse, every node's output is the loss or an
    input of a node whose own output is read."""
    spec = models.build(arch, SMALL, 3, feature_extractor_trainable=trainable)
    params = models.init_model(spec, Rng(5))
    clip = np.random.default_rng(0).uniform(0, 1, SMALL).astype(np.float32)
    with tn.Tape() as tape:
        out = models.forward(spec, params, Tensor(clip))
        truth = np.eye(3, dtype=np.float32)[[1]]
        loss = train.categorical_crossentropy(tn.reshape(out, (1, 3)), truth)
    read, unread = {id(loss)}, []
    for index in reversed(range(len(tape.nodes))):
        node = tape.nodes[index]
        if id(node.out) in read:
            read.update(id(t) for t in node.inputs)
        else:
            unread.append((index, node.out.shape))
    assert unread == []
