import hashlib
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from signet import data, modelio, models, train, tensor as tn
from signet.nn import ParameterStore
from signet.tensor import Rng, Tensor
from signet.train import AdamState, TrainingConfig, TrainingError


def t32(arr, **kw):
    return Tensor(np.asarray(arr, dtype=np.float32), **kw)


class TestCrossEntropy:
    def test_perfect_prediction_loss_near_zero(self):
        pred = t32(np.eye(3))
        loss = train.categorical_crossentropy(pred, np.eye(3))
        assert 0.0 <= loss.item() <= 2e-7

    def test_uniform_prediction_is_log_classes(self):
        pred = t32(np.full((2, 4), 0.25))
        loss = train.categorical_crossentropy(pred, np.eye(4)[[0, 3]])
        assert abs(loss.item() - math.log(4)) < 1e-6

    def test_zero_probability_clamps(self):
        pred = t32([[0.0, 1.0]])
        truth = np.array([[1.0, 0.0]])
        loss = train.categorical_crossentropy(pred, truth)
        assert abs(loss.item() - (-math.log(1e-7))) < 1e-3

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-3, 3, (6, 5)).astype(np.float32)
        pred = tn.softmax(t32(z))
        truth = np.eye(5)[rng.integers(0, 5, 6)]
        assert train.categorical_crossentropy(pred, truth).item() >= 0.0

    def test_non_one_hot_rejected(self):
        with pytest.raises(TrainingError):
            train.categorical_crossentropy(t32(np.eye(2)), np.array([[0.5, 0.5], [1.0, 0.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(tn.ShapeError):
            train.categorical_crossentropy(t32(np.eye(2)), np.eye(3))


class TestAccuracy:
    def test_perfect(self):
        assert train.accuracy(np.eye(4), np.eye(4)) == 1.0

    def test_all_wrong(self):
        pred = np.eye(4)[[1, 2, 3, 0]]
        assert train.accuracy(pred, np.eye(4)) == 0.0

    def test_three_of_four(self):
        pred = np.eye(4)[[0, 1, 2, 0]]
        assert train.accuracy(pred, np.eye(4)) == 0.75

    def test_empty_batch_rejected(self):
        with pytest.raises(tn.ShapeError):
            train.accuracy(np.zeros((0, 3)), np.zeros((0, 3)))

    def test_argmax_tie_breaks_low_index(self):
        pred = np.array([[0.5, 0.5]])
        assert train.accuracy(pred, np.array([[1.0, 0.0]])) == 1.0
        assert train.accuracy(pred, np.array([[0.0, 1.0]])) == 0.0


class TestAdam:
    def _store(self, value, dtype=np.float64):
        store = ParameterStore()
        store.add("p", Tensor(np.array([value], dtype=dtype), requires_grad=True))
        return store

    def test_zero_gradient_is_noop(self):
        store = self._store(1.2345, dtype=np.float32)
        before = store["p"].data.copy()
        store["p"].grad = np.zeros(1, dtype=np.float32)
        train.adam_step(store, AdamState(), lr=0.001)
        assert np.array_equal(store["p"].data, before)

    def test_first_step_magnitude(self):
        store = self._store(1.0)
        store["p"].grad = np.ones(1)
        train.adam_step(store, AdamState(), lr=0.001)
        expected_delta = -0.001 / (1.0 + 1e-7)
        assert abs(float(store["p"].data[0]) - (1.0 + expected_delta)) < 1e-12

    def test_two_steps_match_hand_recurrence(self):
        store = self._store(1.0)
        state = AdamState()
        for _ in range(2):
            store["p"].grad = np.ones(1)
            train.adam_step(store, state, lr=0.001)
        expected = oracles.adam_unrolled(1.0, [1.0, 1.0], lr=0.001)
        assert abs(float(store["p"].data[0]) - expected) < 1e-9

    def test_frozen_parameters_never_move(self):
        store = ParameterStore()
        store.add("w", Tensor(np.ones(3), requires_grad=True), trainable=False)
        store["w"].grad = np.ones(3)
        train.adam_step(store, AdamState(), lr=0.1)
        assert np.array_equal(store["w"].data, np.ones(3))

    def test_missing_gradient_rejected(self):
        store = self._store(1.0)
        with pytest.raises(TrainingError):
            train.adam_step(store, AdamState(), lr=0.001)

    def test_gradient_overflow_is_reported_by_adam_naming_the_parameter(self):
        # The forward, (x * w)^2 = 9e36, is finite; d/dx = 2 * x * w * w is
        # not. Backward leaves inf quietly, and adam_step raises.
        store = ParameterStore()
        store.add("x", t32([1e-20]))
        w = t32([3e38])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with tn.record() as tape:
                y = tn.mul(store["x"], w)
                loss = tn.reduce_sum(tn.mul(y, y))
            tape.backward(loss)
            assert np.array_equal(store["x"].grad, np.array([np.inf], dtype=np.float32))
            with pytest.raises(tn.NonFiniteError, match="'x'"):
                train.adam_step(store, AdamState(), lr=0.001)


class TestEarlyStopping:
    def test_stops_after_patience_without_improvement(self):
        losses = [1.0, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9]
        assert not train.early_stopping_check(losses[:6], patience=5, min_epochs=1)
        assert train.early_stopping_check(losses, patience=5, min_epochs=1)

    def test_strictly_decreasing_never_stops(self):
        losses = [1.0 / (i + 1) for i in range(50)]
        for i in range(1, 51):
            assert not train.early_stopping_check(losses[:i], patience=5, min_epochs=1)

    @pytest.mark.parametrize("patience", [5, 7])
    def test_both_patience_values_accepted(self, patience):
        losses = [1.0] + [0.5] * (patience + 1)
        assert train.early_stopping_check(losses, patience=patience, min_epochs=1)

    def test_min_epochs_gate(self):
        losses = [1.0, 1.0, 1.0, 1.0]
        assert train.early_stopping_check(losses, patience=2, min_epochs=1)
        assert not train.early_stopping_check(losses, patience=2, min_epochs=10)

    def test_config_invariants(self):
        with pytest.raises(TrainingError):
            TrainingConfig(validation_split=0.0)
        with pytest.raises(TrainingError):
            TrainingConfig(min_epochs=30, max_epochs=20)
        with pytest.raises(TrainingError):
            TrainingConfig(batch_size=0)
        for lr in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(TrainingError):
                TrainingConfig(learning_rate=lr)


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("train_corpus")
    data.generate_synthetic(str(root), 2, 8, frames=6, size=(16, 16), seed=4)
    cfg = data.PreprocessConfig(16, 16, 1, 6)
    return data.load_dataset(str(root), cfg, seed=4)


def _small_cfg(**kw):
    defaults = dict(max_epochs=3, min_epochs=1, batch_size=4, patience=10,
                    validation_split=0.2, seed=4)
    defaults.update(kw)
    return TrainingConfig(**defaults)


class TestFit:
    def test_learns_and_history_is_consistent(self, small_manifest):
        spec = models.build("cnn_td", (6, 16, 16, 1), 2)
        params, history = train.fit(spec, small_manifest, _small_cfg(max_epochs=6))
        assert len(history.records) <= 6
        assert [r.epoch for r in history.records] == list(range(1, len(history.records) + 1))
        assert history.records[-1].train_accuracy > history.records[0].train_accuracy or \
            history.records[-1].train_accuracy == 1.0
        assert 1 <= history.best_epoch <= len(history.records)

    def test_same_seed_bit_identical(self, small_manifest):
        spec = models.build("cnn_td", (6, 16, 16, 1), 2)
        pa, ha = train.fit(spec, small_manifest, _small_cfg())
        pb, hb = train.fit(spec, small_manifest, _small_cfg())
        assert ha.to_csv() == hb.to_csv()
        for name in pa.names():
            assert np.array_equal(pa[name].data, pb[name].data)

    def test_frozen_extractor_weights_untouched(self, small_manifest):
        spec = models.build("cnn_rnn_lstm", (6, 16, 16, 1), 2,
                            feature_extractor_trainable=False)
        initial = models.init_model(spec, Rng(4))
        params, _ = train.fit(spec, small_manifest, _small_cfg(max_epochs=2))
        moved = []
        for name in params.names():
            same = np.array_equal(params[name].data, initial[name].data)
            if "time_distributed" in name:
                assert same, f"frozen parameter {name} changed"
            else:
                moved.append(not same)
        assert any(moved)

    def test_frozen_fit_golden_digest(self, tmp_path):
        # Digests taken while the frozen extractor was still recorded on the
        # tape: pruning it must leave the saved model and history unchanged.
        root = tmp_path / "corpus"
        data.generate_synthetic(str(root), 2, 5, frames=6, size=(16, 16), seed=5)
        cfg = data.PreprocessConfig(16, 16, 1, 6)
        manifest = data.load_dataset(str(root), cfg, seed=5)
        spec = models.build("cnn_rnn_lstm", (6, 16, 16, 1), 2,
                            feature_extractor_trainable=False)
        params, history = train.fit(spec, manifest, _small_cfg(max_epochs=2))
        path = tmp_path / "frozen.slm"
        modelio.save_model(spec, params, cfg, manifest.class_names, str(path))
        model_digest = hashlib.sha256(path.read_bytes()).hexdigest()
        history_digest = hashlib.sha256(history.to_csv().encode()).hexdigest()
        assert model_digest == "2c710976947fd130bc04b315e6f0b6b25136fa071cc68134407278f31a121a08"
        assert history_digest == "edb04ec3aa26356283f9205041e90adbebd9a2c15e2cb4497f7e68583eaa0d3d"

    def test_poisoned_validation_labels_leave_weights_unchanged(self, small_manifest):
        import copy

        spec = models.build("cnn_td", (6, 16, 16, 1), 2)
        clean = small_manifest
        poisoned = copy.deepcopy(small_manifest)
        # Flip every eventual validation label; gradients must not notice.
        for s in poisoned.train:
            s.label_index = s.label_index  # labels used for training stay put
        pa, ha = train.fit(spec, clean, _small_cfg(max_epochs=2))

        poisoned2 = copy.deepcopy(small_manifest)
        cfg = _small_cfg(max_epochs=2)
        # Reproduce fit's carve to poison only validation samples.
        rng = Rng(cfg.seed)
        models.init_model(spec, rng)
        pool = list(poisoned2.train)
        rng.shuffle(pool)
        n_val = int(len(pool) * cfg.validation_split)
        for s in pool[-n_val:]:
            s.label_index = (s.label_index + 1) % 2
        pb, hb = train.fit(spec, poisoned2, cfg)
        for name in pa.names():
            assert np.array_equal(pa[name].data, pb[name].data)
        # Metrics on the validation split do change.
        assert ha.to_csv() != hb.to_csv()

    def test_divergence_names_the_clip_and_epoch(self, small_manifest):
        spec = models.build("cnn3d", (6, 16, 16, 1), 2)
        with pytest.raises(tn.NonFiniteError) as exc:
            train.fit(spec, small_manifest, _small_cfg(learning_rate=1e6))
        found = re.fullmatch(r"epoch (\d+): clip (\S+): layer\d+_\w+: .+", str(exc.value))
        assert found, str(exc.value)
        assert 1 <= int(found[1]) <= 3
        assert found[2] in {s.clip_id for s in small_manifest.train}

    def test_divergence_raises_without_numpy_warnings(self, small_manifest):
        # NonFiniteError is the only signal: no numpy overflow warning
        # escapes from the kernels on the way to it.
        spec = models.build("cnn3d", (6, 16, 16, 1), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(tn.NonFiniteError):
                train.fit(spec, small_manifest, _small_cfg(learning_rate=1e6))

    def test_empty_training_set_rejected(self, small_manifest):
        spec = models.build("cnn_td", (6, 16, 16, 1), 2)
        empty = data.DatasetManifest(class_names=list(small_manifest.class_names))
        with pytest.raises(TrainingError):
            train.fit(spec, empty, _small_cfg())

    def test_zero_validation_samples_rejected(self, small_manifest):
        spec = models.build("cnn_td", (6, 16, 16, 1), 2)
        with pytest.raises(TrainingError):
            train.fit(spec, small_manifest, _small_cfg(validation_split=0.01))

    def test_early_stopping_flags_history(self, small_manifest):
        spec = models.build("cnn_td", (6, 16, 16, 1), 2)
        params, history = train.fit(spec, small_manifest,
                                    _small_cfg(max_epochs=20, patience=2))
        if history.stopped_early:
            assert len(history.records) < 20

    def test_history_csv_format(self):
        h = train.History(
            records=[train.EpochRecord(1, 1.23456789, 0.5, 0.999999, 0.25)],
            stopped_early=False,
            best_epoch=1,
        )
        lines = h.to_csv().splitlines()
        assert lines[0] == "epoch,train_loss,train_accuracy,val_loss,val_accuracy"
        assert lines[1] == "1,1.23457,0.5,0.999999,0.25"


_STEP_DIGESTS = """
import ctypes, glob, hashlib, os, sys
import numpy as np
from signet import models, train, tensor as tn
from signet.tensor import Rng, Tensor

libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                              "libscipy_openblas*"))
print(ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_() if libs else "unknown")
shape = (8, 64, 64, 1)
clip = Tensor(Rng(3).uniforms(int(np.prod(shape))).astype(np.float32).reshape(shape))
for arch in sys.argv[1:]:
    spec = models.build(arch, shape, 4)
    params = models.init_model(spec, Rng(2))
    with tn.record() as tape:
        probs = models.forward(spec, params, clip)
        truth = np.eye(4, dtype=np.float32)[[2]]
        loss = train.categorical_crossentropy(tn.reshape(probs, (1, 4)), truth)
    tape.backward(loss)
    digest = hashlib.sha256(loss.data.tobytes())
    for name, t in params.items():
        if params.is_trainable(name):
            digest.update(t.grad.tobytes())
    print(arch, digest.hexdigest())
"""


def test_training_step_bits_do_not_depend_on_blas_threads():
    # 64x64 frames make the conv kernel-gradient GEMMs large enough for
    # OpenBLAS to split them across threads.
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _STEP_DIGESTS, *models.ARCHITECTURES],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        reported, *digests = proc.stdout.splitlines()
        assert reported in (threads, "unknown")
        assert len(digests) == len(models.ARCHITECTURES)
        outputs.append(digests)
    assert outputs[0] == outputs[1]
