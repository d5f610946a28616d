import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from signet import cli, models, modelio, train
from signet.data import PreprocessConfig
from signet.tensor import Rng

SMALL = (6, 16, 16, 1)
CLASSES = ["alpha", "beta", "gamma", "delta"]
TINY = (4, 8, 8, 1)  # a clip every architecture builds for


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    path = tmp_path_factory.mktemp("io") / "model.slm"
    spec = models.build("cnn_td", SMALL, 4)
    params = models.init_model(spec, Rng(13))
    cfg = PreprocessConfig(16, 16, 1, 6)
    modelio.save_model(spec, params, cfg, CLASSES, str(path))
    return str(path), spec, params, cfg


class TestSave:
    def test_double_save_identical_bytes(self, saved, tmp_path):
        path, spec, params, cfg = saved
        other = tmp_path / "again.slm"
        modelio.save_model(spec, params, cfg, CLASSES, str(other))
        assert other.read_bytes() == open(path, "rb").read()

    def test_file_size_matches_tensor_table(self, saved):
        path, *_ = saved
        raw = open(path, "rb").read()
        (hlen,) = struct.unpack("<I", raw[4:8])
        header = json.loads(raw[8 : 8 + hlen])
        payload_start = (8 + hlen + 7) & ~7
        last = header["tensors"][-1]
        assert payload_start + last["offset"] + last["length"] == len(raw)
        for entry in header["tensors"]:
            assert entry["offset"] % 8 == 0

    def test_missing_parameter_rejected(self, tmp_path):
        spec = models.build("cnn_td", SMALL, 4)
        params = models.init_model(spec, Rng(1))
        incomplete = type(params)()
        for i, (name, t) in enumerate(params.items()):
            if i > 0:
                incomplete.add(name, t)
        with pytest.raises(modelio.IncompleteParamsError):
            modelio.save_model(spec, incomplete, PreprocessConfig(16, 16, 1, 6),
                               CLASSES, str(tmp_path / "x.slm"))

    def test_preprocess_must_fit_input_shape(self, saved, tmp_path):
        _, spec, params, _ = saved
        with pytest.raises(modelio.IncompatibleModelError):
            modelio.save_model(spec, params, PreprocessConfig(16, 16, 1, 7), CLASSES,
                               str(tmp_path / "x.slm"))

    def test_class_name_count_checked(self, saved, tmp_path):
        _, spec, params, cfg = saved
        with pytest.raises(modelio.IncompleteParamsError):
            modelio.save_model(spec, params, cfg, ["only_one"], str(tmp_path / "x.slm"))

    @pytest.mark.parametrize("fail_at", ["write", "replace"])
    def test_failed_save_keeps_the_previous_file(self, saved, tmp_path, monkeypatch, fail_at):
        path, spec, params, cfg = saved
        target = tmp_path / "model.slm"
        old = open(path, "rb").read()
        target.write_bytes(old)
        other = models.init_model(spec, Rng(14))
        real_open, writes = open, []

        class FailingFile:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, chunk):
                if writes:  # the prefix is down
                    raise OSError("disk full")
                writes.append(chunk)
                return self.fh.write(chunk)

        def failing_replace(src, dst):
            raise OSError("rename refused")

        if fail_at == "write":
            monkeypatch.setattr(modelio, "open",
                                lambda *a, **kw: FailingFile(real_open(*a, **kw)),
                                raising=False)
        else:
            monkeypatch.setattr(modelio.os, "replace", failing_replace)
        with pytest.raises(OSError):
            modelio.save_model(spec, other, cfg, CLASSES, str(target))
        assert target.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.slm"]

    def test_save_replaces_an_existing_file(self, saved, tmp_path):
        path, spec, params, cfg = saved
        target = tmp_path / "model.slm"
        target.write_bytes(b"an older model")
        modelio.save_model(spec, params, cfg, CLASSES, str(target))
        assert target.read_bytes() == open(path, "rb").read()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.slm"]

    def test_seeded_cnn3d_file_golden_digest(self, tmp_path):
        # The seeded initial weights and the SLM1 bytes must not change.
        spec = models.build("cnn3d", (35, 64, 64, 1), 4)
        params = models.init_model(spec, Rng(7))
        path = tmp_path / "cnn3d.slm"
        modelio.save_model(spec, params, PreprocessConfig(64, 64, 1, 35), ["a", "b", "c", "d"],
                           str(path))
        raw = path.read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        assert digest == "f7eec897d1f2edbc0395534fdf78790fb14f8e492a9b2de48965de371e215165"
        _, loaded, _, _ = modelio.load_model(str(path))
        assert loaded.names() == params.names()
        for name in params.names():
            assert loaded[name].data.tobytes() == params[name].data.tobytes(), name


class TestLoad:
    def test_round_trip_bit_identical_params_and_metadata(self, saved):
        path, spec, params, cfg = saved
        spec2, params2, cfg2, names2 = modelio.load_model(path)
        assert spec2.architecture == spec.architecture
        assert spec2.input_shape == spec.input_shape
        assert names2 == CLASSES
        assert cfg2.to_dict() == cfg.to_dict()
        assert params2.names() == params.names()
        for name in params.names():
            assert params2[name].data.tobytes() == params[name].data.tobytes()
            assert params2.is_trainable(name) == params.is_trainable(name)

    def test_round_trip_predictions_bit_identical(self, saved):
        path, spec, params, _ = saved
        spec2, params2, _, _ = modelio.load_model(path)
        rng = np.random.default_rng(3)
        for _ in range(5):
            clip = rng.uniform(0, 1, SMALL).astype(np.float32)
            a = models.predict_probs(spec, params, clip)
            b = models.predict_probs(spec2, params2, clip)
            assert np.array_equal(a, b)

    def test_loaded_parameters_are_independent_writable_arrays(self, saved, monkeypatch):
        # Views of the file's bytes would be read-only, and adam_step writes in place.
        path, *_ = saved
        views = []
        frombuffer = np.frombuffer

        def spy(*args, **kwargs):
            views.append(frombuffer(*args, **kwargs))
            return views[-1]

        monkeypatch.setattr(np, "frombuffer", spy)
        _, params, _, _ = modelio.load_model(path)
        monkeypatch.undo()
        assert views
        grads = {}
        for name in params.names():
            data = params[name].data
            assert data.flags.writeable and data.flags.owndata, name
            assert not any(np.shares_memory(data, v) for v in views), name
            grads[params[name]] = np.ones_like(data)
        before = {name: params[name].data.copy() for name in params.names()}
        train.adam_step(params, grads, train.AdamState(), 1e-3)
        for name in params.names():
            moved = not np.array_equal(params[name].data, before[name])
            assert moved == params.is_trainable(name), name

    @pytest.mark.parametrize("arch, trainable", [
        ("cnn_lstm", False), ("cnn3d", False), ("cnn_rnn_lstm", False), ("cnn_rnn_lstm", True),
        ("cnn_td", False),
    ], ids=str)
    def test_every_architecture_round_trips_bit_identical(self, tmp_path, arch, trainable):
        path, spec, params = _save_tiny(tmp_path, arch, trainable)
        spec2, params2, cfg2, names2 = modelio.load_model(path)
        assert spec2 == spec
        assert (cfg2, names2) == (PreprocessConfig(8, 8, 1, 4), ["a", "b", "c"])
        assert params2.names() == params.names()
        for name in params.names():
            assert params2[name].data.tobytes() == params[name].data.tobytes(), name
            assert params2.is_trainable(name) == params.is_trainable(name), name

    def test_reserialization_identical(self, saved, tmp_path):
        path, *_ = saved
        spec2, params2, cfg2, names2 = modelio.load_model(path)
        again = tmp_path / "resave.slm"
        modelio.save_model(spec2, params2, cfg2, names2, str(again))
        assert again.read_bytes() == open(path, "rb").read()


def _save_tiny(tmp_path, arch, trainable=False):
    """A seeded three-class model of ``arch`` saved at ``TINY``: (path, spec, params)."""
    spec = models.build(arch, TINY, 3, feature_extractor_trainable=trainable)
    params = models.init_model(spec, Rng(5))
    path = str(tmp_path / f"{arch}.slm")
    modelio.save_model(spec, params, PreprocessConfig(8, 8, 1, 4), ["a", "b", "c"], path)
    return path, spec, params


def _version_1(path, checksums=None) -> bytes:
    """The file at path with ``format_version`` 1 and the ``checksums`` keys in
    place of its ``payload_sha256``; by default the 16-hex-digit FNV-1a key
    that version 1 carried, whose value is never read."""
    header, payload = oracles.split_model_file(open(path, "rb").read())
    del header["payload_sha256"]
    if checksums is None:
        checksums = {"payload_checksum_fnv1a64": "0123456789abcdef"}
    return oracles.model_file({**header, **checksums, "format_version": 1}, payload)


def _with_header(path, mutate) -> bytes:
    """The file at path with its JSON header replaced by mutate(header)."""
    header, payload = oracles.split_model_file(open(path, "rb").read())
    return oracles.model_file(mutate(header), payload)


def _assert_rejected(path, tmp_path, capsys):
    """load_model raises ModelFormatError, and predict exits 1 with one error line."""
    with pytest.raises(modelio.ModelFormatError):
        modelio.load_model(str(path))
    rc = cli.main(["predict", "--model", str(path), "--clip", str(tmp_path / "none")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1, err


class TestRejection:
    def test_bad_magic(self, saved, tmp_path):
        path, *_ = saved
        raw = bytearray(open(path, "rb").read())
        raw[:4] = b"XXXX"
        bad = tmp_path / "bad.slm"
        bad.write_bytes(bytes(raw))
        with pytest.raises(modelio.BadMagicError, match="not a model file"):
            modelio.load_model(str(bad))

    @pytest.mark.parametrize("version", [1, 3, 0, -2, 2.0, True, "2", None, [2]], ids=repr)
    def test_unsupported_version(self, saved, tmp_path, version):
        path, *_ = saved
        bad = tmp_path / "other.slm"
        bad.write_bytes(_with_header(path, lambda h: {**h, "format_version": version}))
        with pytest.raises(modelio.UnsupportedVersionError):
            modelio.load_model(str(bad))

    @pytest.mark.parametrize("version", [1, 1.0, True, 3], ids=repr)
    def test_only_version_1_is_told_it_is_no_longer_read(self, saved, tmp_path, version):
        # 1.0 and true equal 1 in Python, but are not the JSON integer 1.
        path, *_ = saved
        bad = tmp_path / "other.slm"
        bad.write_bytes(_with_header(path, lambda h: {**h, "format_version": version}))
        with pytest.raises(modelio.UnsupportedVersionError) as exc:
            modelio.load_model(str(bad))
        told = "version 1 is no longer read" in str(exc.value)
        assert told == (type(version) is int and version == 1), exc.value

    @pytest.mark.parametrize("keys", [
        ["payload_checksum_fnv1a64"], ["payload_sha256"],
        ["payload_checksum_fnv1a64", "payload_sha256"], [],
    ], ids=["fnv1a64_key", "sha256_key", "both_keys", "no_key"])
    def test_version_1_is_refused_before_its_checksum_is_read(self, saved, tmp_path, keys):
        # Whatever checksum a version-1 file carries, matching or not, the
        # version alone refuses it.
        path, *_ = saved
        _, payload = oracles.split_model_file(open(path, "rb").read())
        values = {"payload_checksum_fnv1a64": "0123456789abcdef",
                  "payload_sha256": hashlib.sha256(payload).hexdigest()}
        bad = tmp_path / "old.slm"
        bad.write_bytes(_version_1(path, {k: values[k] for k in keys}))
        with pytest.raises(modelio.UnsupportedVersionError, match="version 1 is no longer read"):
            modelio.load_model(str(bad))

    @pytest.mark.parametrize("drop", ["payload_sha256", None],
                             ids=["v2_fnv1a64_key", "v2_both_keys"])
    def test_checksum_key_of_the_other_version_is_a_format_error(self, saved, tmp_path, drop):
        # Version 1's checksum key, in place of the sha256 or beside it.
        path, *_ = saved
        header, payload = oracles.split_model_file(open(path, "rb").read())
        header.pop(drop, None)
        header["payload_checksum_fnv1a64"] = "0123456789abcdef"
        bad = tmp_path / "swapped.slm"
        bad.write_bytes(oracles.model_file(header, payload))
        with pytest.raises(modelio.ModelFormatError):
            modelio.load_model(str(bad))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda h: [h],
            lambda h: {**h, "tensors": [{k: v for k, v in e.items() if k != "offset"}
                                        for e in h["tensors"]]},
            lambda h: {**h, "tensors": [{**e, "length": str(e["length"])} for e in h["tensors"]]},
            lambda h: {**h, "tensors": {"name": "layer0"}},
            lambda h: {**h, "architecture": "resnet"},
            lambda h: {**h, "input_shape": 6},
            lambda h: {**h, "input_shape": [6, 16, 16, 0]},
            lambda h: {**h, "input_shape": [10**30, 16, 16, 1]},
            lambda h: {**h, "layers": ["dense"]},
            lambda h: {**h, "layers": [{**h["layers"][0], "colour": 1}] + h["layers"][1:]},
            lambda h: {**h, "layers": [{**h["layers"][0], "wrapped": [
                {**h["layers"][0]["wrapped"][0], "stride": [1, 1]},
                *h["layers"][0]["wrapped"][1:],
            ]}] + h["layers"][1:]},
            lambda h: {**h, "preprocess": {**h["preprocess"], "channels": 2}},
            lambda h: {**h, "class_names": "alpha"},
            lambda h: {k: v for k, v in h.items() if k != "payload_sha256"},
            lambda h: {**h, "preprocess": {**h["preprocess"], "sequence_length": 10**12}},
            lambda h: {**h, "preprocess": {**h["preprocess"], "sequence_length": 6.0}},
            lambda h: {**h, "layers": [{**d, "trainable": True} if d["kind"] == "flatten" else d
                                       for d in h["layers"]]},
            lambda h: {k: v for k, v in h.items() if k != "feature_extractor_trainable"},
            lambda h: {**h, "input_shape": [6, 3, 3, 1]},
            lambda h: {**h, "architecture": "cnn_rnn_lstm", "input_shape": []},
            lambda h: {**h, "architecture": "cnn_rnn_lstm", "input_shape": [1, 16, 16, 1]},
            lambda h: {**h, "tensors": [{**e, "offset": float(e["offset"])}
                                        for e in h["tensors"]]},
            lambda h: {**h, "layers": [{**d, "units": float(d["units"])} if d["kind"] == "dense"
                                       else d for d in h["layers"]]},
        ],
        ids=["array", "no_offset", "str_length", "tensors_object", "unknown_arch",
             "int_input_shape", "zero_extent", "huge_extent", "layer_not_object",
             "unknown_layer_key", "stride_key", "bad_preprocess", "str_class_names",
             "no_checksum", "preprocess_mismatch", "float_preprocess", "redundant_layer_key",
             "no_extractor_flag", "too_small_input", "empty_input_shape", "one_frame_rnn",
             "float_offset", "float_units"],
    )
    def test_malformed_header_is_a_format_error(self, saved, tmp_path, capsys, mutate):
        path, *_ = saved
        bad = tmp_path / "bad.slm"
        bad.write_bytes(_with_header(path, mutate))
        with pytest.raises(modelio.ModelFormatError):
            modelio.load_model(str(bad))
        rc = cli.main(["predict", "--model", str(bad), "--clip", str(tmp_path / "none")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_integer_for_a_layer_flag_is_a_format_error(self, tmp_path, capsys):
        # JSON 1 equals true once parsed, but save_model never writes it.
        spec = models.build("cnn_rnn_lstm", SMALL, 4)
        header, _ = modelio._header(spec, PreprocessConfig(16, 16, 1, 6), CLASSES)
        payload = bytes(modelio._payload_size(header["tensors"]))
        good = tmp_path / "good.slm"
        good.write_bytes(oracles.with_checksum(header, payload))
        modelio.load_model(str(good))
        header["layers"] = [{**d, "return_sequences": 1} if d["kind"] == "simple_rnn" else d
                            for d in header["layers"]]
        bad = tmp_path / "bad.slm"
        bad.write_bytes(oracles.with_checksum(header, payload))
        _assert_rejected(bad, tmp_path, capsys)

    @pytest.mark.parametrize("case", ["nonzero_padding", "spaced_json", "duplicate_key"])
    def test_header_bytes_save_model_never_writes_are_a_format_error(self, saved, tmp_path,
                                                                     capsys, case):
        # Each of these files parses to the saved file's header and payload.
        path, *_ = saved
        header, payload = oracles.split_model_file(open(path, "rb").read())
        canonical = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        text = {
            "nonzero_padding": canonical,
            "spaced_json": json.dumps(header, sort_keys=True).encode(),
            "duplicate_key": b'{"architecture":"cnn_td",' + canonical[1:],
        }[case]
        pad = bytearray((-len(text)) % 8)
        if case == "nonzero_padding":
            pad[0] = 1
        bad = tmp_path / "bad.slm"
        bad.write_bytes(b"SLM1" + struct.pack("<I", len(text)) + text + pad + payload)
        assert oracles.split_model_file(bad.read_bytes()) == (header, payload)
        _assert_rejected(bad, tmp_path, capsys)

    @pytest.mark.parametrize("nested", ["array", "layers"])
    def test_deeply_nested_header_is_a_format_error(self, saved, tmp_path, capsys, nested):
        path, *_ = saved
        raw = open(path, "rb").read()
        (hlen,) = struct.unpack("<I", raw[4:8])
        if nested == "array":
            hb = b"[" * 100_000
        else:
            # json.dumps would recurse on this depth, so splice the text in.
            wrappers = '{"kind":"time_distributed","wrapped":[' * 700
            layers = "[" + wrappers + '{"kind":"relu"}' + "]}" * 700 + "]"
            header = {**json.loads(raw[8 : 8 + hlen]), "layers": "LAYERS"}
            text = json.dumps(header, sort_keys=True, separators=(",", ":"))
            hb = text.replace('"LAYERS"', layers).encode()
        prefix = b"SLM1" + struct.pack("<I", len(hb)) + hb
        pad = ((len(prefix) + 7) & ~7) - len(prefix)
        bad = tmp_path / "deep.slm"
        bad.write_bytes(prefix + b"\x00" * pad + raw[(8 + hlen + 7) & ~7 :])
        with pytest.raises(modelio.ModelFormatError):
            modelio.load_model(str(bad))
        rc = cli.main(["predict", "--model", str(bad), "--clip", str(tmp_path / "none")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_tensors_at_other_aligned_offsets_rejected(self, saved, tmp_path):
        # Every tensor moves 8 bytes later, with payload and checksum to match:
        # a consistent table, but not the one save_model writes.
        path, *_ = saved
        header, payload = oracles.split_model_file(open(path, "rb").read())
        header["tensors"] = [{**e, "offset": e["offset"] + 8} for e in header["tensors"]]
        bad = tmp_path / "shifted.slm"
        bad.write_bytes(oracles.with_checksum(header, b"\x00" * 8 + payload))
        with pytest.raises(modelio.IncompatibleModelError):
            modelio.load_model(str(bad))

    def test_truncated_payload(self, saved, tmp_path):
        path, *_ = saved
        raw = open(path, "rb").read()
        bad = tmp_path / "cut.slm"
        bad.write_bytes(raw[: len(raw) - 100])
        with pytest.raises(modelio.TruncatedPayloadError):
            modelio.load_model(str(bad))

    def test_single_corrupted_payload_byte_detected(self, saved, tmp_path):
        path, *_ = saved
        raw = bytearray(open(path, "rb").read())
        raw[-3] ^= 0x40
        bad = tmp_path / "flip.slm"
        bad.write_bytes(bytes(raw))
        with pytest.raises(modelio.ChecksumError):
            modelio.load_model(str(bad))

    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_flipped_payload_byte_of_any_architecture_is_a_checksum_error(self, tmp_path, arch,
                                                                          where):
        # The sha256 covers each architecture's payload from its first byte to its last.
        path, *_ = _save_tiny(tmp_path, arch)
        raw = bytearray(open(path, "rb").read())
        _, payload = oracles.split_model_file(bytes(raw))
        raw[len(raw) - len(payload) if where == "first" else -1] ^= 0x01
        bad = tmp_path / "flip.slm"
        bad.write_bytes(bytes(raw))
        with pytest.raises(modelio.ChecksumError):
            modelio.load_model(str(bad))

    def test_non_finite_payload_is_a_format_error(self, saved, tmp_path):
        path, *_ = saved
        header, payload = oracles.split_model_file(open(path, "rb").read())
        payload = payload[:-4] + struct.pack("<f", float("nan"))
        bad = tmp_path / "nan.slm"
        bad.write_bytes(oracles.with_checksum(header, payload))
        with pytest.raises(modelio.ModelFormatError, match="non-finite"):
            modelio.load_model(str(bad))

    # Extents whose parameter counts overflow 64 bits: at 2**31 the dense
    # kernel's byte length does, at 2**33 already the flatten layer's width.
    @pytest.mark.parametrize("side", [2**31, 2**33])
    def test_header_with_overflowing_extents_is_a_format_error(self, tmp_path, capsys, side):
        spec = models.build("cnn_td", (2, side, side, 1), 4)
        header, _ = modelio._header(spec, PreprocessConfig(side, side, 1, 2), CLASSES)
        payload = bytes(min(modelio._payload_size(header["tensors"]), 1 << 16))
        bad = tmp_path / "huge.slm"
        bad.write_bytes(oracles.with_checksum(header, payload))
        with pytest.raises(modelio.ModelFormatError):
            modelio.load_model(str(bad))
        rc = cli.main(["grade", "--model", str(bad), "--clip", str(tmp_path / "none")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err, err

    def test_distinct_error_types(self):
        errors = {
            modelio.BadMagicError,
            modelio.UnsupportedVersionError,
            modelio.TruncatedPayloadError,
            modelio.ChecksumError,
            modelio.IncompatibleModelError,
        }
        assert len(errors) == 5
        for err in errors:
            assert issubclass(err, modelio.ModelFormatError)


class TestFileFuzz:
    """Damaged model files make load_model raise ModelFormatError and nothing else."""

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(st.data())
    def test_single_byte_mutations(self, saved, tmp_path_factory, draw):
        # A mutated file that loads must be what save_model writes for the
        # model it loads as (a class-name flip, say, since the checksum covers
        # only the payload). Draws land in the magic, length or JSON header, in
        # the padding, or anywhere.
        path, *_ = saved
        raw = bytearray(open(path, "rb").read())
        (hlen,) = struct.unpack("<I", raw[4:8])
        end = ((8 + hlen + 7) & ~7) - 1
        pos = draw.draw(st.one_of(st.integers(0, 8 + hlen - 1), st.integers(8 + hlen, end),
                                  st.integers(0, len(raw) - 1)))
        raw[pos] ^= draw.draw(st.integers(1, 255))
        base = tmp_path_factory.getbasetemp()
        mutated = base / "mutated.slm"
        mutated.write_bytes(bytes(raw))
        try:
            loaded = modelio.load_model(str(mutated))
        except modelio.ModelFormatError:
            return
        assert not 8 + hlen <= pos <= end, "a padding byte flip loaded"
        spec, params, cfg, names = loaded
        modelio.save_model(spec, params, cfg, names, str(base / "resaved.slm"))
        again = (base / "resaved.slm").read_bytes()
        assert again == bytes(raw)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_truncations(self, saved, tmp_path_factory, draw):
        path, *_ = saved
        raw = open(path, "rb").read()
        cut = draw.draw(st.integers(0, len(raw) - 1))
        short = tmp_path_factory.getbasetemp() / "truncated.slm"
        short.write_bytes(raw[:cut])
        with pytest.raises(modelio.ModelFormatError):
            modelio.load_model(str(short))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_version_1_files_never_load(self, saved, tmp_path_factory, draw):
        # Whole, with one byte changed or cut short: turning its version
        # digit into 2 still leaves the FNV-1a key where sha256 belongs.
        path, *_ = saved
        raw = bytearray(_version_1(path))
        change = draw.draw(st.sampled_from(["none", "mutate", "truncate"]))
        if change == "mutate":
            raw[draw.draw(st.integers(0, len(raw) - 1))] ^= draw.draw(st.integers(1, 255))
        elif change == "truncate":
            raw = raw[: draw.draw(st.integers(0, len(raw) - 1))]
        old = tmp_path_factory.getbasetemp() / "old.slm"
        old.write_bytes(bytes(raw))
        with pytest.raises(modelio.ModelFormatError):
            modelio.load_model(str(old))
