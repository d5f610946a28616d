import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from signet import cli, models, modelio
from signet.data import PreprocessConfig
from signet.tensor import Rng

SMALL = (6, 16, 16, 1)
CLASSES = ["alpha", "beta", "gamma", "delta"]
_C = modelio._CHUNK  # checksum chunk size in bytes


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
                if len(writes) == 2:  # magic and header length are down
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
        # Digest of the file written before Rng.uniforms was vectorised: the
        # seeded initial weights and the SLM1 bytes must not change.
        spec = models.build("cnn3d", (35, 64, 64, 1), 4)
        params = models.init_model(spec, Rng(7))
        path = tmp_path / "cnn3d.slm"
        modelio.save_model(spec, params, PreprocessConfig(64, 64, 1, 35), ["a", "b", "c", "d"],
                           str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "139718d062ea8510e4617fbec9150cdf17e03c209ff96a5dcd6ad332129d0a08"


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
            assert np.array_equal(params2[name].data, params[name].data)
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

    def test_reserialization_identical(self, saved, tmp_path):
        path, *_ = saved
        spec2, params2, cfg2, names2 = modelio.load_model(path)
        again = tmp_path / "resave.slm"
        modelio.save_model(spec2, params2, cfg2, names2, str(again))
        assert again.read_bytes() == open(path, "rb").read()


def _with_header(path, mutate) -> bytes:
    """The file at path with its JSON header replaced by mutate(header)."""
    raw = open(path, "rb").read()
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = mutate(json.loads(raw[8 : 8 + hlen]))
    hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    prefix = b"SLM1" + struct.pack("<I", len(hb)) + hb
    pad = ((len(prefix) + 7) & ~7) - len(prefix)
    payload_start = (8 + hlen + 7) & ~7
    return prefix + b"\x00" * pad + raw[payload_start:]


class TestRejection:
    def test_bad_magic(self, saved, tmp_path):
        path, *_ = saved
        raw = bytearray(open(path, "rb").read())
        raw[:4] = b"XXXX"
        bad = tmp_path / "bad.slm"
        bad.write_bytes(bytes(raw))
        with pytest.raises(modelio.BadMagicError, match="not a model file"):
            modelio.load_model(str(bad))

    def test_unsupported_version(self, saved, tmp_path):
        path, *_ = saved
        bad = tmp_path / "v2.slm"
        bad.write_bytes(_with_header(path, lambda h: {**h, "format_version": 2}))
        with pytest.raises(modelio.UnsupportedVersionError):
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
            lambda h: {k: v for k, v in h.items() if k != "payload_checksum_fnv1a64"},
            lambda h: {**h, "preprocess": {**h["preprocess"], "sequence_length": 10**12}},
            lambda h: {**h, "preprocess": {**h["preprocess"], "sequence_length": 6.0}},
            lambda h: {**h, "layers": [{**d, "trainable": True} if d["kind"] == "flatten" else d
                                       for d in h["layers"]]},
            lambda h: {k: v for k, v in h.items() if k != "feature_extractor_trainable"},
        ],
        ids=["array", "no_offset", "str_length", "tensors_object", "unknown_arch",
             "int_input_shape", "zero_extent", "huge_extent", "layer_not_object",
             "unknown_layer_key", "stride_key", "bad_preprocess", "str_class_names",
             "no_checksum", "preprocess_mismatch", "float_preprocess", "redundant_layer_key",
             "no_extractor_flag"],
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
        raw = open(path, "rb").read()
        (hlen,) = struct.unpack("<I", raw[4:8])
        payload = b"\x00" * 8 + raw[(8 + hlen + 7) & ~7 :]
        rewritten = _with_header(path, lambda h: {
            **h,
            "tensors": [{**e, "offset": e["offset"] + 8} for e in h["tensors"]],
            "payload_checksum_fnv1a64": f"{modelio._fnv1a64(payload):016x}",
        })
        bad = tmp_path / "shifted.slm"
        bad.write_bytes(rewritten[: len(rewritten) - len(payload) + 8] + payload)
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

    def test_non_finite_payload_is_a_format_error(self, saved, tmp_path):
        path, *_ = saved
        raw = open(path, "rb").read()
        (hlen,) = struct.unpack("<I", raw[4:8])
        payload = bytearray(raw[(8 + hlen + 7) & ~7 :])
        payload[-4:] = struct.pack("<f", float("nan"))
        checksum = f"{modelio._fnv1a64(bytes(payload)):016x}"
        rewritten = _with_header(path, lambda h: {**h, "payload_checksum_fnv1a64": checksum})
        bad = tmp_path / "nan.slm"
        bad.write_bytes(rewritten[: -len(payload)] + bytes(payload))
        with pytest.raises(modelio.ModelFormatError, match="non-finite"):
            modelio.load_model(str(bad))

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


class TestChecksum:
    def test_fnv1a_reference_vectors(self):
        # Published 64-bit FNV-1a test vectors.
        assert modelio._fnv1a64(b"") == 0xCBF29CE484222325
        assert modelio._fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert modelio._fnv1a64(b"foobar") == 0x85944171F73967E8

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.one_of(
        st.binary(max_size=4096),
        st.builds(
            lambda n, seed: np.random.default_rng(seed).bytes(n),
            st.integers(0, 3 * modelio._CHUNK + 1),
            st.integers(0, 2**32 - 1),
        ),
    ))
    def test_matches_byte_loop(self, raw):
        assert modelio._fnv1a64(raw) == oracles.fnv1a64_loop(raw)

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    @pytest.mark.parametrize("fill", [0x00, 0xFF])
    @pytest.mark.parametrize("length", [0, 1, _C - 1, _C, _C + 1, 2 * _C + 7])
    def test_runs_at_chunk_boundaries(self, wrap, fill, length):
        raw = bytes([fill]) * length
        assert modelio._fnv1a64(wrap(raw)) == oracles.fnv1a64_loop(raw)


class TestFileFuzz:
    """Damaged model files make load_model raise ModelFormatError and nothing else."""

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(st.data())
    def test_single_byte_mutations(self, saved, tmp_path_factory, draw):
        path, *_ = saved
        raw = bytearray(open(path, "rb").read())
        (hlen,) = struct.unpack("<I", raw[4:8])
        # Half the draws land in the magic, length or JSON header, which the
        # payload checksum does not cover.
        pos = draw.draw(st.one_of(st.integers(0, 8 + hlen - 1), st.integers(0, len(raw) - 1)))
        raw[pos] ^= draw.draw(st.integers(1, 255))
        mutated = tmp_path_factory.getbasetemp() / "mutated.slm"
        mutated.write_bytes(bytes(raw))
        try:
            modelio.load_model(str(mutated))
        except modelio.ModelFormatError:
            pass

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
