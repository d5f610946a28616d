import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signet import data
from signet.data import DatasetError, PreprocessConfig


class TestDecodeNetpbm:
    def test_pgm_round_trip_of_known_bytes(self):
        raw = b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64])
        img = data.decode_netpbm(raw)
        assert img.shape == (2, 2, 1)
        assert np.array_equal(img[:, :, 0], np.array([[0, 128], [255, 64]]))

    def test_comment_lines_in_header(self):
        raw = b"P5\n# made by a test\n2 2\n# another\n255\n" + bytes([1, 2, 3, 4])
        img = data.decode_netpbm(raw)
        assert np.array_equal(img[:, :, 0], np.array([[1, 2], [3, 4]]))

    def test_ppm_three_channels(self):
        raw = b"P6\n1 2\n255\n" + bytes([10, 20, 30, 40, 50, 60])
        img = data.decode_netpbm(raw)
        assert img.shape == (2, 1, 3)
        assert list(img[1, 0]) == [40, 50, 60]

    def test_truncated_payload_rejected(self):
        raw = b"P6\n2 2\n255\n" + bytes(5)  # needs 12 bytes
        with pytest.raises(DatasetError, match="truncated"):
            data.decode_netpbm(raw)

    def test_bad_magic_rejected(self):
        with pytest.raises(DatasetError, match="magic"):
            data.decode_netpbm(b"P3\n1 1\n255\n0")

    def test_wrong_maxval_rejected(self):
        with pytest.raises(DatasetError, match="maxval"):
            data.decode_netpbm(b"P5\n1 1\n65535\n\x00\x00")

    def test_encode_decode_round_trip(self):
        frame = np.arange(12, dtype=np.uint8).reshape(3, 4)
        again = data.decode_netpbm(data.encode_pgm(frame))
        assert np.array_equal(again[:, :, 0], frame)


class TestPreprocessFrame:
    def test_white_color_pixel_becomes_one(self):
        img = np.full((1, 1, 3), 255, dtype=np.uint8)
        out = data.preprocess_frame(img, PreprocessConfig(1, 1, 1, 1))
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == np.float32(1.0)

    def test_resize_to_same_extents_is_identity(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (5, 7, 1), dtype=np.uint8)
        out = data.preprocess_frame(img, PreprocessConfig(5, 7, 1, 1))
        assert np.array_equal(out, (img / 255.0).astype(np.float32))

    def test_two_by_two_to_one_by_one_bilinear(self):
        img = np.array([[0, 0], [255, 255]], dtype=np.uint8)[:, :, None]
        out = data.preprocess_frame(img, PreprocessConfig(1, 1, 1, 1))
        # src row coord (0+0.5)*2-0.5 = 0.5 -> midpoint 127.5 -> 0.5
        assert out[0, 0, 0] == np.float32(0.5)

    def test_luma_weights(self):
        img = np.zeros((1, 1, 3), dtype=np.uint8)
        img[0, 0] = (100, 50, 200)
        out = data.preprocess_frame(img, PreprocessConfig(1, 1, 1, 1))
        expected = round(0.299 * 100 + 0.587 * 50 + 0.114 * 200) / 255.0
        assert abs(float(out[0, 0, 0]) - expected) < 1e-7

    def test_gray_to_color_replicates(self):
        img = np.array([[7]], dtype=np.uint8)[:, :, None]
        out = data.preprocess_frame(img, PreprocessConfig(1, 1, 3, 1))
        assert out.shape == (1, 1, 3)
        assert len(set(out.reshape(-1).tolist())) == 1

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (9, 11, 3), dtype=np.uint8)
        out = data.preprocess_frame(img, PreprocessConfig(4, 6, 1, 1))
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestPreprocessConfig:
    def test_clip_shape_is_frames_height_width_channels(self):
        assert PreprocessConfig(16, 12, 3, 6).clip_shape == (6, 16, 12, 3)


class TestNormalizeSequence:
    def _frames(self, t):
        return [np.full((2, 2, 1), i, dtype=np.float32) for i in range(t)]

    def test_exact_length_unchanged(self):
        out = data.normalize_sequence(self._frames(35), 35)
        assert out.shape[0] == 35
        assert out[0, 0, 0, 0] == 0 and out[34, 0, 0, 0] == 34

    def test_subsampling_seventy_to_thirty_five(self):
        out = data.normalize_sequence(self._frames(70), 35)
        assert [int(v) for v in out[:, 0, 0, 0]] == [2 * k for k in range(35)]

    def test_padding_twenty_to_thirty_five(self):
        out = data.normalize_sequence(self._frames(20), 35)
        values = [int(v) for v in out[:, 0, 0, 0]]
        assert values[:20] == list(range(20))
        assert values[20:] == [19] * 15

    def test_idempotent(self):
        once = data.normalize_sequence(self._frames(50), 35)
        twice = data.normalize_sequence(once, 35)
        assert np.array_equal(once, twice)

    def test_empty_clip_rejected(self):
        with pytest.raises(DatasetError):
            data.normalize_sequence([], 35)


class TestGenerateSynthetic:
    def test_counts_and_layout(self, tmp_path):
        root = tmp_path / "corpus"
        n = data.generate_synthetic(str(root), 4, 10, frames=35, size=(64, 64), seed=7)
        assert n == 40
        classes = sorted(os.listdir(root))
        assert len(classes) == 4
        for cls in classes:
            clips = os.listdir(root / cls)
            assert len(clips) == 10
            frames = os.listdir(root / cls / clips[0])
            assert len(frames) == 35

    def test_same_seed_bit_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        data.generate_synthetic(str(a), 2, 2, frames=6, size=(32, 32), seed=3)
        data.generate_synthetic(str(b), 2, 2, frames=6, size=(32, 32), seed=3)
        for dirpath, _, files in os.walk(a):
            rel = os.path.relpath(dirpath, a)
            for name in files:
                with open(os.path.join(dirpath, name), "rb") as fh:
                    bytes_a = fh.read()
                with open(os.path.join(b, rel, name), "rb") as fh:
                    bytes_b = fh.read()
                assert bytes_a == bytes_b

    def test_too_many_classes_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            data.generate_synthetic(str(tmp_path / "x"), 9, 1)


class TestLoadDataset:
    def test_stratified_split_counts(self, tmp_path):
        root = tmp_path / "ds"
        data.generate_synthetic(str(root), 2, 10, frames=6, size=(16, 16), seed=1)
        cfg = PreprocessConfig(16, 16, 1, 6)
        manifest = data.load_dataset(str(root), cfg, seed=5)
        assert len(manifest.train) == 16 and len(manifest.eval) == 4
        for label in range(2):
            assert sum(1 for s in manifest.train if s.label_index == label) == 8
            assert sum(1 for s in manifest.eval if s.label_index == label) == 2

    def test_split_disjoint_by_clip_id(self, tmp_path):
        root = tmp_path / "ds"
        data.generate_synthetic(str(root), 2, 5, frames=4, size=(16, 16), seed=1)
        manifest = data.load_dataset(str(root), PreprocessConfig(16, 16, 1, 4), seed=0)
        train_ids = {s.clip_id for s in manifest.train}
        eval_ids = {s.clip_id for s in manifest.eval}
        assert not train_ids & eval_ids

    def test_same_seed_identical_manifest(self, tmp_path):
        root = tmp_path / "ds"
        data.generate_synthetic(str(root), 2, 5, frames=4, size=(16, 16), seed=1)
        cfg = PreprocessConfig(16, 16, 1, 4)
        a = data.load_dataset(str(root), cfg, seed=9)
        b = data.load_dataset(str(root), cfg, seed=9)
        assert [s.clip_id for s in a.train] == [s.clip_id for s in b.train]
        for sa, sb in zip(a.train + a.eval, b.train + b.eval):
            assert np.array_equal(sa.frames, sb.frames)

    def test_round_trip_tensor_contract(self, tmp_path):
        root = tmp_path / "ds"
        data.generate_synthetic(str(root), 3, 4, frames=10, size=(32, 32), seed=2)
        cfg = PreprocessConfig(32, 32, 1, 35)
        manifest = data.load_dataset(str(root), cfg, seed=0)
        assert manifest.class_names == sorted(manifest.class_names)
        for s in manifest.train + manifest.eval:
            assert s.frames.shape == (35, 32, 32, 1)
            assert s.frames.dtype == np.float32
            assert s.frames.min() >= 0.0 and s.frames.max() <= 1.0
            assert s.label_index < len(manifest.class_names)

    def test_empty_class_folder_rejected(self, tmp_path):
        root = tmp_path / "ds"
        (root / "empty_class").mkdir(parents=True)
        with pytest.raises(DatasetError):
            data.load_dataset(str(root), PreprocessConfig(8, 8, 1, 4), seed=0)

    def test_frame_order_is_lexicographic_not_write_order(self, tmp_path):
        clip = tmp_path / "c" / "clip_0"
        clip.mkdir(parents=True)
        # Write frames out of order; loading must sort by name.
        second = np.full((4, 4), 200, dtype=np.uint8)
        first = np.full((4, 4), 10, dtype=np.uint8)
        (clip / "frame_001.pgm").write_bytes(data.encode_pgm(second))
        (clip / "frame_000.pgm").write_bytes(data.encode_pgm(first))
        frames = data.load_clip(str(clip), PreprocessConfig(4, 4, 1, 2))
        assert frames[0].max() < frames[1].max()

    def test_undecodable_frame_surfaces_error(self, tmp_path):
        clip = tmp_path / "c" / "clip_0"
        clip.mkdir(parents=True)
        (clip / "frame_000.pgm").write_bytes(b"P5\n4 4\n255\n")
        with pytest.raises(DatasetError):
            data.load_clip(str(clip), PreprocessConfig(4, 4, 1, 2))


class TestNetpbmFuzz:
    """Hostile frame bytes make decode_netpbm raise DatasetError and nothing else."""

    @staticmethod
    def _decode(raw):
        try:
            data.decode_netpbm(raw)
        except DatasetError:
            pass

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes(self, raw):
        self._decode(raw)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.sampled_from([b"P5", b"P6"]),
        st.text(alphabet=" \t\n#0123456789-+_.e", max_size=40),
        st.binary(max_size=32),
    )
    def test_header_like_bytes(self, magic, header, payload):
        self._decode(magic + header.encode() + payload)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 5), st.integers(1, 5), st.sampled_from([b"P5", b"P6"]), st.data())
    def test_truncated_frames(self, width, height, magic, draw):
        channels = 1 if magic == b"P5" else 3
        raw = magic + b"\n%d %d\n255\n" % (width, height) + bytes(width * height * channels)
        data.decode_netpbm(raw)
        cut = draw.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(DatasetError):
            data.decode_netpbm(raw[:cut])
