"""Clip ingestion, frame decoding, preprocessing, and synthetic corpora.

Dataset layout on disk::

    root/<label>/<clip_id>/<frame files>

Frames are binary netpbm images: PGM ("P5", one channel) or PPM ("P6",
three channels) with maxval 255. Frame files inside a clip are read in
lexicographic order, so write order on disk never matters.

Preprocessing maps every frame to float32 values in [0, 1]: optional luma
conversion, bilinear resize with half-pixel centers, division by 255.
Clips are normalized to the config's ``sequence_length`` frames: longer
clips are uniformly subsampled, shorter ones repeat their final frame.

``load_dataset`` puts the first ``_TRAIN_SHARE`` (0.8) of each class's
seeded-shuffled clips in the train split and the rest in the eval split.
"""

from __future__ import annotations

import os
import re
from dataclasses import asdict, dataclass, field

import numpy as np

from .tensor import Rng, _integers

__all__ = [
    "DatasetError",
    "PreprocessConfig",
    "ClipSample",
    "DatasetManifest",
    "decode_netpbm",
    "encode_pgm",
    "preprocess_frame",
    "normalize_sequence",
    "load_clip",
    "load_dataset",
    "generate_synthetic",
    "MOTION_PATTERNS",
]


class DatasetError(ValueError):
    """Malformed frame data or dataset layout."""


@dataclass
class PreprocessConfig:
    """Frame preprocessing parameters, recorded verbatim into saved models."""

    target_height: int = 64
    target_width: int = 64
    channels: int = 1
    sequence_length: int = 35

    def __post_init__(self):
        for key in ("target_height", "target_width", "channels", "sequence_length"):
            (value,) = _integers((getattr(self, key),), key, DatasetError)
            setattr(self, key, value)
        if self.target_height < 1 or self.target_width < 1:
            raise DatasetError("target extents must be positive")
        if self.channels not in (1, 3):
            raise DatasetError("channels must be 1 or 3")
        if self.sequence_length < 1:
            raise DatasetError("sequence_length must be positive")

    @property
    def clip_shape(self) -> tuple[int, int, int, int]:
        """The (T, H, W, C) shape of the clips this config produces."""
        return (self.sequence_length, self.target_height, self.target_width, self.channels)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ClipSample:
    """One preprocessed clip: float32 frames (L, H, W, C) in [0, 1]."""

    frames: np.ndarray
    label_index: int
    clip_id: str


@dataclass
class DatasetManifest:
    """A labeled, split clip collection. Class names are sorted folder names."""

    class_names: list[str]
    train: list[ClipSample] = field(default_factory=list)
    eval: list[ClipSample] = field(default_factory=list)
    seed: int = 0


# ---------------------------------------------------------------------------
# Netpbm decoding / encoding
# ---------------------------------------------------------------------------


# Magic, then width, height and maxval as ASCII digits, each ended by one
# whitespace byte; whitespace and '#' comment lines may sit between them.
# The byte after maxval is the last of the header.
_SEP = rb"(?:\s|#[^\n]*\n)*"
_HEADER = re.compile(rb"P[56]" + _SEP + rb"(\d+)\s" + _SEP + rb"(\d+)\s" + _SEP + rb"(\d+)\s")


def decode_netpbm(data: bytes) -> np.ndarray:
    """Decode binary PGM/PPM bytes to a uint8 array (H, W, 1) or (H, W, 3).

    The magic must be followed by whitespace or a comment, and the header
    numbers must be plain ASCII digits.
    """
    after = data[2:3]
    if data[:2] not in (b"P5", b"P6") or not (after.isspace() or after == b"#"):
        raise DatasetError(f"bad netpbm magic {data[:3]!r}")
    channels = 1 if data[:2] == b"P5" else 3
    header = _HEADER.match(data)
    if header is None:
        raise DatasetError("bad or truncated netpbm header")
    width, height, maxval = (int(g) for g in header.groups())
    if width < 1 or height < 1:
        raise DatasetError(f"bad netpbm extents {width}x{height}")
    if maxval != 255:
        raise DatasetError(f"unsupported netpbm maxval {maxval} (need 255)")
    need = width * height * channels
    payload = data[header.end() : header.end() + need]
    if len(payload) < need:
        raise DatasetError(
            f"truncated netpbm payload: need {need} bytes, have {len(payload)}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels).copy()


def encode_pgm(gray: np.ndarray) -> bytes:
    """Encode a uint8 (H, W) or (H, W, 1) array as binary PGM."""
    arr = np.asarray(gray, dtype=np.uint8)
    if arr.ndim == 3:
        arr = arr[:, :, 0]
    h, w = arr.shape
    return b"P5\n%d %d\n255\n" % (w, h) + arr.tobytes()


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------


def _resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample with half-pixel centers: src = (dst+0.5)*in/out - 0.5."""
    in_h, in_w = img.shape[:2]
    if (in_h, in_w) == (out_h, out_w):
        return img.astype(np.float64)

    def axis_coords(out_n, in_n):
        src = (np.arange(out_n, dtype=np.float64) + 0.5) * (in_n / out_n) - 0.5
        src = np.clip(src, 0.0, in_n - 1.0)
        lo = np.floor(src).astype(np.int64)
        hi = np.minimum(lo + 1, in_n - 1)
        frac = src - lo
        return lo, hi, frac

    y0, y1, fy = axis_coords(out_h, in_h)
    x0, x1, fx = axis_coords(out_w, in_w)
    img = img.astype(np.float64)
    fy = fy[:, None, None]
    fx = fx[None, :, None]
    top = img[y0][:, x0] * (1 - fx) + img[y0][:, x1] * fx
    bot = img[y1][:, x0] * (1 - fx) + img[y1][:, x1] * fx
    return top * (1 - fy) + bot * fy


def preprocess_frame(image: np.ndarray, cfg: PreprocessConfig) -> np.ndarray:
    """uint8 frame -> float32 (H, W, C) in [0, 1] per the config.

    Color input with channels=1 collapses through integer-rounded luma
    (0.299 R + 0.587 G + 0.114 B); gray input with channels=3 replicates.
    """
    arr = np.asarray(image)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.shape[2] not in (1, 3):
        raise DatasetError(f"frame must be (H, W, 1|3), got {arr.shape}")
    if cfg.channels == 1 and arr.shape[2] == 3:
        luma = 0.299 * arr[:, :, 0] + 0.587 * arr[:, :, 1] + 0.114 * arr[:, :, 2]
        arr = np.rint(luma).astype(np.uint8)[:, :, None]
    elif cfg.channels == 3 and arr.shape[2] == 1:
        arr = np.repeat(arr, 3, axis=2)
    resized = _resize_bilinear(arr, cfg.target_height, cfg.target_width)
    return (resized / 255.0).astype(np.float32)


def normalize_sequence(frames, length: int) -> np.ndarray:
    """Force a clip to exactly ``length`` frames.

    ``frames`` is a list of (H, W, C) frames or one (T, H, W, C) array.
    Longer clips are subsampled at indices floor(k*T/L); shorter clips
    repeat the final frame. Applying this twice equals applying it once.
    """
    t = len(frames)
    if t == 0:
        raise DatasetError("empty clip")
    if len({np.shape(f) for f in frames}) > 1:
        raise DatasetError("clip frames differ in shape")
    (length,) = _integers((length,), "sequence length", DatasetError)
    if length < 1:
        raise DatasetError(f"sequence length must be at least 1, got {length}")
    if t == length:
        picked = frames
    elif t > length:
        picked = [frames[(k * t) // length] for k in range(length)]
    else:
        picked = list(frames) + [frames[-1]] * (length - t)
    return np.stack(picked, axis=0)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

_FRAME_SUFFIXES = (".pgm", ".ppm")
_TRAIN_SHARE = 0.8


def _list_dir(path: str, what: str, suffixes: tuple | None = None) -> list[str]:
    """Sorted names of the subdirectories of ``path``, or of its entries that
    end in one of ``suffixes`` in any case. Raises DatasetError naming
    ``path`` if it cannot be listed."""
    try:
        names = os.listdir(path)
    except OSError as exc:
        raise DatasetError(f"cannot list {what} {path}: {exc}") from exc
    if suffixes is None:
        return sorted(n for n in names if os.path.isdir(os.path.join(path, n)))
    return sorted(n for n in names if n.lower().endswith(suffixes))


def load_clip(clip_dir: str, cfg: PreprocessConfig) -> np.ndarray:
    """Decode and preprocess one clip directory to (L, H, W, C) float32."""
    names = _list_dir(clip_dir, "clip directory", _FRAME_SUFFIXES)
    if not names:
        raise DatasetError(f"clip {clip_dir} has no decodable frames")
    frames = []
    for name in names:
        path = os.path.join(clip_dir, name)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise DatasetError(f"unreadable frame {path}: {exc}") from exc
        try:
            frames.append(preprocess_frame(decode_netpbm(raw), cfg))
        except DatasetError as exc:
            raise DatasetError(f"frame {path}: {exc}") from exc
    return normalize_sequence(frames, cfg.sequence_length)


def load_dataset(root_dir: str, cfg: PreprocessConfig, seed: int = 0) -> DatasetManifest:
    """Load ``root/<label>/<clip_id>/frames`` into a stratified split.

    Per class, clip order is shuffled by a seeded stream and the first
    floor(_TRAIN_SHARE * n) clips go to train. Class names are the label
    folder names, sorted; results are deterministic for fixed (contents,
    seed).
    """
    (seed,) = _integers((seed,), "seed", DatasetError)
    class_names = _list_dir(root_dir, "dataset root")
    if not class_names:
        raise DatasetError(f"no class folders under {root_dir}")
    manifest = DatasetManifest(class_names=class_names, seed=seed)
    rng = Rng(seed)
    for label_index, label in enumerate(class_names):
        class_dir = os.path.join(root_dir, label)
        clip_ids = _list_dir(class_dir, "class folder")
        if not clip_ids:
            raise DatasetError(f"class folder {class_dir} has no clips")
        rng.shuffle(clip_ids)
        n_train = int(_TRAIN_SHARE * len(clip_ids))
        for pos, clip_id in enumerate(clip_ids):
            frames = load_clip(os.path.join(class_dir, clip_id), cfg)
            sample = ClipSample(frames, label_index, f"{label}/{clip_id}")
            (manifest.train if pos < n_train else manifest.eval).append(sample)
    return manifest


# ---------------------------------------------------------------------------
# Synthetic gesture corpus
# ---------------------------------------------------------------------------

MOTION_PATTERNS = (
    "sweep_right",
    "sweep_left",
    "sweep_down",
    "circle",
    "zigzag",
    "sweep_up",
    "circle_reverse",
    "diagonal",
)


# Signs (dy, dx) of the straight-line motions: the blob crosses its span
# along each axis whose sign is not 0, in that sign's direction.
_LINES = {"sweep_right": (0, 1), "sweep_left": (0, -1), "sweep_down": (1, 0),
          "sweep_up": (-1, 0), "diagonal": (1, 1)}
# Sign of each circle's turning angle.
_TURNS = {"circle": 1, "circle_reverse": -1}


def _trajectory(pattern: str, phase: float, h: int, w: int, jx: float, jy: float,
                spin: float) -> tuple[float, float]:
    """Center (y, x) of the moving blob at clip phase in [0, 1]."""
    cy, cx = h / 2.0 + jy, w / 2.0 + jx
    span_y, span_x = h * 0.32, w * 0.32
    if pattern in _LINES:
        dy, dx = _LINES[pattern]
        return (cy - dy * span_y + 2 * dy * span_y * phase,
                cx - dx * span_x + 2 * dx * span_x * phase)
    if pattern in _TURNS:
        a = _TURNS[pattern] * 2 * np.pi * (phase + spin)
        return cy + span_y * np.sin(a), cx + span_x * np.cos(a)
    if pattern == "zigzag":
        tri = abs((phase * 3.0) % 2.0 - 1.0)  # three half-cycles
        return cy - span_y + 2 * span_y * tri, cx - span_x + 2 * span_x * phase
    raise DatasetError(f"unknown motion pattern {pattern!r}")


# Peak amplitude of the per-frame background noise floor (uint8 levels).
_NOISE_LEVELS = 48


def _render_frame(h: int, w: int, cy: float, cx: float, radius: float,
                  rng: Rng) -> np.ndarray:
    yy, xx = np.ogrid[:h, :w]
    mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius * radius
    noise = (rng.uniforms(h * w) * _NOISE_LEVELS).astype(np.uint8).reshape(h, w)
    frame = noise
    frame[mask] = 255
    return frame


def generate_synthetic(
    out_dir: str,
    num_classes: int,
    clips_per_class: int,
    frames: int = 35,
    size: tuple[int, int] = (64, 64),
    seed: int = 0,
) -> int:
    """Write a separable moving-blob corpus; returns the clip count.

    Each class is one motion pattern; per-clip jitter (start offset, speed,
    blob radius, circle phase) comes from a seeded stream, so identical
    arguments produce bit-identical files.
    """
    num_classes, clips_per_class, frames, seed = _integers(
        (num_classes, clips_per_class, frames, seed),
        "num_classes, clips_per_class, frames and seed", DatasetError)
    h, w = _integers(size, "size", DatasetError)
    if not 1 <= num_classes <= len(MOTION_PATTERNS):
        raise DatasetError(
            f"num_classes must lie in [1, {len(MOTION_PATTERNS)}], got {num_classes}"
        )
    if clips_per_class < 1 or frames < 1:
        raise DatasetError("clips_per_class and frames must be positive")
    rng = Rng(seed)
    written = 0
    for pattern in MOTION_PATTERNS[:num_classes]:
        for clip_index in range(clips_per_class):
            jx = (rng.uniform() * 2 - 1) * w * 0.10
            jy = (rng.uniform() * 2 - 1) * h * 0.10
            speed = 0.75 + rng.uniform() * 0.5
            spin = rng.uniform()
            radius = h * (0.08 + rng.uniform() * 0.04)
            clip_dir = os.path.join(out_dir, pattern, f"clip_{clip_index:03d}")
            os.makedirs(clip_dir, exist_ok=True)
            for k in range(frames):
                phase = min(1.0, (k / max(frames - 1, 1)) * speed)
                cy, cx = _trajectory(pattern, phase, h, w, jx, jy, spin)
                cy = float(np.clip(cy, radius, h - 1 - radius))
                cx = float(np.clip(cx, radius, w - 1 - radius))
                frame = _render_frame(h, w, cy, cx, radius, rng)
                path = os.path.join(clip_dir, f"frame_{k:03d}.pgm")
                with open(path, "wb") as fh:
                    fh.write(encode_pgm(frame))
            written += 1
    return written
