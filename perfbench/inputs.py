"""Seeded benchmark inputs, written as netpbm files in the dataset layout.

The generator is numpy's PCG64, owned by the benchmark, so a change to the
program's own ``Rng`` or synthetic corpus cannot change what a seed yields.
``digest`` hashes every generated file, so two commits can be shown to have
read identical inputs.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

# One motion per class: (dy, dx) of the blob's sweep across the frame.
MOTIONS = {
    "sweep_down": (1, 0),
    "sweep_left": (0, -1),
    "sweep_right": (0, 1),
    "sweep_up": (-1, 0),
}
CLASS_NAMES = sorted(MOTIONS)

_NOISE_LEVELS = 48


def _blob_clip(rng: np.random.Generator, frames: int, height: int, width: int,
               motion: tuple[int, int]) -> np.ndarray:
    """uint8 (frames, height, width): a bright disc sweeping over noise."""
    dy, dx = motion
    radius = min(height, width) * rng.uniform(0.08, 0.12)
    speed = rng.uniform(0.75, 1.25)
    cy0 = height * (0.5 + rng.uniform(-0.1, 0.1) - 0.3 * dy)
    cx0 = width * (0.5 + rng.uniform(-0.1, 0.1) - 0.3 * dx)
    yy, xx = np.ogrid[:height, :width]
    clip = rng.integers(0, _NOISE_LEVELS, size=(frames, height, width), dtype=np.uint8)
    for k in range(frames):
        phase = min(1.0, k / max(frames - 1, 1) * speed)
        cy = cy0 + 0.6 * height * dy * phase
        cx = cx0 + 0.6 * width * dx * phase
        clip[k][(yy - cy) ** 2 + (xx - cx) ** 2 <= radius * radius] = 255
    return clip


def _netpbm(frame: np.ndarray) -> bytes:
    """Binary PGM for (H, W), binary PPM for (H, W, 3)."""
    magic = b"P6" if frame.ndim == 3 else b"P5"
    height, width = frame.shape[:2]
    return magic + b"\n%d %d\n255\n" % (width, height) + frame.tobytes()


def _write_clip(clip_dir: str, clip: np.ndarray, colour: bool) -> None:
    os.makedirs(clip_dir)
    suffix = "ppm" if colour else "pgm"
    for k, frame in enumerate(clip):
        if colour:
            # A warm tint, so luma conversion has three distinct channels to mix.
            frame = np.stack([frame, frame * 0.8, frame * 0.6], axis=-1).astype(np.uint8)
        with open(os.path.join(clip_dir, f"frame_{k:03d}.{suffix}"), "wb") as fh:
            fh.write(_netpbm(frame))


def write_corpus(root: str, rng: np.random.Generator, clips_per_class: int,
                 frames: int, height: int, width: int) -> None:
    """Grey training corpus: ``root/<label>/clip_<k>/frame_<i>.pgm``."""
    for label in CLASS_NAMES:
        for k in range(clips_per_class):
            clip = _blob_clip(rng, frames, height, width, MOTIONS[label])
            _write_clip(os.path.join(root, label, f"clip_{k:03d}"), clip, colour=False)


def write_attempts(root: str, rng: np.random.Generator, count: int,
                   frames: int, height: int, width: int) -> list[str]:
    """Camera-like attempts to grade, as colour PPM.

    All are colour, so every request costs the same to load; the training
    corpus is grey. Returns the clip directories in a fixed order.
    """
    dirs = []
    for k in range(count):
        label = CLASS_NAMES[k % len(CLASS_NAMES)]
        clip_dir = os.path.join(root, f"attempt_{k:02d}")
        _write_clip(clip_dir, _blob_clip(rng, frames, height, width, MOTIONS[label]),
                    colour=True)
        dirs.append(clip_dir)
    return dirs


def digest(root: str) -> str:
    """sha256 over every file under ``root``: relative path, then bytes."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()
