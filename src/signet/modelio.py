"""Versioned, bit-exact model files (SLM1).

File layout::

    bytes 0..3   magic "SLM1"
    bytes 4..7   header length, unsigned 32-bit little-endian
    header       UTF-8 JSON (sorted keys, no whitespace)
    padding      zero bytes to the next multiple of 8 from file start
    payload      concatenated little-endian float32 tensor blobs

The header carries format_version, architecture id, input shape, class
names, preprocessing config, layer configs, a tensor table of
{name, shape, offset, length} with offsets relative to the payload start
and aligned to 8 bytes, and a checksum of the payload. A loaded model is
therefore self-describing: prediction needs nothing beyond the file.
Saving the same model twice produces identical bytes.

``save_model`` writes format version 2, whose ``payload_sha256`` is the
sha256 hex digest of the payload, and ``load_model`` reads only that
version. Every other version is an ``UnsupportedVersionError``; version 1,
the format before sha256, is no longer read.

Why sha256 over crc32: ``zlib.crc32`` runs about three times faster, but
its 32 bits would let one random corruption in 2^32 through, where sha256
misses one in 2^256 and has no known structure that rearranged or
adversarial bytes could use.

One function, ``_header``, decides every header field but the checksum
from the model spec, the preprocess config and the class names, and the
preprocess config must produce clips of the spec's input shape. One
function, ``_prefix``, encodes a header as every byte before the payload:
the magic, the length, the JSON and the padding. ``save_model`` writes
``_prefix`` of its header, then the payload. ``load_model`` rebuilds the
spec from the five fields the builders read, and accepts a file only if
every byte before its payload is what ``save_model`` writes for the
rebuilt model, the file's own checksum value included. So it loads exactly
the files ``save_model`` writes. Every rejection is a
``ModelFormatError``: bytes before the payload that differ refine it to
``IncompatibleModelError``, and a checksum that does not match the
payload, a malformed checksum string included, to ``ChecksumError``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import secrets
import struct

import numpy as np

from . import models, nn
from .data import PreprocessConfig
from .models import ModelSpec
from .nn import ParameterStore
from .tensor import NonFiniteError, Tensor

__all__ = [
    "ModelFormatError",
    "BadMagicError",
    "UnsupportedVersionError",
    "TruncatedPayloadError",
    "ChecksumError",
    "IncompatibleModelError",
    "IncompleteParamsError",
    "save_model",
    "load_model",
]

MAGIC = b"SLM1"
FORMAT_VERSION = 2


class ModelFormatError(ValueError):
    """Base error for unreadable or inconsistent model files."""


class BadMagicError(ModelFormatError):
    """Not a model file."""


class UnsupportedVersionError(ModelFormatError):
    pass


class TruncatedPayloadError(ModelFormatError):
    pass


class ChecksumError(ModelFormatError):
    pass


class IncompatibleModelError(ModelFormatError):
    """Header disagrees with the architecture builder."""


class IncompleteParamsError(ModelFormatError):
    """Parameter store does not cover the model's parameter plan."""


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_list(v) -> bool:
    return isinstance(v, list) and all(_is_int(x) for x in v)


_CHECKSUM_KEY = "payload_sha256"


def _checksum(payload) -> str:
    return hashlib.sha256(payload).hexdigest()


def _header(
    spec: ModelSpec, preprocess: PreprocessConfig, class_names: list[str]
) -> tuple[dict, list[nn.ParamPlan]]:
    """Every header field but the checksum, and the parameter plans.

    The preprocess config's (sequence_length, target_height, target_width,
    channels) must be the integers of the input shape. The tensor table
    places each plan's float32 blob at the first multiple of 8 bytes after
    the previous blob.
    """
    fitted = list(preprocess.clip_shape)
    if fitted != list(spec.input_shape) or not _is_int_list(fitted):
        raise IncompatibleModelError(
            f"preprocess config {preprocess.to_dict()} does not fit input shape {spec.input_shape}"
        )
    _, plans = nn.trace_layers(spec.layers, spec.input_shape)
    table = []
    offset = 0
    for plan in plans:
        length = 4 * math.prod(plan.shape)
        table.append({"name": plan.name, "shape": list(plan.shape), "offset": offset,
                      "length": length})
        offset = _align8(offset + length)
    header = {
        "format_version": FORMAT_VERSION,
        "architecture": spec.architecture,
        "input_shape": list(spec.input_shape),
        "num_classes": spec.num_classes,
        "class_names": list(class_names),
        "feature_extractor_trainable": spec.feature_extractor_trainable,
        "preprocess": preprocess.to_dict(),
        "layers": [cfg.to_dict() for cfg in spec.layers],
        "tensors": table,
    }
    return header, plans


def _payload_size(table: list[dict]) -> int:
    return table[-1]["offset"] + table[-1]["length"] if table else 0


def _prefix(header: dict) -> bytes:
    """Every byte of a file before its payload: the magic, the header length,
    the header as sorted, unspaced UTF-8 JSON, and zero bytes to the next
    multiple of 8."""
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    prefix = MAGIC + struct.pack("<I", len(text)) + text
    return prefix + bytes(_align8(len(prefix)) - len(prefix))


def save_model(
    spec: ModelSpec,
    params: ParameterStore,
    preprocess: PreprocessConfig,
    class_names: list[str],
    path: str,
) -> None:
    """Write a format-version-2 SLM1 file; byte-identical output for
    identical inputs.

    The file appears at ``path`` whole or not at all: it is written to a
    temporary file in the same directory and renamed over ``path``.

    Raises ``IncompleteParamsError`` if the class names or parameters do not
    cover the model, and ``IncompatibleModelError`` if the preprocess config
    does not produce clips of the model's input shape.
    """
    if len(class_names) != spec.num_classes:
        raise IncompleteParamsError(
            f"{len(class_names)} class names for a {spec.num_classes}-class model"
        )
    header, plans = _header(spec, preprocess, class_names)
    payload = bytearray(_payload_size(header["tensors"]))
    for entry, plan in zip(header["tensors"], plans):
        if plan.name not in params:
            raise IncompleteParamsError(f"missing parameter {plan.name!r}")
        t = params[plan.name]
        if t.shape != plan.shape:
            raise IncompleteParamsError(
                f"parameter {plan.name!r} has shape {t.shape}, expected {plan.shape}"
            )
        payload[entry["offset"] : entry["offset"] + entry["length"]] = t.data.astype("<f4").tobytes()
    header[_CHECKSUM_KEY] = _checksum(payload)

    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(_prefix(header))
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_model(path: str) -> tuple[ModelSpec, ParameterStore, PreprocessConfig, list[str]]:
    """Read an SLM1 file back into (spec, params, preprocess, class_names).

    Checks the magic and the format version (``FORMAT_VERSION`` only), then
    reads the five header fields the builders read and rebuilds the model
    from them. The one rule for the header: every byte before the payload
    must be what ``save_model`` writes for that model, its preprocess config
    and its class names, with the file's own checksum value, or the file is
    rejected with ``IncompatibleModelError``. The tensors are read at the
    offsets of that header. Then the payload must be long enough, match its
    sha256 (which every file must carry) or raise ``ChecksumError``, and
    hold only finite weights. Every rejection
    is a ``ModelFormatError``; a file that cannot be read raises ``OSError``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8 or data[:4] != MAGIC:
        raise BadMagicError(f"{path}: not a model file")
    (header_len,) = struct.unpack("<I", data[4:8])
    if len(data) < 8 + header_len:
        raise TruncatedPayloadError(f"{path}: header extends past end of file")
    try:
        header = json.loads(data[8 : 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ModelFormatError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise ModelFormatError(f"{path}: header is not a JSON object")

    version = header.get("format_version")
    if not _is_int(version) or version != FORMAT_VERSION:
        hint = "; version 1 is no longer read: retrain, or re-save the model with an older checkout"
        raise UnsupportedVersionError(f"{path}: unsupported format version {version!r}"
                                      f"{hint if _is_int(version) and version == 1 else ''}")

    try:
        spec = models.build(
            str(header["architecture"]),
            tuple(int(n) for n in header["input_shape"]),
            int(header["num_classes"]),
            feature_extractor_trainable=bool(header["feature_extractor_trainable"]),
        )
        class_names = [str(c) for c in header["class_names"]]
        preprocess = PreprocessConfig(**header["preprocess"])
        expected, plans = _header(spec, preprocess, class_names)
        prefix = _prefix({**expected, _CHECKSUM_KEY: header.get(_CHECKSUM_KEY)})
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise IncompatibleModelError(f"{path}: header rejected by the builders: {exc!r}") from exc
    if len(class_names) != spec.num_classes:
        raise IncompatibleModelError(
            f"{path}: {len(class_names)} class names for {spec.num_classes} classes"
        )
    if not data.startswith(prefix):
        raise IncompatibleModelError(
            f"{path}: header differs from the one save_model writes for this "
            f"{spec.architecture} model"
        )

    payload = memoryview(data)[len(prefix) :]
    table = expected["tensors"]
    if len(payload) < _payload_size(table):
        raise TruncatedPayloadError(f"{path}: payload too short for its tensor table")
    if _checksum(payload) != header[_CHECKSUM_KEY]:
        raise ChecksumError(f"{path}: payload checksum mismatch")

    store = ParameterStore()
    for entry, plan in zip(table, plans):
        raw = payload[entry["offset"] : entry["offset"] + entry["length"]]
        try:
            t = Tensor(np.frombuffer(raw, dtype="<f4").reshape(plan.shape).astype(np.float32))
        except NonFiniteError as exc:
            raise ModelFormatError(f"{path}: tensor {plan.name!r} holds non-finite values") from exc
        store.add(plan.name, t, trainable=plan.trainable)
    return spec, store, preprocess, class_names
