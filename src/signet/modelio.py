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
and aligned to 8 bytes, and a 64-bit FNV-1a checksum of the payload. A
loaded model is therefore self-describing: prediction needs nothing
beyond the file. Saving the same model twice produces identical bytes.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from . import models, nn
from .data import PreprocessConfig
from .models import ModelSpec
from .nn import LayerConfig, ParameterStore
from .tensor import Tensor

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
FORMAT_VERSION = 1


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


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for chunk_start in range(0, len(data), 1 << 16):
        for b in data[chunk_start : chunk_start + (1 << 16)]:
            h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_list(v) -> bool:
    return isinstance(v, list) and all(_is_int(x) for x in v)


def _is_tensor_entry(e) -> bool:
    return (
        isinstance(e, dict)
        and isinstance(e.get("name"), str)
        and _is_int_list(e.get("shape"))
        and _is_int(e.get("offset"))
        and _is_int(e.get("length"))
    )


# Required header fields and their JSON types, checked before any is used.
_HEADER_FIELDS = {
    "architecture": lambda v: isinstance(v, str),
    "input_shape": _is_int_list,
    "num_classes": _is_int,
    "class_names": lambda v: isinstance(v, list) and all(isinstance(c, str) for c in v),
    "preprocess": lambda v: isinstance(v, dict),
    "layers": lambda v: isinstance(v, list) and all(isinstance(d, dict) for d in v),
    "tensors": lambda v: isinstance(v, list) and all(_is_tensor_entry(e) for e in v),
}


def save_model(
    spec: ModelSpec,
    params: ParameterStore,
    preprocess: PreprocessConfig,
    class_names: list[str],
    path: str,
) -> None:
    """Write an SLM1 file; byte-identical output for identical inputs."""
    if len(class_names) != spec.num_classes:
        raise IncompleteParamsError(
            f"{len(class_names)} class names for a {spec.num_classes}-class model"
        )
    _, plans = nn.trace_layers(spec.layers, spec.input_shape)
    blobs = []
    table = []
    offset = 0
    for plan in plans:
        if plan.name not in params:
            raise IncompleteParamsError(f"missing parameter {plan.name!r}")
        t = params[plan.name]
        if t.shape != plan.shape:
            raise IncompleteParamsError(
                f"parameter {plan.name!r} has shape {t.shape}, expected {plan.shape}"
            )
        blob = np.ascontiguousarray(t.data.astype("<f4")).tobytes()
        table.append(
            {
                "name": plan.name,
                "shape": list(plan.shape),
                "offset": offset,
                "length": len(blob),
            }
        )
        blobs.append(blob)
        offset = _align8(offset + len(blob))

    payload = bytearray()
    for entry, blob in zip(table, blobs):
        payload.extend(b"\x00" * (entry["offset"] - len(payload)))
        payload.extend(blob)
    payload = bytes(payload)

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
        "payload_checksum_fnv1a64": f"{_fnv1a64(payload):016x}",
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    prefix_len = len(MAGIC) + 4 + len(header_bytes)
    pad = _align8(prefix_len) - prefix_len

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(b"\x00" * pad)
        fh.write(payload)


def load_model(path: str) -> tuple[ModelSpec, ParameterStore, PreprocessConfig, list[str]]:
    """Read an SLM1 file back into (spec, params, preprocess, class_names).

    Validates magic, version, the JSON types of the header fields, table
    bounds, the payload checksum, and agreement between the stored layer
    configs and the architecture builder's output. Rejected contents raise
    a ``ModelFormatError``; a file that cannot be read raises ``OSError``.
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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise ModelFormatError(f"{path}: header is not a JSON object")

    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"{path}: unsupported format version {version!r}")

    payload_start = _align8(8 + header_len)
    payload = data[payload_start:]

    for key, valid in _HEADER_FIELDS.items():
        if key not in header:
            raise ModelFormatError(f"{path}: header missing {key!r}")
        if not valid(header[key]):
            raise ModelFormatError(f"{path}: header field {key!r} has the wrong type")
    if not isinstance(header.get("feature_extractor_trainable", False), bool):
        raise ModelFormatError(f"{path}: header field 'feature_extractor_trainable' is not a bool")

    try:
        spec = models.build(
            header["architecture"],
            tuple(header["input_shape"]),
            header["num_classes"],
            feature_extractor_trainable=header.get("feature_extractor_trainable", False),
        )
        stored_layers = [LayerConfig.from_dict(d) for d in header["layers"]]
        preprocess = PreprocessConfig.from_dict(header["preprocess"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise IncompatibleModelError(f"{path}: header rejected by the builders: {exc}") from exc
    if [cfg.to_dict() for cfg in stored_layers] != [cfg.to_dict() for cfg in spec.layers]:
        raise IncompatibleModelError(
            f"{path}: stored layer configs do not match the {spec.architecture} builder"
        )
    class_names = list(header["class_names"])
    if len(class_names) != spec.num_classes:
        raise IncompatibleModelError(
            f"{path}: {len(class_names)} class names for {spec.num_classes} classes"
        )

    _, plans = nn.trace_layers(spec.layers, spec.input_shape)
    table = header["tensors"]
    if [e["name"] for e in table] != [p.name for p in plans]:
        raise IncompatibleModelError(f"{path}: tensor table does not match the parameter plan")

    prev_end = 0
    for entry, plan in zip(table, plans):
        if tuple(entry["shape"]) != plan.shape:
            raise IncompatibleModelError(
                f"{path}: tensor {plan.name!r} has shape {entry['shape']}, expected {plan.shape}"
            )
        off, length = entry["offset"], entry["length"]
        expected_len = 4 * int(np.prod(plan.shape, dtype=np.int64))
        if off % 8 != 0 or off < prev_end or length != expected_len:
            raise ModelFormatError(f"{path}: bad tensor table entry for {plan.name!r}")
        if off + length > len(payload):
            raise TruncatedPayloadError(
                f"{path}: payload too short for tensor {plan.name!r}"
            )
        prev_end = off + length

    checksum = header.get("payload_checksum_fnv1a64")
    if checksum is not None and f"{_fnv1a64(payload):016x}" != checksum:
        raise ChecksumError(f"{path}: payload checksum mismatch")

    store = ParameterStore()
    for entry, plan in zip(table, plans):
        raw = payload[entry["offset"] : entry["offset"] + entry["length"]]
        arr = np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(plan.shape)
        store.add(plan.name, Tensor(arr.copy(), requires_grad=True), trainable=plan.trainable)
    return spec, store, preprocess, class_names
