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

The checksum runs without a per-byte loop (see ``_fnv1a64``). Only the low
byte of the FNV-1a state is nonlinear, and its 8 bit planes are prefix XORs
taken lowest first. With the low bytes known, the state obeys the linear
recurrence ``h_n = P * (h_(n-1) + d_n) mod 2^64``, summed against a table
of powers of the FNV prime.

One function, ``_header``, decides every header field but the checksum
from the model spec, the preprocess config and the class names, and the
preprocess config must produce clips of the spec's input shape.
``save_model`` writes that header. ``load_model`` rebuilds the spec from
the few fields the builders read and accepts the file only if the stored
header equals ``_header`` of what it rebuilt, so it loads exactly the files
``save_model`` can write.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import secrets
import struct

import numpy as np

from . import models, nn
from .data import PreprocessConfig
from .models import ModelSpec
from .nn import ParameterStore
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


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_CHUNK = 1 << 16
# _POWERS[i] = P^(_CHUNK - i) mod 2^64, so the last n entries are P^n ... P^1.
_POWERS = np.multiply.accumulate(np.full(_CHUNK, _FNV_PRIME, dtype=np.uint64))[::-1].copy()


def _exclusive_prefix_xor(bits: np.ndarray, start: int) -> np.ndarray:
    """``out[i] = start ^ b[0] ^ ... ^ b[i-1]`` as 0/1 uint8, b[j] = (bits[j] != 0).

    The bits are packed into little-endian uint64 words; a shift ladder makes
    each word its own inclusive prefix XOR, and the running parity of the
    earlier words (plus ``start``) flips whole words.
    """
    n = bits.size
    packed = np.zeros(-(-n // 64) * 8, dtype=np.uint8)
    packed[: -(-n // 8)] = np.packbits(bits, bitorder="little")
    words = packed.view("<u8")
    w = words.copy()
    for s in (1, 2, 4, 8, 16, 32):
        w ^= w << np.uint64(s)
    parity = w >> np.uint64(63)
    carry = np.bitwise_xor.accumulate(parity)
    carry ^= parity ^ np.uint64(start)
    w ^= words
    w ^= -carry
    return np.unpackbits(w.view(np.uint8), count=n, bitorder="little")


def _fnv1a64(data) -> int:
    """64-bit FNV-1a of a bytes-like object, ``h = (h ^ b) * P mod 2^64`` per byte.

    Computed 64 KiB at a time without a per-byte loop. The low byte ``l`` of
    the state follows ``l' = ((l ^ b) * 0xB3) mod 256``, so bit k of ``l'`` is
    bit k of ``l`` XOR bit k of ``((l mod 2^k) ^ b) * 0xB3``. Each bit plane
    of the low bytes, lowest first, is therefore one prefix XOR of flips the
    lower planes fix. With every low byte known, ``h ^ b = h + d`` where
    ``d = (l ^ b) - l``, and the state after a chunk of m bytes is the linear
    ``P^m h + sum(P^(m-n+1) d_n) mod 2^64``: one wrapping uint64 dot product
    with ``_POWERS``.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    h = _FNV_OFFSET
    for start in range(0, buf.size, _CHUNK):
        b = buf[start : start + _CHUNK]
        low = np.zeros(b.size, dtype=np.uint8)
        for k in range(8):
            flips = ((low ^ b) * np.uint8(0xB3)) & np.uint8(1 << k)
            low |= _exclusive_prefix_xor(flips, (h >> k) & 1) * np.uint8(1 << k)
        d = np.subtract(low ^ b, low, dtype=np.int16).astype(np.uint64)  # wraps mod 2^64
        powers = _POWERS[_CHUNK - b.size :]
        h = (int(powers[0]) * h + int(np.dot(d, powers))) & _MASK64
    return h


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_list(v) -> bool:
    return isinstance(v, list) and all(_is_int(x) for x in v)


_CHECKSUM = "payload_checksum_fnv1a64"

# The header fields the builders read, and the checksum: their JSON types are
# checked before any is used. Every other field is compared with _header.
_HEADER_FIELDS = {
    "architecture": lambda v: isinstance(v, str),
    "input_shape": _is_int_list,
    "num_classes": _is_int,
    "class_names": lambda v: isinstance(v, list) and all(isinstance(c, str) for c in v),
    "feature_extractor_trainable": lambda v: isinstance(v, bool),
    _CHECKSUM: lambda v: isinstance(v, str) and re.fullmatch("[0-9a-f]{16}", v),
}


def _header(
    spec: ModelSpec, preprocess: PreprocessConfig, class_names: list[str]
) -> tuple[dict, list[nn.ParamPlan]]:
    """Every header field but the checksum, and the parameter plans.

    The preprocess config's (sequence_length, target_height, target_width,
    channels) must be the integers of the input shape. The tensor table
    places each plan's float32 blob at the first multiple of 8 bytes after
    the previous blob.
    """
    fitted = [preprocess.sequence_length, preprocess.target_height,
              preprocess.target_width, preprocess.channels]
    if fitted != list(spec.input_shape) or not _is_int_list(fitted):
        raise IncompatibleModelError(
            f"preprocess config {preprocess.to_dict()} does not fit input shape {spec.input_shape}"
        )
    _, plans = nn.trace_layers(spec.layers, spec.input_shape)
    table = []
    offset = 0
    for plan in plans:
        length = 4 * int(np.prod(plan.shape, dtype=np.int64))
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


def save_model(
    spec: ModelSpec,
    params: ParameterStore,
    preprocess: PreprocessConfig,
    class_names: list[str],
    path: str,
) -> None:
    """Write an SLM1 file; byte-identical output for identical inputs.

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
    header[_CHECKSUM] = f"{_fnv1a64(payload):016x}"
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    prefix_len = len(MAGIC) + 4 + len(header_bytes)
    pad = _align8(prefix_len) - prefix_len

    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(header_bytes)))
            fh.write(header_bytes)
            fh.write(b"\x00" * pad)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_model(path: str) -> tuple[ModelSpec, ParameterStore, PreprocessConfig, list[str]]:
    """Read an SLM1 file back into (spec, params, preprocess, class_names).

    Checks the magic and the format version, then parses the header fields
    the builders read and rebuilds the model from them. The file is accepted
    only if its header, checksum aside, equals the one ``save_model`` writes
    for that model, its preprocess config and its class names; the tensors
    are read at the offsets of that header. Then the payload must be long
    enough, match its checksum (which every file must carry), and hold only
    finite weights. Rejected contents raise a ``ModelFormatError``; a file
    that cannot be read raises ``OSError``.
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
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"{path}: unsupported format version {version!r}")

    for key, valid in _HEADER_FIELDS.items():
        if key not in header:
            raise ModelFormatError(f"{path}: header missing {key!r}")
        if not valid(header[key]):
            raise ModelFormatError(f"{path}: header field {key!r} has the wrong type")

    class_names = header["class_names"]
    try:
        spec = models.build(
            header["architecture"],
            tuple(header["input_shape"]),
            header["num_classes"],
            feature_extractor_trainable=header["feature_extractor_trainable"],
        )
        preprocess = PreprocessConfig.from_dict(header.get("preprocess"))
        expected, plans = _header(spec, preprocess, class_names)
    except (TypeError, ValueError, OverflowError) as exc:
        raise IncompatibleModelError(f"{path}: header rejected by the builders: {exc}") from exc
    if len(class_names) != spec.num_classes:
        raise IncompatibleModelError(
            f"{path}: {len(class_names)} class names for {spec.num_classes} classes"
        )
    if {k: v for k, v in header.items() if k != _CHECKSUM} != expected:
        raise IncompatibleModelError(
            f"{path}: header differs from the one save_model writes for this "
            f"{spec.architecture} model"
        )

    payload = data[_align8(8 + header_len) :]
    table = expected["tensors"]
    if len(payload) < _payload_size(table):
        raise TruncatedPayloadError(f"{path}: payload too short for its tensor table")
    if f"{_fnv1a64(payload):016x}" != header[_CHECKSUM]:
        raise ChecksumError(f"{path}: payload checksum mismatch")

    store = ParameterStore()
    for entry, plan in zip(table, plans):
        raw = payload[entry["offset"] : entry["offset"] + entry["length"]]
        arr = np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(plan.shape)
        if not np.isfinite(arr).all():
            raise ModelFormatError(f"{path}: tensor {plan.name!r} holds non-finite values")
        store.add(plan.name, Tensor(arr), trainable=plan.trainable)
    return spec, store, preprocess, class_names
