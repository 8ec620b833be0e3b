"""Versioned binary checkpoint format.

Layout (all little-endian):
    magic  b"MMTC"                      4 bytes
    version u32                         4 bytes
    header_len u64                      8 bytes
    header JSON (utf-8, sorted keys)    header_len bytes
    tensor payload                      concatenated raw bytes

The header carries config, vocab, precision, metadata, and a tensor index of
{name, dtype, shape, offset, nbytes} with offsets relative to the payload
start. Saving is atomic (reports.publish) and byte-deterministic.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict

import numpy as np

from .model import ModelConfig, TranslationModel
from .reports import publish
from .vocab import Vocab

MAGIC = b"MMTC"
VERSION = 1

_DTYPE_CODE = {np.dtype(np.float32): "f32", np.dtype(np.float16): "f16"}
_CODE_DTYPE = {"f32": np.dtype("<f4"), "f16": np.dtype("<f2")}


class CheckpointError(Exception):
    """Structured load failure; byte_offset points at the first bad byte."""

    def __init__(self, message: str, byte_offset: int | None = None):
        self.byte_offset = byte_offset
        if byte_offset is not None:
            message = f"{message} (at byte {byte_offset})"
        super().__init__(message)


def _vocab_to_json(vocab: Vocab) -> dict:
    return {"tokens": list(vocab.tokens), "language_tags": dict(vocab.language_tags)}


def _vocab_from_json(obj: dict) -> Vocab:
    return Vocab(list(obj["tokens"]), {k: int(v) for k, v in obj["language_tags"].items()})


def checkpoint_bytes(model: TranslationModel) -> bytes:
    """Serialize a model to the exact on-disk byte string."""
    index = []
    offset = 0
    payloads = []
    for name, arr in model.params.items():
        if arr.dtype not in _DTYPE_CODE:
            raise ValueError(f"unsupported tensor dtype {arr.dtype} for {name}")
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        raw = le.tobytes()
        index.append({
            "name": name,
            "dtype": _DTYPE_CODE[arr.dtype],
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(raw),
        })
        payloads.append(raw)
        offset += len(raw)

    header = {
        "config": asdict(model.config),
        "vocab": _vocab_to_json(model.vocab),
        "precision": model.precision,
        "metadata": dict(model.metadata),
        "tensors": index,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    out += struct.pack("<Q", len(header_bytes))
    out += header_bytes
    for raw in payloads:
        out += raw
    return bytes(out)


def save_checkpoint(model: TranslationModel, path) -> str:
    return publish({path: checkpoint_bytes(model)})[0]


def load_checkpoint(path) -> TranslationModel:
    with open(os.fspath(path), "rb") as f:
        blob = f.read()
    return model_from_bytes(blob)


def _read_header(blob: bytes) -> tuple[dict, int]:
    """Check the prefix and parse the header JSON; returns the header and
    the byte offset where the tensor payload starts."""
    if blob[:4] != MAGIC:
        raise CheckpointError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}", byte_offset=0)
    if len(blob) < 16:
        raise CheckpointError("truncated header prefix", byte_offset=len(blob))
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}", byte_offset=4)
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header_end = 16 + header_len
    if len(blob) < header_end:
        raise CheckpointError("truncated header", byte_offset=len(blob))
    try:
        header = json.loads(blob[16:header_end].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"corrupt header JSON: {e}", byte_offset=16) from None
    return header, header_end


def model_from_bytes(blob: bytes) -> TranslationModel:
    header, header_end = _read_header(blob)
    payload = blob[header_end:]
    try:
        config = ModelConfig(**header["config"])
        vocab = _vocab_from_json(header["vocab"])
        params: dict[str, np.ndarray] = {}
        non_finite = []
        for entry in header["tensors"]:
            start, nbytes = entry["offset"], entry["nbytes"]
            if start + nbytes > len(payload):
                raise CheckpointError(
                    f"truncated payload for tensor {entry['name']!r}",
                    byte_offset=header_end + min(start, len(payload)),
                )
            dtype = _CODE_DTYPE[entry["dtype"]]
            arr = np.frombuffer(payload[start:start + nbytes], dtype=dtype)
            arr = arr.reshape(entry["shape"]).astype(dtype.newbyteorder("="), copy=True)
            params[entry["name"]] = arr
            if not np.isfinite(arr).all():
                non_finite.append(entry)
        if non_finite:
            raise CheckpointError(
                f"non-finite weights in tensors: {[e['name'] for e in non_finite]}",
                byte_offset=header_end + non_finite[0]["offset"])
        return TranslationModel(config, vocab, params, header["precision"],
                                header.get("metadata", {}))
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"malformed header: {type(e).__name__}: {e}",
                              byte_offset=16) from None


def parameter_payload_bytes(path) -> int:
    """Total tensor payload size recorded in a checkpoint's index."""
    with open(os.fspath(path), "rb") as f:
        header, _ = _read_header(f.read())
    try:
        return sum(entry["nbytes"] for entry in header["tensors"])
    except (KeyError, TypeError) as e:
        raise CheckpointError(f"malformed header: {type(e).__name__}: {e}",
                              byte_offset=16) from None
