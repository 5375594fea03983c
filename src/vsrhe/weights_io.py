"""Portable network weight file.

Layout (little-endian throughout):

    bytes 0..8    magic "VSRHEW01"
    bytes 8..72   checksum field: CRC-32 of the header bytes as a u32,
                  zero-padded to 64 bytes
    bytes 72..76  u32 header length
    header        UTF-8 JSON: {"config": {...}, "note": str,
                  "tensors": [{"name", "dtype": "f32", "shape", "offset"}]}
    payload       raw float32 tensor bytes at the directory offsets
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import BinaryIO

import numpy as np

from .network import NetworkConfig, validate_weights, weight_shapes

__all__ = ["save_weights", "load_weights", "MAGIC"]

MAGIC = b"VSRHEW01"
_CHECKSUM_FIELD = 64

# Recorded in every file so readers know which layer design produced the
# tensor names: this toolkit's stand-in of pre-norm windowed MHSA + GELU MLP
# with per-layer window sizes, block fusion conv and block residual.
_NOTE = ("layer internals: pre-norm windowed multi-head self-attention with "
         "GELU MLP, per-layer window sizes, block-level fusion conv and "
         "residual; no positional bias, no shifted windows")


def save_weights(weights: dict, cfg: NetworkConfig, sink: BinaryIO) -> None:
    """Serialize a validated weight map; bit-exact round trip with load."""
    validate_weights(weights, cfg)
    directory = []
    offset = 0
    order = list(weight_shapes(cfg))
    for name in order:
        t = weights[name]
        directory.append({"name": name, "dtype": "f32",
                          "shape": list(t.shape), "offset": offset})
        offset += t.nbytes
    header = json.dumps({"config": cfg.to_dict(), "note": _NOTE,
                         "tensors": directory}).encode("utf-8")
    checksum = struct.pack("<I", zlib.crc32(header)).ljust(_CHECKSUM_FIELD, b"\0")
    sink.write(MAGIC)
    sink.write(checksum)
    sink.write(struct.pack("<I", len(header)))
    sink.write(header)
    for name in order:
        sink.write(np.ascontiguousarray(weights[name], dtype=np.float32).tobytes())


def load_weights(source: BinaryIO):
    """Read a weight file; returns (weights, config).

    The config is always the one embedded in the file, and every tensor name
    and shape is validated against it; nothing is returned on failure.
    """
    magic = source.read(len(MAGIC))
    if magic != MAGIC:
        raise ValueError(f"bad weight file magic {magic!r}, expected {MAGIC!r}")
    checksum_field = source.read(_CHECKSUM_FIELD)
    if len(checksum_field) != _CHECKSUM_FIELD:
        raise ValueError("truncated weight file: checksum field incomplete")
    (stored_crc,) = struct.unpack("<I", checksum_field[:4])
    len_bytes = source.read(4)
    if len(len_bytes) != 4:
        raise ValueError("truncated weight file: missing header length")
    (header_len,) = struct.unpack("<I", len_bytes)
    header = source.read(header_len)
    if len(header) != header_len:
        raise ValueError("truncated weight file: header incomplete")
    if zlib.crc32(header) != stored_crc:
        raise ValueError("weight file header checksum mismatch")
    meta = json.loads(header.decode("utf-8"))
    try:
        cfg = NetworkConfig.from_dict(meta["config"])
        directory = [(e["name"], e["dtype"], tuple(e["shape"]), e["offset"])
                     for e in meta["tensors"]]
    except KeyError as e:
        raise ValueError(f"weight file header is missing key {e}") from None
    except TypeError as e:
        raise ValueError(f"malformed weight file header: {e}") from None

    payload = source.read()
    weights = {}
    for name, dtype, shape, start in directory:
        if dtype != "f32":
            raise ValueError(f"tensor {name!r} has unsupported dtype {dtype!r}")
        count = int(np.prod(shape)) if shape else 1
        end = start + count * 4
        if end > len(payload):
            raise ValueError(f"truncated weight file: tensor {name!r} payload incomplete")
        weights[name] = np.frombuffer(payload[start:end],
                                      dtype="<f4").reshape(shape).copy()
    validate_weights(weights, cfg)
    return weights, cfg
