"""Raw YCbCr video I/O (Y4M and headerless planar) plus chroma format conversion.

Frames are 8-bit C420 or C444. Y4M streams may be either (other
colorspaces, high-bit-depth tags included, are rejected); headerless
planar YUV is C420 only. Sample quantization everywhere uses
round-half-away-from-zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import BinaryIO

import numpy as np

__all__ = [
    "Frame",
    "VideoSequence",
    "parse_y4m",
    "write_y4m",
    "read_raw_yuv",
    "write_raw_yuv",
    "chroma_upsample_nn",
    "chroma_downsample_mean",
    "to_normalized",
    "from_normalized",
]

C420 = "C420"
C444 = "C444"

# Y4M colorspace tags sharing the C420 sample layout (siting differences
# do not change plane geometry).
_C420_TAGS = {"420", "420jpeg", "420mpeg2", "420paldv"}


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round half away from zero (samples are non-negative here: floor(x+0.5))."""
    return np.floor(np.asarray(x, dtype=np.float64) + 0.5)


@dataclass(frozen=True)
class Frame:
    """One planar YCbCr frame. Planes are uint8, Cb/Cr half-res when C420."""

    y: np.ndarray
    cb: np.ndarray
    cr: np.ndarray
    subsampling: str = C420

    def __post_init__(self):
        if self.subsampling not in (C420, C444):
            raise ValueError(f"unsupported subsampling {self.subsampling!r}")
        for name, plane in (("Y", self.y), ("Cb", self.cb), ("Cr", self.cr)):
            if plane.ndim != 2 or plane.dtype != np.uint8:
                raise ValueError(f"{name} plane must be a 2-D uint8 array")
        h, w = self.y.shape
        if w < 1 or h < 1:
            raise ValueError(f"degenerate frame geometry {w}x{h}")
        if self.subsampling == C420:
            if w % 2 or h % 2:
                raise ValueError(f"C420 requires even dimensions, got {w}x{h}")
            expect = (h // 2, w // 2)
        else:
            expect = (h, w)
        if self.cb.shape != expect or self.cr.shape != expect:
            raise ValueError(
                f"chroma plane shape {self.cb.shape}/{self.cr.shape} "
                f"does not match expected {expect} for {self.subsampling}")

    @property
    def width(self) -> int:
        return self.y.shape[1]

    @property
    def height(self) -> int:
        return self.y.shape[0]


@dataclass
class VideoSequence:
    """Ordered frames of uniform geometry plus container metadata."""

    frames: list
    frame_rate: Fraction = Fraction(25, 1)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.frames:
            f0 = self.frames[0]
            for i, f in enumerate(self.frames):
                if (f.width, f.height, f.subsampling) != (f0.width, f0.height, f0.subsampling):
                    raise ValueError(f"frame {i} geometry differs from frame 0")

    def __len__(self):
        return len(self.frames)


def _frame_bytes(width: int, height: int, subsampling: str) -> int:
    if subsampling == C420:
        return width * height * 3 // 2
    return width * height * 3


def _split_frame(payload: bytes, width: int, height: int, subsampling: str) -> Frame:
    ysz = width * height
    if subsampling == C420:
        cw, ch = width // 2, height // 2
    else:
        cw, ch = width, height
    csz = cw * ch
    y = np.frombuffer(payload, dtype=np.uint8, count=ysz).reshape(height, width)
    cb = np.frombuffer(payload, dtype=np.uint8, count=csz, offset=ysz).reshape(ch, cw)
    cr = np.frombuffer(payload, dtype=np.uint8, count=csz, offset=ysz + csz).reshape(ch, cw)
    return Frame(y=y.copy(), cb=cb.copy(), cr=cr.copy(), subsampling=subsampling)


def parse_y4m(stream: BinaryIO) -> VideoSequence:
    """Parse a Y4M byte stream. Accepts C420 (incl. jpeg/mpeg2 tags) and C444."""
    header = bytearray()
    while True:
        b = stream.read(1)
        if not b:
            raise ValueError("truncated Y4M stream header")
        if b == b"\n":
            break
        header += b
    tokens = header.decode("ascii", errors="replace").split(" ")
    if tokens[0] != "YUV4MPEG2":
        raise ValueError("not Y4M: missing YUV4MPEG2 signature")

    width = height = None
    rate = Fraction(25, 1)
    subsampling = C420
    metadata: dict = {}
    for tok in tokens[1:]:
        if not tok:
            continue
        key, val = tok[0], tok[1:]
        if key == "W":
            width = int(val)
        elif key == "H":
            height = int(val)
        elif key == "F":
            num, den = (int(v) for v in val.split(":"))
            if num < 0 or den < 1:
                raise ValueError(f"invalid Y4M frame rate F{val}")
            rate = Fraction(num, den)
            metadata["F"] = val
        elif key == "C":
            if val in _C420_TAGS:
                subsampling = C420
            elif val == "444":
                subsampling = C444
            else:
                raise ValueError(f"unsupported Y4M colorspace C{val}")
            metadata["C"] = val
        else:
            metadata[key] = val
    if width is None or height is None:
        raise ValueError("Y4M header missing W or H")
    if width < 1 or height < 1:
        raise ValueError(f"degenerate Y4M geometry {width}x{height}")
    if subsampling == C420 and (width % 2 or height % 2):
        raise ValueError(f"C420 stream with odd dimensions {width}x{height}")

    fsize = _frame_bytes(width, height, subsampling)
    frames = []
    while True:
        line = bytearray()
        b = stream.read(1)
        if not b:
            break
        while b != b"\n":
            line += b
            b = stream.read(1)
            if not b:
                raise ValueError(f"truncated FRAME header at frame {len(frames)}")
        if not line.startswith(b"FRAME"):
            raise ValueError(f"expected FRAME marker at frame {len(frames)}")
        payload = stream.read(fsize)
        if len(payload) != fsize:
            raise ValueError(
                f"truncated payload at frame {len(frames)}: "
                f"got {len(payload)} of {fsize} bytes")
        frames.append(_split_frame(payload, width, height, subsampling))
    return VideoSequence(frames=frames, frame_rate=rate, metadata=metadata)


def write_y4m(seq: VideoSequence, sink: BinaryIO) -> None:
    """Write a Y4M stream with canonical header token order W,H,F,I,A,C."""
    if not seq.frames:
        raise ValueError("cannot write Y4M for an empty sequence (no geometry)")
    f0 = seq.frames[0]
    parts = [b"YUV4MPEG2", f"W{f0.width}".encode(), f"H{f0.height}".encode()]
    fval = seq.metadata.get("F", f"{seq.frame_rate.numerator}:{seq.frame_rate.denominator}")
    parts.append(f"F{fval}".encode())
    for key in ("I", "A"):
        if key in seq.metadata:
            parts.append(f"{key}{seq.metadata[key]}".encode())
    cval = seq.metadata.get("C", "420" if f0.subsampling == C420 else "444")
    parts.append(f"C{cval}".encode())
    for key, val in seq.metadata.items():
        if key not in ("F", "I", "A", "C"):
            parts.append(f"{key}{val}".encode())
    sink.write(b" ".join(parts) + b"\n")
    for f in seq.frames:
        sink.write(b"FRAME\n")
        sink.write(f.y.tobytes())
        sink.write(f.cb.tobytes())
        sink.write(f.cr.tobytes())


def read_raw_yuv(stream: BinaryIO, width: int, height: int) -> VideoSequence:
    """Read headerless planar C420 YUV (Y then Cb then Cr per frame)."""
    if width < 1 or height < 1:
        raise ValueError(f"degenerate raw YUV geometry {width}x{height}")
    if width % 2 or height % 2:
        raise ValueError(f"C420 requires even dimensions, got {width}x{height}")
    fsize = _frame_bytes(width, height, C420)
    data = stream.read()
    if len(data) % fsize != 0:
        raise ValueError(
            f"stream length {len(data)} is not a multiple of frame size {fsize} "
            f"({len(data) % fsize} trailing bytes)")
    frames = [_split_frame(data[i * fsize:(i + 1) * fsize], width, height, C420)
              for i in range(len(data) // fsize)]
    return VideoSequence(frames=frames)


def write_raw_yuv(seq: VideoSequence, sink: BinaryIO) -> None:
    for f in seq.frames:
        sink.write(f.y.tobytes())
        sink.write(f.cb.tobytes())
        sink.write(f.cr.tobytes())


def chroma_upsample_nn(f: Frame) -> Frame:
    """C420 -> C444 by replicating each chroma sample into its 2x2 block."""
    if f.subsampling != C420:
        raise ValueError(f"chroma_upsample_nn expects C420 input, got {f.subsampling}")
    cb = np.repeat(np.repeat(f.cb, 2, axis=0), 2, axis=1)
    cr = np.repeat(np.repeat(f.cr, 2, axis=0), 2, axis=1)
    return Frame(y=f.y, cb=cb, cr=cr, subsampling=C444)


def chroma_downsample_mean(f: Frame) -> Frame:
    """C444 -> C420: each output chroma sample is the rounded 2x2 block mean."""
    if f.subsampling != C444:
        raise ValueError(f"chroma_downsample_mean expects C444 input, got {f.subsampling}")
    h, w = f.y.shape
    if w % 2 or h % 2:
        raise ValueError(f"C444->C420 requires even dimensions, got {w}x{h}")

    def pool(p):
        s = p.reshape(h // 2, 2, w // 2, 2).astype(np.float64).mean(axis=(1, 3))
        return round_half_away(s).astype(np.uint8)

    return Frame(y=f.y, cb=pool(f.cb), cr=pool(f.cr), subsampling=C420)


def to_normalized(f: Frame):
    """Planes as float32 tensors in [0,1] (x/255): returns (y, cb, cr)."""
    scale = np.float32(1.0 / 255.0)
    return (f.y.astype(np.float32) * scale,
            f.cb.astype(np.float32) * scale,
            f.cr.astype(np.float32) * scale)


def from_normalized(y, cb, cr, subsampling: str = C444) -> Frame:
    """Inverse of to_normalized: clamp to [0,1], scale to code values, round."""

    def quant(t):
        t = np.clip(np.asarray(t, dtype=np.float64), 0.0, 1.0) * 255.0
        return round_half_away(t).astype(np.uint8)

    return Frame(y=quant(y), cb=quant(cb), cr=quant(cr), subsampling=subsampling)
