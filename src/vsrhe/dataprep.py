"""Training-corpus tooling: paired 64/256 patch extraction, geometric
augmentation, QP-stratified manifests, and the stepwise learning-rate
schedule as a pure function.

Patches are stored post nearest-neighbor chroma upsampling (4:4:4) so the
network input contract is settled at extraction time. Manifests are
line-oriented JSON with a packed `.pak` sidecar holding raw plane bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .frame_io import C444, Frame, VideoSequence, chroma_upsample_nn

__all__ = [
    "PatchPair",
    "Manifest",
    "DEFAULT_QP_LIST",
    "extract_patch_pairs",
    "augment",
    "lr_schedule",
    "write_manifest",
    "read_manifest",
    "load_pair",
]

DEFAULT_QP_LIST = (17, 22, 27, 32, 34, 37)

LR_PATCH = 64
HR_PATCH = 256
_PAIR_BYTES = 3 * LR_PATCH * LR_PATCH + 3 * HR_PATCH * HR_PATCH


@dataclass(frozen=True)
class PatchPair:
    """One training sample: degraded 64x64 and ground-truth 256x256, both C444."""

    lr_patch: Frame
    hr_patch: Frame
    source_id: str
    frame_index: int
    origin: tuple           # (x, y) in LR coordinates
    qp: int
    rotation: int = 0       # number of 90-degree turns applied
    hflip: bool = False
    vflip: bool = False

    def __post_init__(self):
        if self.lr_patch.subsampling != C444 or self.hr_patch.subsampling != C444:
            raise ValueError("patches must be C444")
        if (self.lr_patch.width, self.lr_patch.height) != (LR_PATCH, LR_PATCH):
            raise ValueError(f"LR patch must be {LR_PATCH}x{LR_PATCH}")
        if (self.hr_patch.width, self.hr_patch.height) != (HR_PATCH, HR_PATCH):
            raise ValueError(f"HR patch must be {HR_PATCH}x{HR_PATCH}")
        if self.rotation not in (0, 1, 2, 3):
            raise ValueError(f"rotation must be 0..3, got {self.rotation}")


def _crop(f: Frame, x: int, y: int, size: int) -> Frame:
    return Frame(y=f.y[y:y + size, x:x + size].copy(),
                 cb=f.cb[y:y + size, x:x + size].copy(),
                 cr=f.cr[y:y + size, x:x + size].copy(),
                 subsampling=C444)


def extract_patch_pairs(lr_seq: VideoSequence, hr_seq: VideoSequence,
                        count: int, seed: int, qp_label: int,
                        source_id: str = "") -> list:
    """Uniformly sample aligned 64/256 crops from an LR/HR sequence pair.

    Deterministic for a fixed seed (numpy PCG64).
    """
    if len(lr_seq) != len(hr_seq):
        raise ValueError(
            f"frame counts differ: {len(lr_seq)} LR vs {len(hr_seq)} HR")
    if not lr_seq.frames:
        raise ValueError("empty source sequences")
    lw, lh = lr_seq.frames[0].width, lr_seq.frames[0].height
    hw, hh = hr_seq.frames[0].width, hr_seq.frames[0].height
    if (hw, hh) != (4 * lw, 4 * lh):
        raise ValueError(
            f"HR dimensions {hw}x{hh} are not 4x the LR dimensions {lw}x{lh}")
    if lw < LR_PATCH or lh < LR_PATCH:
        raise ValueError(
            f"LR frames {lw}x{lh} too small for a {LR_PATCH}x{LR_PATCH} crop")

    rng = np.random.Generator(np.random.PCG64(seed))
    lr444: dict = {}
    hr444: dict = {}
    pairs = []
    for _ in range(count):
        fi = int(rng.integers(len(lr_seq)))
        ox = int(rng.integers(lw - LR_PATCH + 1))
        oy = int(rng.integers(lh - LR_PATCH + 1))
        if fi not in lr444:
            lr444[fi] = chroma_upsample_nn(lr_seq.frames[fi])
            hr444[fi] = chroma_upsample_nn(hr_seq.frames[fi])
        pairs.append(PatchPair(
            lr_patch=_crop(lr444[fi], ox, oy, LR_PATCH),
            hr_patch=_crop(hr444[fi], 4 * ox, 4 * oy, HR_PATCH),
            source_id=source_id,
            frame_index=fi,
            origin=(ox, oy),
            qp=qp_label,
        ))
    return pairs


def _transform_plane(p: np.ndarray, rotation: int, hflip: bool, vflip: bool) -> np.ndarray:
    out = np.rot90(p, rotation)
    if hflip:
        out = out[:, ::-1]
    if vflip:
        out = out[::-1, :]
    return np.ascontiguousarray(out)


def _transform_frame(f: Frame, rotation: int, hflip: bool, vflip: bool) -> Frame:
    return Frame(y=_transform_plane(f.y, rotation, hflip, vflip),
                 cb=_transform_plane(f.cb, rotation, hflip, vflip),
                 cr=_transform_plane(f.cr, rotation, hflip, vflip),
                 subsampling=f.subsampling)


def augment(p: PatchPair, rotation: int = 0, hflip: bool = False,
            vflip: bool = False) -> PatchPair:
    """Apply the same rotation/flip to both patch members.

    Provenance fields track the operations applied so far (rotation counts
    add mod 4, flips toggle).
    """
    if rotation not in (0, 1, 2, 3):
        raise ValueError(f"rotation must be 0..3, got {rotation}")
    return replace(
        p,
        lr_patch=_transform_frame(p.lr_patch, rotation, hflip, vflip),
        hr_patch=_transform_frame(p.hr_patch, rotation, hflip, vflip),
        rotation=(p.rotation + rotation) % 4,
        hflip=p.hflip ^ hflip,
        vflip=p.vflip ^ vflip,
    )


def lr_schedule(iteration: int) -> float:
    """Stepwise learning rate: starts at 1e-4, halves at 50k, 100k, 200k
    and 300k iterations."""
    if iteration < 0:
        raise ValueError(f"iteration must be non-negative, got {iteration}")
    rate = 1e-4
    for boundary in (50_000, 100_000, 200_000, 300_000):
        if iteration >= boundary:
            rate /= 2.0
    return rate


@dataclass
class Manifest:
    """Patch-pair locators plus the generation parameters that produced them."""

    header: dict            # kind, version, count, pak file name, patch sizes
    records: list           # one dict per pair with offset into the pak
    pak_path: Path

    def __len__(self):
        return len(self.records)


def write_manifest(pairs: list, manifest_path) -> Manifest:
    """Write JSONL manifest + packed binary sidecar; returns the manifest.

    On any failure the files this call opened are removed again, so no
    partial manifest or sidecar is left behind.
    """
    manifest_path = Path(manifest_path)
    pak_path = manifest_path.with_suffix(".pak")
    header = {
        "kind": "vsrhe-manifest",
        "version": 1,
        "count": len(pairs),
        "pak": pak_path.name,
        "lr_patch": LR_PATCH,
        "hr_patch": HR_PATCH,
    }
    records = []
    opened = []
    try:
        with open(pak_path, "wb") as pak:
            opened.append(pak_path)
            for i, p in enumerate(pairs):
                offset = pak.tell()
                for plane in (p.lr_patch.y, p.lr_patch.cb, p.lr_patch.cr,
                              p.hr_patch.y, p.hr_patch.cb, p.hr_patch.cr):
                    pak.write(plane.tobytes())
                records.append({
                    "index": i,
                    "source_id": p.source_id,
                    "frame_index": p.frame_index,
                    "origin": list(p.origin),
                    "qp": p.qp,
                    "rotation": p.rotation,
                    "hflip": p.hflip,
                    "vflip": p.vflip,
                    "offset": offset,
                })
        with open(manifest_path, "w", encoding="utf-8") as f:
            opened.append(manifest_path)
            f.write(json.dumps(header) + "\n")
            for rec in records:
                f.write(json.dumps(rec) + "\n")
    except BaseException:
        for path in opened:
            path.unlink(missing_ok=True)
        raise
    return Manifest(header=header, records=records, pak_path=pak_path)


def read_manifest(manifest_path) -> Manifest:
    """Read and validate a manifest; every locator must resolve."""
    manifest_path = Path(manifest_path)
    with open(manifest_path, encoding="utf-8") as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty manifest file")
    header = json.loads(lines[0])
    if header.get("kind") != "vsrhe-manifest":
        raise ValueError("not a patch manifest (bad header record)")
    records = [json.loads(ln) for ln in lines[1:]]
    if len(records) != header["count"]:
        raise ValueError(
            f"manifest header declares {header['count']} records, found {len(records)}")
    pak_path = manifest_path.parent / header["pak"]
    pak_size = os.path.getsize(pak_path) if records else 0
    for rec in records:
        if rec["offset"] + _PAIR_BYTES > pak_size:
            raise ValueError(
                f"record {rec['index']} points past the end of {pak_path.name}")
    return Manifest(header=header, records=records, pak_path=pak_path)


def load_pair(manifest: Manifest, index: int) -> PatchPair:
    """Materialize one PatchPair from the packed sidecar."""
    rec = manifest.records[index]
    with open(manifest.pak_path, "rb") as pak:
        pak.seek(rec["offset"])
        data = pak.read(_PAIR_BYTES)
    if len(data) != _PAIR_BYTES:
        raise ValueError(f"record {rec['index']}: truncated pak payload")

    def take(off, size):
        return np.frombuffer(data, dtype=np.uint8, count=size * size,
                             offset=off).reshape(size, size).copy()

    l2 = LR_PATCH * LR_PATCH
    h2 = HR_PATCH * HR_PATCH
    lr = Frame(y=take(0, LR_PATCH), cb=take(l2, LR_PATCH), cr=take(2 * l2, LR_PATCH),
               subsampling=C444)
    hr = Frame(y=take(3 * l2, HR_PATCH), cb=take(3 * l2 + h2, HR_PATCH),
               cr=take(3 * l2 + 2 * h2, HR_PATCH), subsampling=C444)
    return PatchPair(lr_patch=lr, hr_patch=hr, source_id=rec["source_id"],
                     frame_index=rec["frame_index"], origin=tuple(rec["origin"]),
                     qp=rec["qp"], rotation=rec["rotation"], hflip=rec["hflip"],
                     vflip=rec["vflip"])
