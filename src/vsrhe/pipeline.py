"""Full-frame and full-sequence super-resolution.

Frames are padded (reflect) and tiled into input_size blocks with a small
overlap; each block runs through the network independently, and the 4x
outputs are blended with linear ramps. Blending happens in normalized
float space with a single quantization at the end. Frames never share
state, so any processing order gives identical results. Tiles run with
numpy's bundled OpenBLAS on one thread, because worker threads supply the
parallelism and BLAS threads on top of them would oversubscribe the
cores. The bytes do not depend on that setting: every GEMM in the network
gives the same bytes at any BLAS thread count.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .frame_io import (C444, Frame, VideoSequence, chroma_downsample_mean,
                       chroma_upsample_nn, from_normalized, to_normalized)
from .network import SCALE, NetworkConfig, forward

__all__ = ["TilePlan", "plan_tiles", "NetworkModel", "upscale_frame",
           "upscale_sequence", "blend_weight_map"]


@dataclass(frozen=True)
class TilePlan:
    """Deterministic raster-order tiling of a (width x height) frame."""

    width: int
    height: int
    tile: int
    overlap: int
    origins: tuple          # ((ox, oy), ...) raster order, in padded coords
    pad_right: int
    pad_bottom: int

    @property
    def padded_width(self) -> int:
        return self.width + self.pad_right

    @property
    def padded_height(self) -> int:
        return self.height + self.pad_bottom


def _axis_origins(size: int, tile: int, overlap: int) -> list:
    step = tile - overlap
    xs = list(range(0, size - tile + 1, step))
    if xs[-1] != size - tile:
        xs.append(size - tile)
    return xs


def plan_tiles(width: int, height: int, tile: int = 64, overlap: int = 8) -> TilePlan:
    """Plan tile origins covering every pixel; the last row/column is
    shifted inward, and frames smaller than one tile are padded."""
    if width < 1 or height < 1:
        raise ValueError(f"frame dimensions must be positive, got {width}x{height}")
    if not 0 <= overlap < tile:
        raise ValueError(f"overlap must be in [0, {tile}), got {overlap}")
    pw, ph = max(width, tile), max(height, tile)
    xs = _axis_origins(pw, tile, overlap)
    ys = _axis_origins(ph, tile, overlap)
    origins = tuple((ox, oy) for oy in ys for ox in xs)
    return TilePlan(width=width, height=height, tile=tile, overlap=overlap,
                    origins=origins, pad_right=pw - width, pad_bottom=ph - height)


class NetworkModel:
    """Binds network weights + config into a tile -> tile callable."""

    def __init__(self, weights: dict, cfg: NetworkConfig):
        self.weights = weights
        self.cfg = cfg
        self.tile = cfg.input_size

    def __call__(self, block: np.ndarray) -> np.ndarray:
        return forward(block, self.weights, self.cfg)


@functools.cache
def _numpy_openblas():
    """ctypes handle of the OpenBLAS bundled with numpy, or None if it (or
    its thread-count symbols) cannot be found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
            set_threads = lib.scipy_openblas_set_num_threads64_
            get_threads = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return lib
    return None


@contextmanager
def _blas_one_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore the
    previous count. Tile workers supply the parallelism, so BLAS threads on
    top of them would only oversubscribe the cores; output bytes are the
    same either way. The count is process-wide, so upscale_frame calls
    running at once in several threads share it."""
    lib = _numpy_openblas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def _ramp(tile_hr: int, ramp_len: int, at_start: bool, at_end: bool) -> np.ndarray:
    w = np.ones(tile_hr, dtype=np.float32)
    if ramp_len > 0:
        ramp = (np.arange(ramp_len, dtype=np.float32) + 0.5) / ramp_len
        if at_start:
            w[:ramp_len] = ramp
        if at_end:
            w[-ramp_len:] = ramp[::-1]
    return w


def _tile_weight(plan: TilePlan, ox: int, oy: int) -> np.ndarray:
    t_hr = plan.tile * SCALE
    r = plan.overlap * SCALE
    wx = _ramp(t_hr, r, at_start=ox > 0, at_end=ox + plan.tile < plan.padded_width)
    wy = _ramp(t_hr, r, at_start=oy > 0, at_end=oy + plan.tile < plan.padded_height)
    return wy[:, None] * wx[None, :]


def blend_weight_map(plan: TilePlan) -> np.ndarray:
    """Accumulated (pre-normalization) blend weight at every padded HR
    pixel, summed in float32 in raster tile order."""
    acc = np.zeros((plan.padded_height * SCALE, plan.padded_width * SCALE),
                   dtype=np.float32)
    t = plan.tile * SCALE
    for ox, oy in plan.origins:
        ys, xs = oy * SCALE, ox * SCALE
        acc[ys:ys + t, xs:xs + t] += _tile_weight(plan, ox, oy)
    return acc


def upscale_frame(frame: Frame, model, overlap: int = 8, threads: int = 1,
                  progress=None, frame_index: int = 0) -> Frame:
    """Super-resolve one C420 frame to SCALE x dimensions.

    `model` maps a normalized [3, tile, tile] block to [3, tile*SCALE,
    tile*SCALE]; `NetworkModel` provides this for real weights, and any
    crop-commuting stub works for pipeline verification.
    """
    tile = getattr(model, "tile", 64)
    f444 = chroma_upsample_nn(frame)
    x = np.stack(to_normalized(f444))
    plan = plan_tiles(frame.width, frame.height, tile=tile, overlap=overlap)
    x = np.pad(x, ((0, 0), (0, plan.pad_bottom), (0, plan.pad_right)), mode="reflect")

    blocks = [x[:, oy:oy + tile, ox:ox + tile] for ox, oy in plan.origins]
    with _blas_one_thread(), ThreadPoolExecutor(max_workers=threads) as pool:
        outputs = list(pool.map(model, blocks))

    # stitch in fixed raster order regardless of compute order
    acc = np.zeros((3, plan.padded_height * SCALE, plan.padded_width * SCALE),
                   dtype=np.float32)
    t = tile * SCALE
    total = len(plan.origins)
    for i, ((ox, oy), out) in enumerate(zip(plan.origins, outputs)):
        if not np.isfinite(out).all():
            # NaN would otherwise quantize silently to code 0
            raise ValueError(f"frame {frame_index} tile {i + 1}/{total} at LR "
                             f"({ox}, {oy}): network output is not finite")
        ys, xs = oy * SCALE, ox * SCALE
        acc[:, ys:ys + t, xs:xs + t] += out * _tile_weight(plan, ox, oy)
        if progress is not None:
            progress.write(f"frame={frame_index} tiles={i + 1}/{total}\n")

    hr = acc / blend_weight_map(plan)
    hr = hr[:, :frame.height * SCALE, :frame.width * SCALE]
    out444 = from_normalized(hr[0], hr[1], hr[2], subsampling=C444)
    return chroma_downsample_mean(out444)


def upscale_sequence(seq: VideoSequence, model, overlap: int = 8,
                     threads: int | None = None, progress=None) -> VideoSequence:
    """Frame-wise map of upscale_frame; no temporal state. `threads` tile
    workers run each frame, by default one per CPU this process may run on."""
    if threads is None:
        threads = len(os.sched_getaffinity(0))
    frames = [upscale_frame(f, model, overlap=overlap, threads=threads,
                            progress=progress, frame_index=i)
              for i, f in enumerate(seq.frames)]
    return VideoSequence(frames=frames, frame_rate=seq.frame_rate,
                         metadata=dict(seq.metadata))
