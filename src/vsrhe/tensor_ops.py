"""Dense float32 tensor kernels for the SR network and loss stack.

Everything here operates on plain numpy float32 arrays and is a pure
function: same inputs give bit-identical outputs across calls and
process restarts. Accumulation happens through a fixed evaluation
order: convolution sums one GEMM per kernel tap, in row-major tap order,
over shifted views of a padded copy of the input (no im2col buffer), and
numpy matmul serves elsewhere. Each convolution GEMM has K = C_in (126
in the full-size network), below OpenBLAS's K block, so its bytes do not
depend on how many BLAS threads split it.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

__all__ = [
    "conv2d",
    "matmul",
    "softmax",
    "layer_norm",
    "gelu",
    "pixel_shuffle",
    "window_partition",
    "window_merge",
]

_SQRT2 = np.float32(np.sqrt(2.0))
_LN_EPS = np.float32(1e-5)


def _as_f32(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float32)


def conv2d(x, kernel, bias) -> np.ndarray:
    """2-D convolution (cross-correlation) of x[C_in,H,W] with kernel[C_out,C_in,kH,kW].

    Stride 1, with zero padding of kH//2 rows and kW//2 columns on each
    side, so the output keeps the input's H x W ("same" size). kH and kW
    must be odd; no FFT.

    Shifted GEMM (kn2row): the input is zero-padded once and flattened with
    the padded row stride Wp, so tap (a, b) reads the contiguous range that
    starts a*Wp + b further on. The taps' C_out x C_in GEMMs are summed in
    row-major tap order into a (C_out, H*Wp) array, whose kW-1 extra
    columns per row are then cropped.
    """
    x = _as_f32(x)
    kernel = _as_f32(kernel)
    bias = _as_f32(bias)
    if x.ndim != 3:
        raise ValueError(f"conv2d input must be 3-D [C,H,W], got shape {x.shape}")
    if kernel.ndim != 4:
        raise ValueError(f"conv2d kernel must be 4-D [C_out,C_in,kH,kW], got shape {kernel.shape}")
    c_out, c_in, kh, kw = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"kernel spatial dims must be odd, got {kh}x{kw}")
    if x.shape[0] != c_in:
        raise ValueError(
            f"input channel dim {x.shape[0]} does not match kernel C_in {c_in}")
    if bias.shape != (c_out,):
        raise ValueError(f"bias shape {bias.shape} does not match C_out {c_out}")
    _, h, w = x.shape
    ph, pw = kh // 2, kw // 2
    hp, wp = h + 2 * ph, w + 2 * pw
    n = h * wp
    # kW-1 trailing zeros keep the last tap's view inside the array
    flat = np.zeros((c_in, hp * wp + kw - 1), dtype=np.float32)
    flat[:, :hp * wp].reshape(c_in, hp, wp)[:, ph:ph + h, pw:pw + w] = x
    taps = np.ascontiguousarray(kernel.transpose(2, 3, 0, 1))
    out = np.empty((c_out, n), dtype=np.float32)
    tmp = np.empty_like(out) if kh * kw > 1 else None
    for a in range(kh):
        for b in range(kw):
            view = flat[:, a * wp + b:a * wp + b + n]
            if a == 0 and b == 0:
                np.matmul(taps[0, 0], view, out=out)
            else:
                np.matmul(taps[a, b], view, out=tmp)
                out += tmp
    return out.reshape(c_out, h, wp)[:, :, :w] + bias[:, None, None]


def matmul(a, b) -> np.ndarray:
    """Batched matrix product a[...,M,K] @ b[...,K,N].

    Leading batch dims must be identical; no broadcasting.
    """
    a = _as_f32(a)
    b = _as_f32(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(
            f"inner dimensions do not match: {a.shape[-1]} vs {b.shape[-2]}")
    if a.shape[:-2] != b.shape[:-2]:
        raise ValueError(
            f"batch dimensions differ: {a.shape[:-2]} vs {b.shape[:-2]}")
    return np.matmul(a, b)


def softmax(t, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along `axis` (max-subtracted)."""
    t = _as_f32(t)
    if not -t.ndim <= axis < t.ndim:
        raise ValueError(f"axis {axis} out of range for {t.ndim}-D tensor")
    # One output array, exponentiated and normalized in place: the same
    # values as exp(shifted) / sum, with a third of the memory traffic.
    e = t - np.max(t, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


def layer_norm(t, gamma, beta) -> np.ndarray:
    """Layer normalization over the trailing channel axis (eps 1e-5), then affine."""
    t = _as_f32(t)
    gamma = _as_f32(gamma)
    beta = _as_f32(beta)
    c = t.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(
            f"gamma/beta must have shape ({c},), got {gamma.shape} and {beta.shape}")
    mean = np.mean(t, axis=-1, keepdims=True)
    var = np.mean((t - mean) ** 2, axis=-1, keepdims=True)
    return (t - mean) / np.sqrt(var + _LN_EPS) * gamma + beta


def gelu(t) -> np.ndarray:
    """Exact GELU, x * Phi(x) via erf (not the tanh approximation)."""
    t = _as_f32(t)
    return t * np.float32(0.5) * (np.float32(1.0) + erf(t / _SQRT2))


def pixel_shuffle(t, r: int) -> np.ndarray:
    """Sub-pixel rearrangement [C*r*r,H,W] -> [C,H*r,W*r].

    output(c, h*r+i, w*r+j) = input(c*r*r + i*r + j, h, w)
    """
    t = _as_f32(t)
    if t.ndim != 3:
        raise ValueError(f"pixel_shuffle input must be 3-D, got shape {t.shape}")
    if r < 1:
        raise ValueError(f"upscale factor must be positive, got {r}")
    cr2, h, w = t.shape
    if cr2 % (r * r) != 0:
        raise ValueError(
            f"channel count {cr2} not divisible by r^2 = {r * r}")
    c = cr2 // (r * r)
    return (t.reshape(c, r, r, h, w)
             .transpose(0, 3, 1, 4, 2)
             .reshape(c, h * r, w * r))


def window_partition(t, w: int) -> np.ndarray:
    """Split t[C,H,W] into non-overlapping w x w windows -> [nW, w*w, C].

    Windows are ordered raster-major; tokens within a window row-major.
    """
    t = _as_f32(t)
    if t.ndim != 3:
        raise ValueError(f"window_partition input must be 3-D, got shape {t.shape}")
    c, h, width = t.shape
    if h % w != 0 or width % w != 0:
        pad_h = (-h) % w
        pad_w = (-width) % w
        raise ValueError(
            f"grid {h}x{width} not divisible by window {w}; "
            f"pad by {pad_h} rows and {pad_w} cols first")
    nh, nw = h // w, width // w
    return (t.reshape(c, nh, w, nw, w)
             .transpose(1, 3, 2, 4, 0)
             .reshape(nh * nw, w * w, c))


def window_merge(windows, w: int, h: int, width: int) -> np.ndarray:
    """Inverse of window_partition: [nW, w*w, C] -> [C, h, width]."""
    windows = _as_f32(windows)
    if windows.ndim != 3:
        raise ValueError(f"window_merge input must be 3-D, got shape {windows.shape}")
    if h % w != 0 or width % w != 0:
        raise ValueError(f"target grid {h}x{width} not divisible by window {w}")
    nh, nw = h // w, width // w
    n_win, tokens, c = windows.shape
    if n_win != nh * nw or tokens != w * w:
        raise ValueError(
            f"window tensor {windows.shape} inconsistent with grid {h}x{width}, window {w}")
    return (windows.reshape(nh, nw, w, w, c)
                   .transpose(4, 0, 2, 1, 3)
                   .reshape(c, h, width))
