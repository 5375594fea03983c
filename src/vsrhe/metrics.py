"""Full-reference quality metrics: PSNR on luma, SSIM, MS-SSIM, and the
report container used by the benchmark CLI.

All statistics are computed in float64. SSIM uses an 11x11 Gaussian window
(sigma 1.5) over valid (non-padded) positions; MS-SSIM takes the mean
contrast-structure term at the four finer scales, full SSIM at the
coarsest, exponentiated by the standard weights.

The SSIM maths lives here once: `ssim_terms` is the per-scale kernel (mean
SSIM and/or mean contrast-structure term from one pass of the five window
filters, plus their gradients through the adjoint of the window filter),
and `ssim_pyramid` combines it over scales (plus the gradient through the
adjoint of 2x2 mean pooling). SSIM and MS-SSIM share the scale-0
statistics: asked for both, `ssim_pyramid` filters scale 0 once, and
`ssim_and_ms_ssim` gives the two values that `ssim` and `ms_ssim` give
separately. `ssim`, `ms_ssim`, `ssim_and_ms_ssim` and the structural terms
of `losses` all call these two functions.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np
from scipy.ndimage import correlate1d

from .frame_io import Frame

__all__ = [
    "SsimParams",
    "MetricReport",
    "psnr_y",
    "ssim",
    "ms_ssim",
    "ssim_and_ms_ssim",
    "MS_SSIM_WEIGHTS",
]

MS_SSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)


def gaussian_window(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    """1-D Gaussian tap vector normalized to sum exactly to 1."""
    half = (size - 1) / 2.0
    x = np.arange(size, dtype=np.float64) - half
    g = np.exp(-(x ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


@dataclass(frozen=True)
class SsimParams:
    """The standard SSIM constants at a given dynamic range."""

    window_size: ClassVar[int] = 11
    sigma: ClassVar[float] = 1.5
    k1: ClassVar[float] = 0.01
    k2: ClassVar[float] = 0.03
    dynamic_range: float = 255.0

    @property
    def c1(self) -> float:
        return (self.k1 * self.dynamic_range) ** 2

    @property
    def c2(self) -> float:
        return (self.k2 * self.dynamic_range) ** 2

    @property
    def taps(self) -> np.ndarray:
        return gaussian_window(self.window_size, self.sigma)


def _luma(x) -> np.ndarray:
    if isinstance(x, Frame):
        return x.y.astype(np.float64)
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D plane or Frame, got shape {arr.shape}")
    return arr


def _check_geometry(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"geometry mismatch: {a.shape} vs {b.shape}")


def filter_valid(img: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Separable Gaussian correlation keeping only fully-interior windows."""
    half = len(taps) // 2
    out = correlate1d(img, taps, axis=0, mode="constant")
    out = correlate1d(out, taps, axis=1, mode="constant")
    return out[half:img.shape[0] - half, half:img.shape[1] - half]


def _local_stats(x: np.ndarray, y: np.ndarray, p: SsimParams):
    taps = p.taps
    mu_x = filter_valid(x, taps)
    mu_y = filter_valid(y, taps)
    gx2 = filter_valid(x * x, taps)
    gy2 = filter_valid(y * y, taps)
    gxy = filter_valid(x * y, taps)
    var_x = gx2 - mu_x * mu_x
    var_y = gy2 - mu_y * mu_y
    cov = gxy - mu_x * mu_y
    return mu_x, mu_y, var_x, var_y, cov


def ssim_terms(x: np.ndarray, y: np.ndarray, p: SsimParams, luminance: tuple,
               want_grad: bool) -> list:
    """Mean SSIM (flag True) or mean contrast-structure term (flag False) of
    one plane pair over valid windows, for each flag in `luminance`, as a
    list of (mean, gradient w.r.t. x or None). The local statistics are
    computed once for all the flags."""
    mu_x, mu_y, var_x, var_y, cov = _local_stats(x, y, p)
    c1, c2 = p.c1, p.c2
    a2 = 2.0 * cov + c2
    b2 = var_x + var_y + c2
    del var_x, var_y, cov  # unused from here; freeing them bounds peak memory
    cs = a2 / b2
    taps = p.taps
    half = p.window_size // 2

    def adjoint_filter(partial):
        # transpose of filter_valid: zero-pad back to the full grid, correlate
        out = correlate1d(np.pad(partial, half), taps, axis=0, mode="constant")
        return correlate1d(out, taps, axis=1, mode="constant")

    def term_of(with_luminance):
        if with_luminance:
            a1 = 2.0 * mu_x * mu_y + c1
            b1 = mu_x ** 2 + mu_y ** 2 + c1
            lum = a1 / b1
            term = lum * cs
        else:
            lum = 1.0
            term = cs
        mean = float(np.mean(term))
        if not want_grad:
            return mean, None
        d_var = -lum * a2 / (b2 * b2)                 # d term / d(var_x)
        d_cov = 2.0 * lum / b2                        # d term / d(cov)
        d_lum = (cs * (2.0 * mu_y * b1 - 2.0 * mu_x * a1) / (b1 * b1)
                 if with_luminance else 0.0)
        d_mu = d_lum + d_var * (-2.0 * mu_x) + d_cov * (-mu_y)
        grad = (adjoint_filter(d_mu)
                + 2.0 * x * adjoint_filter(d_var)
                + y * adjoint_filter(d_cov)) / term.size
        return mean, grad

    return [term_of(flag) for flag in luminance]


def psnr_y(ref, dist) -> float:
    """PSNR in dB on the luma plane (code values); +inf when identical."""
    a = _luma(ref)
    b = _luma(dist)
    _check_geometry(a, b)
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 ** 2 / mse)


def mean_pool2(img: np.ndarray) -> np.ndarray:
    """2x2 mean pooling; odd trailing row/column is dropped."""
    h, w = img.shape
    img = img[:h - h % 2, :w - w % 2]
    return img.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))


def ssim_pyramid(x: np.ndarray, y: np.ndarray, p: SsimParams, want_ssim: bool,
                 want_ms: bool, want_grad: bool):
    """(SSIM, MS-SSIM) of one plane pair, each as (value, gradient w.r.t. x
    or None), or None where not wanted. One statistics pass at scale 0
    serves both; MS-SSIM then pools to the coarser scales of
    MS_SSIM_WEIGHTS, and its gradient goes back through the adjoint of 2x2
    mean pooling."""
    last = len(MS_SSIM_WEIGHTS) - 1
    # scale 0: the MS-SSIM contrast-structure term, then SSIM, from one pass
    flags = ((False,) if want_ms else ()) + ((True,) if want_ssim else ())
    terms = ssim_terms(x, y, p, flags, want_grad)
    ssim_out = terms.pop() if want_ssim else None
    if not want_ms:
        return ssim_out, None
    shapes, vals, grads = [], [], []
    for j in range(last + 1):
        if j:
            x, y = mean_pool2(x), mean_pool2(y)
            terms = ssim_terms(x, y, p, (j == last,), want_grad)
        shapes.append(x.shape)
        (v, g), = terms
        if v <= 0.0:
            raise ValueError(
                f"non-positive similarity mean {v} at scale {j}; "
                "MS-SSIM undefined for this pair")
        vals.append(v)
        grads.append(g)
    ms = 1.0
    for v, w in zip(vals, MS_SSIM_WEIGHTS):
        ms *= v ** w
    if not want_grad:
        return ssim_out, (ms, None)
    total_grad = np.zeros(shapes[0], dtype=np.float64)
    for j in range(last + 1):
        g = grads[j] * (ms * MS_SSIM_WEIGHTS[j] / vals[j])
        for k in range(j - 1, -1, -1):
            # adjoint of 2x2 mean pooling; zeros on a cropped odd row/column
            up = np.zeros(shapes[k], dtype=np.float64)
            h2, w2 = g.shape
            up[:2 * h2, :2 * w2] = np.repeat(np.repeat(g, 2, axis=0), 2, axis=1) * 0.25
            g = up
        total_grad += g
    return ssim_out, (ms, total_grad)


def _structural(ref, dist, p: SsimParams | None, want_ssim: bool, want_ms: bool):
    """(SSIM, MS-SSIM) values of the luma planes of a pair, None where not
    wanted, after checking the sizes that each needs."""
    if p is None:
        p = SsimParams()
    a = _luma(ref)
    b = _luma(dist)
    _check_geometry(a, b)
    if want_ssim and min(a.shape) < p.window_size:
        raise ValueError(
            f"input {a.shape} smaller than the {p.window_size}x{p.window_size} window")
    scales = len(MS_SSIM_WEIGHTS)
    min_dim = p.window_size * 2 ** (scales - 1)
    if want_ms and min(a.shape) < min_dim:
        raise ValueError(
            f"input {a.shape} too small for {scales}-scale MS-SSIM; "
            f"minimum dimension is {min_dim}")
    s, m = ssim_pyramid(a, b, p, want_ssim, want_ms, False)
    return None if s is None else s[0], None if m is None else m[0]


def ssim(ref, dist, p: SsimParams | None = None) -> float:
    """Mean SSIM over valid window positions of the luma plane (or 2-D grids)."""
    return _structural(ref, dist, p, True, False)[0]


def ms_ssim(ref, dist, p: SsimParams | None = None) -> float:
    """Multi-scale SSIM: mean contrast-structure at the finer scales, full
    SSIM at the coarsest, combined as a weighted geometric product."""
    return _structural(ref, dist, p, False, True)[1]


def ssim_and_ms_ssim(ref, dist) -> tuple:
    """(ssim(ref, dist), ms_ssim(ref, dist)), equal to the two calls, from one
    statistics pass at scale 0 instead of two."""
    return _structural(ref, dist, None, True, True)


@dataclass
class MetricReport:
    """Per-frame and aggregate metrics for one reference/distorted pair."""

    sequence_id: str
    method: str
    psnr_y: list = field(default_factory=list)
    ssim: list = field(default_factory=list)
    msssim: list = field(default_factory=list)
    vmaf: list | None = None

    def __post_init__(self):
        n = len(self.psnr_y)
        if len(self.ssim) != n or len(self.msssim) != n:
            raise ValueError("per-frame metric columns have differing lengths")
        if self.vmaf is not None and len(self.vmaf) != n:
            raise ValueError(
                f"VMAF column has {len(self.vmaf)} entries for {n} frames")

    @property
    def frame_count(self) -> int:
        return len(self.psnr_y)

    def mean(self, column: str) -> float:
        vals = getattr(self, column)
        if vals is None or not vals:
            return math.nan
        return sum(vals) / len(vals)

    def write_csv(self, sink) -> None:
        cols = ["frame", "psnr_y", "ssim", "msssim"]
        if self.vmaf is not None:
            cols.append("vmaf")
        writer = csv.writer(sink)
        writer.writerow(cols)
        for i in range(self.frame_count):
            row = [i, _fmt(self.psnr_y[i]), _fmt(self.ssim[i]), _fmt(self.msssim[i])]
            if self.vmaf is not None:
                row.append(_fmt(self.vmaf[i]))
            writer.writerow(row)
        mean_row = ["mean", _fmt(self.mean("psnr_y")), _fmt(self.mean("ssim")),
                    _fmt(self.mean("msssim"))]
        if self.vmaf is not None:
            mean_row.append(_fmt(self.mean("vmaf")))
        writer.writerow(mean_row)


def _fmt(v: float) -> str:
    if v != v:  # nan
        return "nan"
    if math.isinf(v):
        return "inf"
    return f"{v:.6f}"


def format_summary_table(reports: Sequence[MetricReport]) -> str:
    """Plain-text comparison table: one row per method, published column order."""
    headers = ["Method", "PSNR-Y (dB)", "SSIM", "MS-SSIM", "VMAF"]
    rows = [[r.method, f"{r.mean('psnr_y'):.2f}", f"{r.mean('ssim'):.4f}",
             f"{r.mean('msssim'):.4f}",
             "-" if r.vmaf is None else f"{r.mean('vmaf'):.2f}"]
            for r in reports]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for r in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def read_vmaf_csv(source) -> dict:
    """Parse `frame,vmaf` CSV into {frame_index: score}."""
    reader = csv.reader(source)
    scores = {}
    for row in reader:
        if not row or row[0].strip().lower() in ("frame", ""):
            continue
        if len(row) < 2:
            raise ValueError(f"VMAF CSV line {reader.line_num}: expected frame,vmaf, "
                             f"got {','.join(row)!r}")
        scores[int(row[0])] = float(row[1])
    return scores
