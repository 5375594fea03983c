"""Perceptual loss stack with analytic gradients.

The loss on a normalized [0,1] prediction/target pair (3 channels) is

    L_p = w_l1 * mean|d| + w_ssim * (1 - SSIM) + w_l2 * mean(d^2)
        + w_msssim * (1 - MS-SSIM)

with SSIM/MS-SSIM channel-averaged at dynamic range 1. The adversarial
term is an externally supplied scalar folded in by `total_loss`.

`perceptual_loss_grad` is the exact derivative of this formula, including
the Gaussian-window chain rule for both structural terms. The SSIM and
MS-SSIM values and gradients of each channel come from one
`metrics.ssim_pyramid` call, the same kernel that `metrics.ssim` and
`metrics.ms_ssim` use, which also holds the window-filter and pooling
adjoints. Both terms share that call's scale-0 statistics, so the five
window filters run once per channel at scale 0, not twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import MS_SSIM_WEIGHTS, SsimParams, ssim_pyramid

__all__ = [
    "LossWeights",
    "LossBreakdown",
    "perceptual_loss",
    "perceptual_loss_grad",
    "total_loss",
]

_SSIM = SsimParams(dynamic_range=1.0)


@dataclass(frozen=True)
class LossWeights:
    w_l1: float = 0.3
    w_ssim: float = 0.2
    w_l2: float = 0.1
    w_msssim: float = 0.4
    w_gan: float = 0.05

    def __post_init__(self):
        for name in ("w_l1", "w_ssim", "w_l2", "w_msssim", "w_gan"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    l1: float
    ssim_loss: float
    l2: float
    msssim_loss: float


def _check_pair(pred, target):
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"geometry mismatch: {pred.shape} vs {target.shape}")
    if pred.ndim != 3:
        raise ValueError(f"expected [C,H,W] tensors, got shape {pred.shape}")
    min_dim = _SSIM.window_size * 2 ** (len(MS_SSIM_WEIGHTS) - 1)
    if min(pred.shape[1:]) < min_dim:
        raise ValueError(
            f"spatial dims {pred.shape[1:]} below the MS-SSIM minimum {min_dim}")
    return pred, target


def perceptual_loss(pred, target, w: LossWeights | None = None) -> LossBreakdown:
    """Weighted perceptual loss on a [3,H,W] normalized pair."""
    if w is None:
        w = LossWeights()
    pred, target = _check_pair(pred, target)
    d = pred - target
    l1 = float(np.mean(np.abs(d)))
    l2 = float(np.mean(d * d))
    ssim_vals = []
    ms_vals = []
    for c in range(pred.shape[0]):
        (s, _), (m, _) = ssim_pyramid(pred[c], target[c], _SSIM, True, True, False)
        ssim_vals.append(s)
        ms_vals.append(m)
    ssim_loss = 1.0 - sum(ssim_vals) / len(ssim_vals)
    msssim_loss = 1.0 - sum(ms_vals) / len(ms_vals)
    total = (w.w_l1 * l1 + w.w_ssim * ssim_loss
             + w.w_l2 * l2 + w.w_msssim * msssim_loss)
    return LossBreakdown(total=total, l1=l1, ssim_loss=ssim_loss,
                         l2=l2, msssim_loss=msssim_loss)


def perceptual_loss_grad(pred, target, w: LossWeights | None = None) -> np.ndarray:
    """Analytic d(perceptual_loss)/d(pred), shape [3,H,W], float64.

    The L1 subgradient at zero difference is taken as 0.
    """
    if w is None:
        w = LossWeights()
    pred, target = _check_pair(pred, target)
    nch = pred.shape[0]
    n = pred.size
    d = pred - target
    grad = (w.w_l1 / n) * np.sign(d) + (2.0 * w.w_l2 / n) * d
    if w.w_ssim == 0.0 and w.w_msssim == 0.0:
        return grad
    for c in range(nch):
        s, m = ssim_pyramid(pred[c], target[c], _SSIM, w.w_ssim != 0.0,
                            w.w_msssim != 0.0, True)
        if s is not None:
            grad[c] -= w.w_ssim * s[1] / nch
        if m is not None:
            grad[c] -= w.w_msssim * m[1] / nch
    return grad


def total_loss(l_p: float, l_gan: float, w: LossWeights | None = None) -> float:
    """Stage-two objective: perceptual loss plus the weighted adversarial
    scalar (supplied externally)."""
    if w is None:
        w = LossWeights()
    if not (np.isfinite(l_p) and np.isfinite(l_gan)):
        raise ValueError("loss terms must be finite")
    return l_p + w.w_gan * l_gan
