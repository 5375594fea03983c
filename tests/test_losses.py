import math

import numpy as np
import pytest

from conftest import fd_gradient
from vsrhe import losses, metrics
from vsrhe.losses import (LossBreakdown, LossWeights, perceptual_loss,
                          perceptual_loss_grad, total_loss)
from vsrhe.metrics import SsimParams


def grad_check_pair(seed=0, h=192, w=192):
    """Correlated normalized pair with enough local variance for stable
    SSIM/MS-SSIM statistics."""
    rng = np.random.default_rng(seed)
    pred = rng.random((3, h, w))
    target = np.clip(pred + 0.12 * (rng.random((3, h, w)) - 0.5), 0.0, 1.0)
    return pred, target


class TestWeights:
    def test_defaults(self):
        w = LossWeights()
        assert (w.w_l1, w.w_ssim, w.w_l2, w.w_msssim, w.w_gan) == (
            0.3, 0.2, 0.1, 0.4, 0.05)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="w_l2"):
            LossWeights(w_l2=-0.1)


class TestPerceptualLoss:
    def test_zero_at_equality(self):
        x = np.random.default_rng(1).random((3, 176, 176))
        b = perceptual_loss(x, x)
        assert b.total == 0.0 and b.l1 == 0.0 and b.l2 == 0.0
        assert b.ssim_loss == 0.0 and b.msssim_loss == 0.0

    def test_l1_l2_closed_form(self):
        # a uniform +0.1 offset: L1 = 0.1, L2 = 0.01; luminance terms only
        pred = np.full((3, 176, 176), 0.4)
        target = np.full((3, 176, 176), 0.5)
        b = perceptual_loss(pred, target)
        assert abs(b.l1 - 0.1) < 1e-12
        assert abs(b.l2 - 0.01) < 1e-12

    def test_total_is_weighted_sum(self):
        pred, target = grad_check_pair(3)
        b = perceptual_loss(pred, target)
        expect = 0.3 * b.l1 + 0.2 * b.ssim_loss + 0.1 * b.l2 + 0.4 * b.msssim_loss
        assert abs(b.total - expect) < 1e-12

    def test_custom_weights(self):
        pred, target = grad_check_pair(4)
        w = LossWeights(w_l1=1.0, w_ssim=0.0, w_l2=0.0, w_msssim=0.0)
        b = perceptual_loss(pred, target, w)
        assert abs(b.total - b.l1) < 1e-12

    def test_structural_terms_match_metrics(self):
        # losses and metrics share one SSIM kernel, so the values agree exactly
        pred, target = grad_check_pair(8)
        p = SsimParams(dynamic_range=1.0)
        b = perceptual_loss(pred, target)
        ssim_vals = [metrics.ssim(pred[c], target[c], p) for c in range(3)]
        ms_vals = [metrics.ms_ssim(pred[c], target[c], p) for c in range(3)]
        assert b.ssim_loss == 1.0 - sum(ssim_vals) / len(ssim_vals)
        assert b.msssim_loss == 1.0 - sum(ms_vals) / len(ms_vals)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="geometry"):
            perceptual_loss(np.zeros((3, 176, 176)), np.zeros((3, 176, 180)))
        with pytest.raises(ValueError, match="minimum"):
            perceptual_loss(np.zeros((3, 64, 64)), np.zeros((3, 64, 64)))


def composed_from_single_terms(pred, target, w):
    """perceptual_loss and perceptual_loss_grad rebuilt from one kernel call
    per structural term and channel, in the same order of operations."""
    p = SsimParams(dynamic_range=1.0)
    ssim = [metrics.ssim_terms(pred[c], target[c], p, (True,), True)[0] for c in range(3)]
    ms = [metrics.ssim_pyramid(pred[c], target[c], p, False, True, True)[1]
          for c in range(3)]
    d = pred - target
    l1 = float(np.mean(np.abs(d)))
    l2 = float(np.mean(d * d))
    ssim_loss = 1.0 - sum(v for v, _ in ssim) / 3
    msssim_loss = 1.0 - sum(v for v, _ in ms) / 3
    total = w.w_l1 * l1 + w.w_ssim * ssim_loss + w.w_l2 * l2 + w.w_msssim * msssim_loss
    grad = (w.w_l1 / d.size) * np.sign(d) + (2.0 * w.w_l2 / d.size) * d
    for c in range(3):
        if w.w_ssim != 0.0:
            grad[c] -= w.w_ssim * ssim[c][1] / 3
        if w.w_msssim != 0.0:
            grad[c] -= w.w_msssim * ms[c][1] / 3
    return LossBreakdown(total, l1, ssim_loss, l2, msssim_loss), grad


@pytest.mark.parametrize("w", [
    LossWeights(), LossWeights(0.1, 0.7, 0.2, 0.3), LossWeights(w_ssim=0.0),
    LossWeights(w_msssim=0.0)], ids=["default", "custom", "no-ssim", "no-msssim"])
def test_shared_scale0_pass_equals_single_terms(w):
    # one ssim_pyramid call per channel serves both structural terms
    pred, target = grad_check_pair(12, 180, 184)
    want_loss, want_grad = composed_from_single_terms(pred, target, w)
    assert perceptual_loss(pred, target, w) == want_loss
    assert np.array_equal(perceptual_loss_grad(pred, target, w), want_grad)


class TestGradient:
    def test_l2_only_closed_form(self):
        pred, target = grad_check_pair(5, 176, 176)
        w = LossWeights(w_l1=0.0, w_ssim=0.0, w_l2=1.0, w_msssim=0.0)
        g = perceptual_loss_grad(pred, target, w)
        np.testing.assert_allclose(g, 2.0 * (pred - target) / pred.size, atol=1e-15)

    def test_l1_only_closed_form(self):
        pred, target = grad_check_pair(6, 176, 176)
        w = LossWeights(w_l1=1.0, w_ssim=0.0, w_l2=0.0, w_msssim=0.0)
        g = perceptual_loss_grad(pred, target, w)
        np.testing.assert_allclose(g, np.sign(pred - target) / pred.size, atol=1e-15)

    def test_zero_at_equality_smooth_terms(self):
        x = np.random.default_rng(7).random((3, 176, 176))
        g = perceptual_loss_grad(x, x)
        # at pred == target every term is at a stationary point (L1 subgradient 0)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        pred, target = grad_check_pair(11)
        grad = perceptual_loss_grad(pred, target)

        def f(x):
            return perceptual_loss(x, target).total

        rng = np.random.default_rng(99)
        coords = []
        while len(coords) < 200:
            c = (int(rng.integers(3)), int(rng.integers(pred.shape[1])),
                 int(rng.integers(pred.shape[2])))
            if abs(pred[c] - target[c]) > 5e-3:  # keep clear of the L1 kink
                coords.append(c)
        fd = fd_gradient(f, pred, 1e-3, coords)
        an = np.array([grad[c] for c in coords])
        rel = np.abs(fd - an) / np.maximum(np.abs(fd), 1e-8)
        assert float(rel.max()) < 1e-4


class TestTotalLoss:
    def test_weighted_sum(self):
        assert abs(total_loss(0.5, 1.0) - 0.55) < 1e-12

    def test_gan_slope(self):
        assert abs((total_loss(0.2, 2.0) - total_loss(0.2, 1.0)) - 0.05) < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            total_loss(math.nan, 0.0)
        with pytest.raises(ValueError, match="finite"):
            total_loss(0.1, math.inf)


class TestFdGradient:
    def test_sum_of_squares(self):
        x = np.array([1.0, 2.0])
        fd = fd_gradient(lambda v: float((v ** 2).sum()), x, 1e-5, [(0,), (1,)])
        np.testing.assert_allclose(fd, [2.0, 4.0], atol=1e-8)

    def test_bad_step(self):
        with pytest.raises(ValueError, match="positive"):
            fd_gradient(lambda v: 0.0, np.zeros(2), 0.0, [(0,)])
