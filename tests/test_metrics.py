import io
import math

import numpy as np
import pytest

from conftest import make_frame
from vsrhe import metrics
from vsrhe.metrics import MetricReport, SsimParams


def ssim_oracle(x, y, p):
    """Sliding-window SSIM oracle built on numpy stride tricks in float64."""
    taps = p.taps
    win = np.outer(taps, taps)
    vx = np.lib.stride_tricks.sliding_window_view(x, (p.window_size, p.window_size))
    vy = np.lib.stride_tricks.sliding_window_view(y, (p.window_size, p.window_size))
    mu_x = (vx * win).sum(axis=(-2, -1))
    mu_y = (vy * win).sum(axis=(-2, -1))
    var_x = (vx * vx * win).sum(axis=(-2, -1)) - mu_x ** 2
    var_y = (vy * vy * win).sum(axis=(-2, -1)) - mu_y ** 2
    cov = (vx * vy * win).sum(axis=(-2, -1)) - mu_x * mu_y
    c1, c2 = p.c1, p.c2
    lum = (2 * mu_x * mu_y + c1) / (mu_x ** 2 + mu_y ** 2 + c1)
    cs = (2 * cov + c2) / (var_x + var_y + c2)
    return lum * cs, cs


def msssim_oracle(x, y, p):
    result = 1.0
    for j, w in enumerate(metrics.MS_SSIM_WEIGHTS):
        s_map, cs_map = ssim_oracle(x, y, p)
        val = s_map.mean() if j == 4 else cs_map.mean()
        result *= val ** w
        if j < 4:
            x = metrics.mean_pool2(x)
            y = metrics.mean_pool2(y)
    return result


def correlated_pair(rng, h, w, amp=20.0):
    a = rng.random((h, w)) * 255.0
    b = np.clip(a + amp * (rng.random((h, w)) - 0.5), 0.0, 255.0)
    return a, b


class TestPsnr:
    def test_identical_is_inf(self, rng):
        f = make_frame(rng, 16, 16)
        assert metrics.psnr_y(f, f) == math.inf

    def test_uniform_offset_closed_form(self):
        a = np.zeros((8, 8))
        b = np.full((8, 8), 10.0)
        # MSE = 100 -> 10*log10(255^2/100)
        expected = 10.0 * math.log10(255.0 ** 2 / 100.0)
        assert abs(metrics.psnr_y(a, b) - expected) < 1e-12

    def test_pinned_value(self):
        # one pixel in 64 off by 32 code values: MSE = 16, PSNR = 36.1205 dB
        a = np.zeros((8, 8))
        b = a.copy()
        b[0, 0] = 32.0
        assert abs(metrics.psnr_y(a, b) - 10 * math.log10(255 ** 2 / 16.0)) < 1e-12

    def test_checkerboard(self):
        # half the pixels off by 2: MSE = 2, 45.1545 dB per direct evaluation
        a = np.zeros((2, 2))
        b = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert abs(metrics.psnr_y(a, b) - 10 * math.log10(255 ** 2 / 2.0)) < 1e-12

    def test_symmetry(self, rng):
        a, b = correlated_pair(rng, 32, 32)
        assert metrics.psnr_y(a, b) == metrics.psnr_y(b, a)

    def test_geometry_mismatch(self):
        with pytest.raises(ValueError, match="geometry"):
            metrics.psnr_y(np.zeros((4, 4)), np.zeros((4, 5)))


class TestSsim:
    def test_identical_is_one(self, rng):
        a = rng.random((32, 32)) * 255
        assert abs(metrics.ssim(a, a) - 1.0) < 1e-12

    def test_constant_planes_closed_form(self):
        # constant 100 vs constant 110 with L=255:
        # SSIM = (2*100*110 + c1)/(100^2 + 110^2 + c1), cs term = 1
        p = SsimParams()
        a = np.full((32, 32), 100.0)
        b = np.full((32, 32), 110.0)
        expected = (2 * 100 * 110 + p.c1) / (100 ** 2 + 110 ** 2 + p.c1)
        got = metrics.ssim(a, b, p)
        assert abs(expected - 0.99548) < 5e-6
        assert abs(got - expected) < 1e-5

    def test_vs_sliding_window_oracle(self, rng):
        p = SsimParams()
        a, b = correlated_pair(rng, 40, 36)
        s_map, _ = ssim_oracle(a, b, p)
        assert abs(metrics.ssim(a, b, p) - s_map.mean()) < 1e-6

    def test_symmetry(self, rng):
        a, b = correlated_pair(rng, 24, 24)
        assert abs(metrics.ssim(a, b) - metrics.ssim(b, a)) < 1e-12

    def test_range(self, rng):
        a = rng.random((24, 24)) * 255
        b = 255.0 - a
        v = metrics.ssim(a, b)
        assert -1.0 <= v < 1.0

    def test_too_small(self):
        with pytest.raises(ValueError, match="window"):
            metrics.ssim(np.zeros((8, 8)), np.zeros((8, 8)))


class TestMsSsim:
    def test_identical_is_one(self, rng):
        a = rng.random((176, 176)) * 255
        assert abs(metrics.ms_ssim(a, a) - 1.0) < 1e-12

    def test_vs_oracle(self, rng):
        a, b = correlated_pair(rng, 180, 200)
        assert abs(metrics.ms_ssim(a, b) - msssim_oracle(a, b, SsimParams())) < 1e-6

    def test_weights_sum_to_one(self):
        assert abs(sum(metrics.MS_SSIM_WEIGHTS) - 1.0) < 1e-3

    def test_min_dimension(self):
        with pytest.raises(ValueError, match="176"):
            metrics.ms_ssim(np.zeros((128, 256)), np.zeros((128, 256)))

    def test_ordering_with_distortion(self, rng):
        a = rng.random((176, 176)) * 255
        mild = np.clip(a + 4 * (rng.random(a.shape) - 0.5), 0, 255)
        harsh = np.clip(a + 60 * (rng.random(a.shape) - 0.5), 0, 255)
        assert metrics.ms_ssim(a, mild) > metrics.ms_ssim(a, harsh)


class TestSharedStatistics:
    """SSIM and MS-SSIM asked for together share one statistics pass at
    scale 0 and give exactly what the separate calls give."""

    def test_equals_the_two_calls(self, rng):
        a, b = correlated_pair(rng, 180, 200)
        assert metrics.ssim_and_ms_ssim(a, b) == (metrics.ssim(a, b), metrics.ms_ssim(a, b))
        fa, fb = make_frame(rng, 192, 176), make_frame(rng, 192, 176)
        assert metrics.ssim_and_ms_ssim(fa, fb) == (metrics.ssim(fa, fb),
                                                    metrics.ms_ssim(fa, fb))

    @pytest.mark.parametrize("shape,match", [((8, 8), "window"), ((128, 256), "176")])
    def test_size_errors_as_the_two_calls(self, shape, match):
        with pytest.raises(ValueError, match=match):
            metrics.ssim_and_ms_ssim(np.zeros(shape), np.zeros(shape))


class TestMeanPool2:
    def test_exact(self):
        img = np.array([[1.0, 3.0], [5.0, 7.0]])
        assert metrics.mean_pool2(img)[0, 0] == 4.0

    def test_odd_trailing_dropped(self, rng):
        img = rng.random((5, 7))
        assert metrics.mean_pool2(img).shape == (2, 3)


class TestReport:
    def test_mean(self):
        r = MetricReport("seq", "bicubic", [30.0, 32.0], [0.9, 0.92], [0.95, 0.97])
        assert abs(r.mean("psnr_y") - 31.0) < 1e-9
        assert abs(r.mean("ssim") - 0.91) < 1e-9
        assert math.isnan(r.mean("vmaf"))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            MetricReport("seq", "m", [1.0], [0.5], [])
        with pytest.raises(ValueError, match="VMAF"):
            MetricReport("seq", "m", [1.0], [0.5], [0.5], vmaf=[1.0, 2.0])

    def test_csv_layout(self):
        r = MetricReport("seq", "m", [30.0, math.inf], [0.9, 1.0], [0.95, 1.0])
        buf = io.StringIO()
        r.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "frame,psnr_y,ssim,msssim"
        assert lines[1] == "0,30.000000,0.900000,0.950000"
        assert lines[2].startswith("1,inf,")
        assert lines[3].startswith("mean,inf,0.950000,")

    def test_csv_with_vmaf(self):
        r = MetricReport("seq", "m", [30.0], [0.9], [0.95], vmaf=[88.5])
        buf = io.StringIO()
        r.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].endswith(",vmaf")
        assert lines[1].endswith(",88.500000")

    def test_summary_table_published_row(self):
        # fixture values mirror a published four-method comparison row
        reports = [
            MetricReport("cls", "bicubic", [25.74], [0.88], [0.93]),
            MetricReport("cls", "network", [26.47], [0.90], [0.95]),
        ]
        table = metrics.format_summary_table(reports)
        lines = table.strip().splitlines()
        assert "PSNR-Y (dB)" in lines[0]
        assert "25.74" in lines[1] and "bicubic" in lines[1]
        assert "26.47" in lines[2] and "network" in lines[2]
        assert lines[1].endswith("-")  # no VMAF supplied

    def test_read_vmaf_csv(self):
        src = io.StringIO("frame,vmaf\n0,91.2\n1,88.0\n")
        scores = metrics.read_vmaf_csv(src)
        assert scores == {0: 91.2, 1: 88.0}
