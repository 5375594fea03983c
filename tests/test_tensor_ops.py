import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from vsrhe import tensor_ops as ops


def conv2d_oracle(x, k, bias, padding=0):
    """Brute-force six-nested-loop convolution in float64, stride 1.

    `padding` is one zero-padding width for both axes, or (rows, cols)."""
    x = np.asarray(x, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    c_out, c_in, kh, kw = k.shape
    ph, pw = padding if isinstance(padding, tuple) else (padding, padding)
    x = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    _, h, w = x.shape
    oh = h - kh + 1
    ow = w - kw + 1
    out = np.zeros((c_out, oh, ow))
    for co in range(c_out):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for ci in range(c_in):
                    for a in range(kh):
                        for b in range(kw):
                            acc += k[co, ci, a, b] * x[ci, i + a, j + b]
                out[co, i, j] = acc + bias[co]
    return out


def matmul_oracle(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    batch = a.shape[:-2]
    m, k = a.shape[-2:]
    n = b.shape[-1]
    out = np.zeros(batch + (m, n))
    for idx in np.ndindex(*batch) if batch else [()]:
        for i in range(m):
            for j in range(n):
                acc = 0.0
                for t in range(k):
                    acc += a[idx + (i, t)] * b[idx + (t, j)]
                out[idx + (i, j)] = acc
    return out


class TestConv2d:
    def test_sum_of_ones(self):
        out = ops.conv2d(np.ones((1, 3, 3), np.float32),
                         np.ones((1, 1, 3, 3), np.float32),
                         np.zeros(1, np.float32))
        assert out[0, 1, 1] == 9.0

    def test_identity_kernel(self, rng):
        x = rng.random((2, 5, 5), dtype=np.float32)
        k = np.zeros((2, 2, 1, 1), np.float32)
        k[0, 0, 0, 0] = 1.0
        k[1, 1, 0, 0] = 1.0
        out = ops.conv2d(x, k, np.zeros(2, np.float32))
        assert np.array_equal(out, x)

    def test_matches_bruteforce(self, rng):
        x = rng.random((2, 5, 5), dtype=np.float32)
        k = rng.random((3, 2, 3, 3), dtype=np.float32)
        b = rng.random(3).astype(np.float32)
        out = ops.conv2d(x, k, b)
        ref = conv2d_oracle(x, k, b, padding=1)
        np.testing.assert_allclose(out, ref, rtol=1e-5)

    @pytest.mark.parametrize("ksize", [1, 3, 5])
    def test_randomized_vs_oracle(self, rng, ksize):
        x = rng.standard_normal((3, 9, 8)).astype(np.float32)
        k = rng.standard_normal((2, 3, ksize, ksize)).astype(np.float32)
        b = rng.standard_normal(2).astype(np.float32)
        out = ops.conv2d(x, k, b)
        assert out.shape == (2, 9, 8)
        ref = conv2d_oracle(x, k, b, padding=ksize // 2)
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("kh,kw", [(3, 5), (1, 3)])
    def test_non_square_kernel_vs_oracle(self, rng, kh, kw):
        # a kernel wider than tall pads rows and columns differently, which
        # a square kernel cannot tell apart from a wrong row stride
        x = rng.standard_normal((3, 7, 11)).astype(np.float32)
        k = rng.standard_normal((2, 3, kh, kw)).astype(np.float32)
        b = rng.standard_normal(2).astype(np.float32)
        out = ops.conv2d(x, k, b)
        assert out.shape == (2, 7, 11)
        assert out.dtype == np.float32 and out.flags.c_contiguous
        ref = conv2d_oracle(x, k, b, padding=(kh // 2, kw // 2))
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-5)

    def test_shape_errors(self, rng):
        x = rng.random((2, 5, 5), dtype=np.float32)
        with pytest.raises(ValueError, match="C_in"):
            ops.conv2d(x, rng.random((1, 3, 3, 3), dtype=np.float32),
                       np.zeros(1, np.float32))
        with pytest.raises(ValueError, match="odd"):
            ops.conv2d(x, rng.random((1, 2, 2, 2), dtype=np.float32),
                       np.zeros(1, np.float32))

    def test_deterministic(self, rng):
        x = rng.standard_normal((4, 16, 16)).astype(np.float32)
        k = rng.standard_normal((4, 4, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        a = ops.conv2d(x, k, b)
        c = ops.conv2d(x, k, b)
        assert np.array_equal(a, c)


class TestMatmul:
    def test_identity(self, rng):
        x = rng.random((2, 2), dtype=np.float32)
        assert np.array_equal(ops.matmul(np.eye(2, dtype=np.float32), x), x)

    def test_hand_arithmetic(self):
        a = np.array([[1, 2], [3, 4]], np.float32)
        b = np.array([[5, 6], [7, 8]], np.float32)
        np.testing.assert_array_equal(ops.matmul(a, b),
                                      np.array([[19, 22], [43, 50]], np.float32))

    def test_batched_vs_oracle(self, rng):
        a = rng.standard_normal((2, 4, 3)).astype(np.float32)
        b = rng.standard_normal((2, 3, 5)).astype(np.float32)
        np.testing.assert_allclose(ops.matmul(a, b), matmul_oracle(a, b),
                                   rtol=1e-5, atol=1e-6)

    def test_errors(self, rng):
        with pytest.raises(ValueError, match="inner"):
            ops.matmul(np.zeros((2, 3), np.float32), np.zeros((4, 2), np.float32))
        with pytest.raises(ValueError, match="batch"):
            ops.matmul(np.zeros((2, 2, 3), np.float32), np.zeros((3, 3, 4), np.float32))


class TestSoftmax:
    def test_uniform(self):
        out = ops.softmax(np.zeros(4, np.float32))
        np.testing.assert_allclose(out, 0.25, atol=1e-7)

    def test_no_overflow(self):
        out = ops.softmax(np.array([1000.0, 0.0], np.float32))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-6)

    def test_vs_float64_oracle(self, rng):
        x = rng.standard_normal(17).astype(np.float32)
        ref = np.exp(x.astype(np.float64) - x.max())
        ref /= ref.sum()
        np.testing.assert_allclose(ops.softmax(x), ref, atol=1e-6)

    def test_slices_sum_to_one(self, rng):
        x = (rng.random((3, 5, 7), dtype=np.float32) * 2e4 - 1e4)
        out = ops.softmax(x, axis=1)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            ops.softmax(np.zeros(3, np.float32), axis=2)

    @pytest.mark.parametrize("axis", [-1, 0, 1])
    @pytest.mark.parametrize("scale", [1.0, 30.0, 300.0])
    def test_equals_three_array_formula(self, rng, axis, scale):
        # softmax normalizes in place; the bytes must equal the formula that
        # allocates the shifted, exponentiated and normalized arrays apart,
        # and the input must not change.
        x = (rng.standard_normal((3, 37, 301)) * scale).astype(np.float32)
        before = x.copy()
        shifted = x - np.max(x, axis=axis, keepdims=True)
        e = np.exp(shifted)
        want = e / np.sum(e, axis=axis, keepdims=True)
        got = ops.softmax(x, axis=axis)
        assert np.array_equal(got, want)
        assert np.array_equal(x, before)


class TestLayerNorm:
    def test_constant_collapses_to_beta(self):
        t = np.full((4,), 3.0, np.float32)
        out = ops.layer_norm(t, np.ones(4, np.float32), np.zeros(4, np.float32))
        np.testing.assert_allclose(out, 0.0, atol=1e-4)

    def test_gamma_zero_gives_beta(self, rng):
        t = rng.random((2, 6), dtype=np.float32)
        beta = np.full(6, 2.5, np.float32)
        out = ops.layer_norm(t, np.zeros(6, np.float32), beta)
        np.testing.assert_array_equal(out, np.broadcast_to(beta, (2, 6)))

    def test_statistics(self, rng):
        t = rng.standard_normal((5, 32)).astype(np.float32)
        out = ops.layer_norm(t, np.ones(32, np.float32), np.zeros(32, np.float32))
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-3)

    def test_vs_float64_oracle(self, rng):
        t = rng.standard_normal((4, 16)).astype(np.float32)
        g = rng.standard_normal(16).astype(np.float32)
        b = rng.standard_normal(16).astype(np.float32)
        t64 = t.astype(np.float64)
        mu = t64.mean(-1, keepdims=True)
        var = ((t64 - mu) ** 2).mean(-1, keepdims=True)
        ref = (t64 - mu) / np.sqrt(var + 1e-5) * g + b
        np.testing.assert_allclose(ops.layer_norm(t, g, b), ref, atol=1e-5)


class TestGelu:
    def test_zero(self):
        assert ops.gelu(np.zeros(1, np.float32))[0] == 0.0

    def test_asymptotics(self):
        assert abs(ops.gelu(np.float32([10.0]))[0] - 10.0) < 1e-5
        assert abs(ops.gelu(np.float32([-10.0]))[0]) < 1e-5

    def test_phi_of_one(self):
        # Phi(1) = 0.5*(1+erf(1/sqrt(2))) = 0.841345 in 64-bit
        expected = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        out = float(ops.gelu(np.float32([1.0]))[0])
        assert abs(out - expected) < 1e-5

    def test_equals_formula_with_cast(self, rng):
        # the result is float32 without a final cast, so no copy is made
        t = (rng.standard_normal((64, 252)) * 3).astype(np.float32)
        want = (t * np.float32(0.5) * (np.float32(1.0) + erf(t / np.float32(np.sqrt(2.0))))
                ).astype(np.float32)
        got = ops.gelu(t)
        assert got.dtype == np.float32
        assert np.array_equal(got, want)


class TestPixelShuffle:
    def test_shape_law(self, rng):
        t = rng.random((16, 2, 2), dtype=np.float32)
        assert ops.pixel_shuffle(t, 4).shape == (1, 8, 8)

    def test_r1_identity(self, rng):
        t = rng.random((3, 4, 4), dtype=np.float32)
        assert np.array_equal(ops.pixel_shuffle(t, 1), t)

    def test_round_trip(self, rng):
        # gathering the output back through the docstring formula recovers
        # the input exactly: the shuffle only moves values
        r = 2
        t = rng.random((8, 3, 5), dtype=np.float32)
        out = ops.pixel_shuffle(t, r)
        back = np.empty_like(t)
        for c, i, j in itertools.product(range(2), range(r), range(r)):
            back[c * r * r + i * r + j] = out[c, i::r, j::r]
        assert np.array_equal(back, t)

    def test_mapping(self):
        t = np.arange(4, dtype=np.float32).reshape(4, 1, 1)
        out = ops.pixel_shuffle(t, 2)
        np.testing.assert_array_equal(out[0], [[0, 1], [2, 3]])
        # every element of a multi-channel, multi-pixel input, checked against
        # the docstring: output(c, h*r+i, w*r+j) = input(c*r*r + i*r + j, h, w)
        r = 2
        t = np.arange(8 * 3 * 5, dtype=np.float32).reshape(8, 3, 5)
        out = ops.pixel_shuffle(t, r)
        assert out.shape == (2, 6, 10)
        for c, h, w, i, j in itertools.product(range(2), range(3), range(5),
                                               range(r), range(r)):
            assert out[c, h * r + i, w * r + j] == t[c * r * r + i * r + j, h, w]

    def test_indivisible(self):
        with pytest.raises(ValueError, match="divisible"):
            ops.pixel_shuffle(np.zeros((3, 2, 2), np.float32), 2)


class TestWindows:
    def test_counting(self, rng):
        t = rng.random((2, 64, 64), dtype=np.float32)
        assert ops.window_partition(t, 8).shape == (64, 64, 2)
        assert ops.window_partition(t, 64).shape == (1, 4096, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.sampled_from([2, 4, 8]), st.integers(1, 3),
           st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    def test_round_trip(self, c, w, nh, nw, seed):
        t = np.random.default_rng(seed).random((c, nh * w, nw * w)).astype(np.float32)
        merged = ops.window_merge(ops.window_partition(t, w), w, t.shape[1], t.shape[2])
        assert np.array_equal(merged, t)

    def test_indivisible_reports_padding(self):
        with pytest.raises(ValueError, match="pad by 3 rows"):
            ops.window_partition(np.zeros((1, 5, 8), np.float32), 4)
