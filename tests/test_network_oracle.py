"""The float32 network against perfbench's float64 re-implementation, which
is written from the architecture description and imports nothing from vsrhe."""

import numpy as np

from perfbench import reference
from perfbench.workloads import FULL, SMALL, bench_weights
from vsrhe import network


def test_small_block_matches_float64_reference():
    cfg = network.NetworkConfig(**SMALL)
    w = bench_weights(cfg, 7, out_std=0.56)
    x = np.random.Generator(np.random.PCG64(7)).random((3, 32, 32), dtype=np.float32)
    got = network.forward(x, w, cfg)
    want = reference.forward(x, w, SMALL)
    assert got.shape == want.shape == (3, 128, 128)
    # the output spreads over the code range, so the bound below is tight
    assert want.std() > 0.1
    # normalized units: 1e-5 is 1/390 of one 8-bit code value
    assert np.abs(got - want).max() < 1e-5


def test_full_width_block_matches_float64_reference():
    # one block at the full model's width: C=126, 6 heads, windows
    # 64/32/8/32/64 and the full tail, so every conv and GEMM shape of the
    # full model runs
    spec = dict(FULL, blocks=1)
    cfg = network.NetworkConfig(**spec)
    w = bench_weights(cfg, 5, 0.1)
    x = np.random.Generator(np.random.PCG64(7)).random((3, 64, 64), dtype=np.float32)
    got = network.forward(x, w, cfg)
    want = reference.forward(x, w, spec)
    assert got.shape == want.shape == (3, 256, 256)
    assert np.abs(got - want).max() < 1e-5
