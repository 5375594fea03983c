"""Acceptance gate: one test per shipped criterion, each printing a single
pass/fail line (bypassing capture) with its pinned tolerance."""

import io
import math
import sys
import time

import numpy as np
import pytest

from conftest import fd_gradient, make_video
from vsrhe import cli, dataprep, frame_io, losses, metrics, network, pipeline, resample, weights_io
from vsrhe.frame_io import C420
from vsrhe.metrics import SsimParams


def _report(capfd, num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {name}: {status}"
    if detail:
        line += f" ({detail})"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def correlated_pair(rng, shape, amp):
    a = rng.random(shape)
    b = np.clip(a + amp * (rng.random(shape) - 0.5), 0.0, 1.0)
    return a, b


def test_criterion_01_loss_formula_fidelity(capfd):
    t0 = time.time()
    x = np.random.default_rng(0).random((3, 176, 176))
    b = losses.perceptual_loss(x, x)
    zero_ok = (b.total == 0.0 and b.l1 == 0.0 and b.l2 == 0.0
               and b.ssim_loss == 0.0 and b.msssim_loss == 0.0)
    w = losses.LossWeights()
    echo_ok = (w.w_l1, w.w_ssim, w.w_l2, w.w_msssim, w.w_gan) == (
        0.3, 0.2, 0.1, 0.4, 0.05)
    gan_ok = abs(losses.total_loss(0.5, 1.0) - 0.55) < 1e-12
    elapsed = time.time() - t0
    _report(capfd, 1, "loss-formula fidelity",
            zero_ok and echo_ok and gan_ok and elapsed < 1.0,
            f"{elapsed:.2f}s")


def test_criterion_02_gradient_check(capfd):
    t0 = time.time()
    rng = np.random.default_rng(11)
    pred = rng.random((3, 176, 176))
    target = np.clip(pred + 0.12 * (rng.random((3, 176, 176)) - 0.5), 0.0, 1.0)
    grad = losses.perceptual_loss_grad(pred, target)

    def f(x):
        return losses.perceptual_loss(x, target).total

    coord_rng = np.random.default_rng(99)
    coords = []
    while len(coords) < 200:
        c = (int(coord_rng.integers(3)), int(coord_rng.integers(176)),
             int(coord_rng.integers(176)))
        if abs(pred[c] - target[c]) > 5e-3:  # keep clear of the L1 kink
            coords.append(c)
    fd = fd_gradient(f, pred, 1e-3, coords)
    an = np.array([grad[c] for c in coords])
    rel = float((np.abs(fd - an) / np.maximum(np.abs(fd), 1e-8)).max())
    elapsed = time.time() - t0
    _report(capfd, 2, "gradient check", rel < 1e-4 and elapsed < 60.0,
            f"max rel err {rel:.2e}, {len(coords)} coords, h=1e-3, {elapsed:.1f}s")


def test_criterion_03_metric_oracles(capfd):
    t0 = time.time()

    def ssim_oracle_maps(x, y, p):
        taps = p.taps
        win = np.outer(taps, taps)
        vx = np.lib.stride_tricks.sliding_window_view(x, win.shape)
        vy = np.lib.stride_tricks.sliding_window_view(y, win.shape)
        mu_x = (vx * win).sum(axis=(-2, -1))
        mu_y = (vy * win).sum(axis=(-2, -1))
        var_x = (vx * vx * win).sum(axis=(-2, -1)) - mu_x ** 2
        var_y = (vy * vy * win).sum(axis=(-2, -1)) - mu_y ** 2
        cov = (vx * vy * win).sum(axis=(-2, -1)) - mu_x * mu_y
        lum = (2 * mu_x * mu_y + p.c1) / (mu_x ** 2 + mu_y ** 2 + p.c1)
        cs = (2 * cov + p.c2) / (var_x + var_y + p.c2)
        return lum * cs, cs

    p = SsimParams()
    worst = 0.0
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.random((256, 256)) * 255.0
        b = np.clip(a + 24.0 * (rng.random((256, 256)) - 0.5), 0.0, 255.0)
        mse = np.mean((a - b) ** 2)
        psnr_ref = 10.0 * math.log10(255.0 ** 2 / mse)
        worst = max(worst, abs(metrics.psnr_y(a, b) - psnr_ref))
        s_map, _ = ssim_oracle_maps(a, b, p)
        worst = max(worst, abs(metrics.ssim(a, b) - float(s_map.mean())))
        ms_ref = 1.0
        xa, xb = a, b
        for j, wgt in enumerate(metrics.MS_SSIM_WEIGHTS):
            sm, cm = ssim_oracle_maps(xa, xb, p)
            val = float(sm.mean()) if j == 4 else float(cm.mean())
            ms_ref *= val ** wgt
            if j < 4:
                xa, xb = metrics.mean_pool2(xa), metrics.mean_pool2(xb)
        worst = max(worst, abs(metrics.ms_ssim(a, b) - ms_ref))

    ca = np.full((32, 32), 100.0)
    cb = np.full((32, 32), 110.0)
    closed = abs(metrics.ssim(ca, cb) - 0.99548)
    elapsed = time.time() - t0
    _report(capfd, 3, "metric oracles",
            worst < 1e-6 and closed < 1e-5 and elapsed < 60.0,
            f"max oracle diff {worst:.2e}, closed-form diff {closed:.2e}, {elapsed:.1f}s")


def test_criterion_04_architecture_shape_law(capfd):
    cfg = network.NetworkConfig()
    shape_ok = (cfg.channel_dim == 126 and cfg.blocks == 6
                and cfg.window_sizes == (64, 32, 8, 32, 64))
    t0 = time.time()
    x = np.random.default_rng(4).random((3, 64, 64), dtype=np.float32)
    zeros = network.zero_weights(cfg)
    out = network.forward(x, zeros, cfg)
    forward_time = time.time() - t0
    shape_ok &= out.shape == (3, 256, 256)
    zero_ok = bool(np.all(out == 0.0))
    feat = np.random.default_rng(5).random((126, 64, 64), dtype=np.float32)
    layer_id = np.array_equal(
        network.hiet_layer_forward(feat, zeros, "block0.layer0.", 64, 6), feat)
    block_id = np.array_equal(
        network.hiet_block_forward(feat, zeros, 0, cfg), feat)
    _report(capfd, 4, "architecture shape law",
            shape_ok and zero_ok and layer_id and block_id and forward_time < 30.0,
            f"3x64x64 -> {out.shape}, forward {forward_time:.1f}s")


@pytest.fixture(scope="module")
def small_weight_file(tmp_path_factory):
    cfg = network.NetworkConfig(channel_dim=8, blocks=1, window_sizes=(8,),
                                heads=2, input_size=64)
    path = tmp_path_factory.mktemp("wt") / "small.vsrhe"
    with open(path, "wb") as f:
        weights_io.save_weights(network.init_random(cfg, 0), cfg, f)
    return path


def test_criterion_05_determinism(capfd, tmp_path, small_weight_file, rng):
    t0 = time.time()
    src = tmp_path / "in.y4m"
    with open(src, "wb") as f:
        frame_io.write_y4m(make_video(rng, 320, 180, 10), f)
    out1 = tmp_path / "a.y4m"
    out8 = tmp_path / "b.y4m"
    rc1 = cli.run(["upscale", "--in", str(src), "--weights",
                   str(small_weight_file), "--out", str(out1), "--threads", "1"])
    rc8 = cli.run(["upscale", "--in", str(src), "--weights",
                   str(small_weight_file), "--out", str(out8), "--threads", "8"])
    identical = out1.read_bytes() == out8.read_bytes()
    elapsed = time.time() - t0
    _report(capfd, 5, "determinism",
            rc1 == 0 and rc8 == 0 and identical and elapsed < 600.0,
            f"10 frames 320x180, threads 1 vs 8 byte-identical, {elapsed:.1f}s")


def test_criterion_06_tiling_transparency(capfd, rng):
    t0 = time.time()

    class NearestStub:
        tile = 64

        def __call__(self, block):
            return np.repeat(np.repeat(block, 4, axis=1), 4, axis=2)

    stub = NearestStub()
    frame = make_video(rng, 320, 180, 1).frames[0]
    x = np.stack(frame_io.to_normalized(frame_io.chroma_upsample_nn(frame)))
    whole = stub(x)
    untiled = frame_io.chroma_downsample_mean(frame_io.from_normalized(
        whole[0], whole[1], whole[2], subsampling="C444"))
    bit_ok = True
    for overlap in (0, 8):
        tiled = pipeline.upscale_frame(frame, stub, overlap=overlap)
        bit_ok &= (np.array_equal(tiled.y, untiled.y)
                   and np.array_equal(tiled.cb, untiled.cb)
                   and np.array_equal(tiled.cr, untiled.cr))
    plan = pipeline.plan_tiles(120, 64)  # two overlapping tiles: raw ramp seam
    seam_err = float(np.abs(pipeline.blend_weight_map(plan) - 1.0).max())
    elapsed = time.time() - t0
    _report(capfd, 6, "tiling transparency",
            bit_ok and seam_err < 1e-6 and elapsed < 60.0,
            f"overlap 0/8 bit-identical, blend sum err {seam_err:.1e}, {elapsed:.1f}s")


def test_criterion_07_geometry_contract(capfd, tmp_path, small_weight_file, rng):
    t0 = time.time()
    ok = True
    for (w, h, ow, oh) in ((320, 180, 1280, 720), (480, 270, 1920, 1080)):
        src = tmp_path / f"in{w}.y4m"
        with open(src, "wb") as f:
            frame_io.write_y4m(make_video(rng, w, h, 1), f)
        out = tmp_path / f"out{w}.y4m"
        rc = cli.run(["upscale", "--in", str(src), "--weights",
                      str(small_weight_file), "--out", str(out)])
        with open(out, "rb") as f:
            seq = frame_io.parse_y4m(f)
        f0 = seq.frames[0]
        ok &= rc == 0 and (f0.width, f0.height) == (ow, oh)
    elapsed = time.time() - t0
    _report(capfd, 7, "geometry contract", ok and elapsed < 600.0,
            f"320x180->1280x720 and 480x270->1920x1080, {elapsed:.1f}s")


def test_criterion_08_lr_schedule(capfd):
    t0 = time.time()
    expect = {0: 1e-4, 50_000: 5e-5, 150_000: 2.5e-5, 250_000: 1.25e-5,
              300_000: 6.25e-6}
    ok = all(dataprep.lr_schedule(i) == v for i, v in expect.items())
    elapsed = time.time() - t0
    _report(capfd, 8, "LR schedule", ok and elapsed < 1.0,
            "1e-4/5e-5/2.5e-5/1.25e-5/6.25e-6 at 0/50k/150k/250k/300k")


def test_criterion_09_round_trips(capfd, tmp_path):
    t0 = time.time()
    ok = True
    # Y4M parse/write
    for seed in range(100):
        r = np.random.default_rng(seed)
        seq = make_video(r, 2 * int(r.integers(1, 9)), 2 * int(r.integers(1, 9)),
                         int(r.integers(1, 3)))
        buf = io.BytesIO()
        frame_io.write_y4m(seq, buf)
        buf.seek(0)
        back = frame_io.parse_y4m(buf)
        buf2 = io.BytesIO()
        frame_io.write_y4m(back, buf2)
        ok &= buf.getvalue() == buf2.getvalue()
    # weight save/load
    cfg = network.NetworkConfig(channel_dim=4, blocks=1, window_sizes=(4,),
                                heads=2, input_size=8)
    for seed in range(100):
        w = network.init_random(cfg, seed)
        buf = io.BytesIO()
        weights_io.save_weights(w, cfg, buf)
        buf.seek(0)
        back_w, _ = weights_io.load_weights(buf)
        ok &= all(np.array_equal(back_w[k], w[k]) for k in w)
    # manifest write/read (100 pairs through one manifest)
    r = np.random.default_rng(77)
    lr = make_video(r, 96, 80, 2)
    hr = make_video(r, 384, 320, 2)
    pairs = dataprep.extract_patch_pairs(lr, hr, 100, seed=1, qp_label=27)
    mpath = tmp_path / "rt.manifest"
    dataprep.write_manifest(pairs, mpath)
    m = dataprep.read_manifest(mpath)
    for i, p in enumerate(pairs):
        q = dataprep.load_pair(m, i)
        ok &= (np.array_equal(q.lr_patch.y, p.lr_patch.y)
               and np.array_equal(q.hr_patch.y, p.hr_patch.y)
               and q.origin == p.origin)
    # chroma down o up
    for seed in range(100):
        r = np.random.default_rng(1000 + seed)
        f = make_video(r, 2 * int(r.integers(1, 9)), 2 * int(r.integers(1, 9)),
                       1).frames[0]
        rt = frame_io.chroma_downsample_mean(frame_io.chroma_upsample_nn(f))
        ok &= (np.array_equal(rt.y, f.y) and np.array_equal(rt.cb, f.cb)
               and np.array_equal(rt.cr, f.cr))
    elapsed = time.time() - t0
    _report(capfd, 9, "round trips", ok and elapsed < 120.0,
            f"4 round trips x >=100 cases bit-exact, {elapsed:.1f}s")


def test_criterion_10_complexity_accounting(capfd):
    t0 = time.time()
    degenerate = network.NetworkConfig(channel_dim=1, blocks=1, heads=1,
                                       window_sizes=(2,), input_size=2)
    # hand enumeration: head 28, layer 19, fuse 10, body 10, tail 80+30
    hand = 28 + 19 + 10 + 10 + 80 + 30
    exact_ok = network.count_params(degenerate) == hand
    cfg = network.NetworkConfig()
    params = network.count_params(cfg)
    flops = network.count_flops(cfg)
    pdev = 100.0 * (params - network.REFERENCE_PARAMS) / network.REFERENCE_PARAMS
    fdev = 100.0 * (flops - network.REFERENCE_FLOPS) / network.REFERENCE_FLOPS
    elapsed = time.time() - t0
    _report(capfd, 10, "complexity accounting",
            exact_ok and abs(pdev) <= 25.0 and elapsed < 1.0,
            f"degenerate {hand} exact; params {params} ({pdev:+.2f}% vs 5.43M), "
            f"flops {flops / 1e9:.2f}G ({fdev:+.2f}% vs 455.16G, informational)")


def test_criterion_11_resampler_properties(capfd):
    t0 = time.time()
    ok = True
    for kern in (resample.KernelSpec.bicubic(), resample.KernelSpec.lanczos(),
                 resample.KernelSpec.nearest()):
        for in_n, out_n in ((720, 180), (180, 720), (13, 7)):
            w = resample.axis_weights(in_n, out_n, kern)
            ok &= bool(np.abs(w.sum(axis=1) - 1.0).max() < 1e-6)
        plane = np.full((24, 24), 0.5, np.float32)
        out = resample.resample_plane(plane, 6, 6, kern)
        ok &= bool(np.abs(out - 0.5).max() < 1e-6)
    ramp = np.tile(np.arange(16, dtype=np.float32), (4, 1))
    out = resample.resample_plane(ramp, 64, 4, resample.KernelSpec.bicubic())
    dst = np.arange(64)
    src = (dst + 0.5) * 0.25 - 0.5
    interior = (src >= 1.0) & (src <= 14.0)
    ramp_err = float(np.abs(out[1, interior] - src[interior]).max())
    elapsed = time.time() - t0
    _report(capfd, 11, "resampler properties", ok and ramp_err < 1e-5 and elapsed < 30.0,
            f"partition of unity + constants 1e-6, ramp err {ramp_err:.1e}, {elapsed:.1f}s")


def test_criterion_12_benchmark_report_shape(capfd, tmp_path, rng):
    t0 = time.time()
    ref = tmp_path / "ref.y4m"
    with open(ref, "wb") as f:
        frame_io.write_y4m(make_video(rng, 256, 256, 2), f)
    table_path = tmp_path / "table.txt"
    rc = cli.run(["bench", "--ref", str(ref), "--methods", "bicubic,lanczos",
                  "--out", str(table_path)])
    header = table_path.read_text().splitlines()[0]
    cols_ok = all(c in header for c in ("Method", "PSNR-Y (dB)", "SSIM",
                                        "MS-SSIM", "VMAF"))
    # mean row of the CSV report equals recomputed per-frame means
    r = metrics.MetricReport("s", "m", [30.0, 31.0, 35.5], [0.9, 0.92, 0.95],
                             [0.93, 0.94, 0.96])
    buf = io.StringIO()
    r.write_csv(buf)
    mean_cells = buf.getvalue().strip().splitlines()[-1].split(",")
    mean_ok = (abs(r.mean("psnr_y") - np.mean([30.0, 31.0, 35.5])) < 1e-9
               and abs(r.mean("ssim") - np.mean([0.9, 0.92, 0.95])) < 1e-9
               and abs(r.mean("msssim") - np.mean([0.93, 0.94, 0.96])) < 1e-9
               and mean_cells[0] == "mean"
               and mean_cells[1] == f"{r.mean('psnr_y'):.6f}"
               and mean_cells[2] == f"{r.mean('ssim'):.6f}"
               and mean_cells[3] == f"{r.mean('msssim'):.6f}")
    elapsed = time.time() - t0
    _report(capfd, 12, "benchmark report shape",
            rc == 0 and cols_ok and mean_ok and elapsed < 60.0,
            f"columns + mean row within 1e-9, {elapsed:.1f}s")
