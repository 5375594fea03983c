import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from conftest import make_video
import vsrhe
from vsrhe import cli, frame_io, metrics, network, pipeline, resample, weights_io


FAST_CFG = network.NetworkConfig(channel_dim=8, blocks=1, window_sizes=(8,),
                                 heads=2, input_size=64)


def write_y4m(path, seq):
    with open(path, "wb") as f:
        frame_io.write_y4m(seq, f)


def read_y4m(path):
    with open(path, "rb") as f:
        return frame_io.parse_y4m(f)


def write_weights(path, cfg=FAST_CFG, seed=0):
    w = network.init_random(cfg, seed)
    with open(path, "wb") as f:
        weights_io.save_weights(w, cfg, f)


def spy_frame_threads(monkeypatch):
    """The `threads` keyword of every upscale_frame call, as the benchmark's
    tracer reads it."""
    seen = []
    upscale_frame = pipeline.upscale_frame

    def spy(*args, **kwargs):
        seen.append(kwargs["threads"])
        return upscale_frame(*args, **kwargs)

    monkeypatch.setattr(pipeline, "upscale_frame", spy)
    return seen


def damaged_weights(tmp_path, damage):
    """A weight file whose JSON header `damage` edited, under a valid CRC."""
    wpath = tmp_path / "w.vsrhe"
    write_weights(wpath)
    data = wpath.read_bytes()
    start = len(weights_io.MAGIC) + 64
    (hlen,) = struct.unpack("<I", data[start:start + 4])
    meta = json.loads(data[start + 4:start + 4 + hlen])
    damage(meta)
    header = json.dumps(meta).encode("utf-8")
    crc = struct.pack("<I", zlib.crc32(header)).ljust(64, b"\0")
    wpath.write_bytes(weights_io.MAGIC + crc + struct.pack("<I", len(header))
                      + header + data[start + 4 + hlen:])
    return wpath


@pytest.fixture
def video_64(rng, tmp_path):
    path = tmp_path / "in.y4m"
    write_y4m(path, make_video(rng, 64, 64, 2))
    return path


class TestUsage:
    def test_no_command(self, capsys):
        assert cli.run([]) == 1

    def test_unknown_command(self):
        assert cli.run(["frobnicate"]) == 1

    def test_missing_required(self):
        assert cli.run(["upscale", "--out", "x.y4m"]) == 1


class TestDownscale:
    def test_basic(self, rng, tmp_path):
        src = tmp_path / "src.y4m"
        write_y4m(src, make_video(rng, 64, 32, 2))
        out = tmp_path / "out.y4m"
        rc = cli.run(["downscale", "--in", str(src), "--out", str(out)])
        assert rc == 0
        seq = read_y4m(out)
        f = seq.frames[0]
        assert (f.width, f.height, len(seq)) == (16, 8, 2)

    def test_kernel_choices(self, rng, tmp_path):
        src = tmp_path / "src.y4m"
        write_y4m(src, make_video(rng, 32, 32, 1))
        for kern in ("bicubic", "lanczos", "nearest"):
            out = tmp_path / f"{kern}.y4m"
            assert cli.run(["downscale", "--in", str(src), "--out", str(out),
                            "--kernel", kern]) == 0

    def test_raw_yuv_needs_dims(self, tmp_path):
        src = tmp_path / "src.yuv"
        src.write_bytes(b"\0" * 24)
        assert cli.run(["downscale", "--in", str(src), "--out",
                        str(tmp_path / "o.yuv")]) == 1

    def test_raw_yuv_round(self, rng, tmp_path):
        seq = make_video(rng, 16, 8, 1)
        src = tmp_path / "src.yuv"
        with open(src, "wb") as f:
            frame_io.write_raw_yuv(seq, f)
        out = tmp_path / "out.yuv"
        rc = cli.run(["downscale", "--in", str(src), "--out", str(out),
                      "--width", "16", "--height", "8", "--factor", "2"])
        assert rc == 0
        with open(out, "rb") as f:
            back = frame_io.read_raw_yuv(f, 8, 4)
        assert len(back) == 1

    @pytest.mark.parametrize("width,height", [(0, 4), (4, 0), (-2, 4)])
    def test_raw_yuv_degenerate_dims(self, tmp_path, capsys, width, height):
        src = tmp_path / "src.yuv"
        src.write_bytes(b"\0" * 600)
        out = tmp_path / "out.yuv"
        rc = cli.run(["downscale", "--in", str(src), "--out", str(out),
                      "--width", str(width), "--height", str(height)])
        assert rc == 2
        assert "degenerate" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["30:0", "-30:1"])
    def test_bad_y4m_frame_rate(self, tmp_path, capsys, rate):
        src = tmp_path / "src.y4m"
        src.write_bytes(f"YUV4MPEG2 W2 H2 F{rate} C420\nFRAME\n".encode() + b"\0" * 6)
        out = tmp_path / "out.y4m"
        rc = cli.run(["downscale", "--in", str(src), "--out", str(out),
                      "--factor", "2"])
        assert rc == 2
        assert f"F{rate}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_no_partial_output(self, tmp_path):
        out = tmp_path / "out.y4m"
        rc = cli.run(["downscale", "--in", str(tmp_path / "none.y4m"),
                      "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))


class TestUpscale:
    def test_end_to_end(self, rng, tmp_path, video_64):
        wpath = tmp_path / "w.vsrhe"
        write_weights(wpath)
        out = tmp_path / "out.y4m"
        rc = cli.run(["upscale", "--in", str(video_64), "--weights", str(wpath),
                      "--out", str(out)])
        assert rc == 0
        seq = read_y4m(out)
        f = seq.frames[0]
        assert (f.width, f.height, len(seq)) == (256, 256, 2)

    def test_threads_default_to_cpu_affinity(self, tmp_path, video_64, monkeypatch):
        wpath = tmp_path / "w.vsrhe"
        write_weights(wpath)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        seen = spy_frame_threads(monkeypatch)
        assert cli.run(["upscale", "--in", str(video_64), "--weights", str(wpath),
                        "--out", str(tmp_path / "o.y4m")]) == 0
        assert seen == [3, 3]

    def test_bytes_do_not_depend_on_blas_threads(self, rng, tmp_path):
        # one full-width block: every GEMM shape of the full model
        from perfbench.workloads import bench_weights
        cfg = network.NetworkConfig(channel_dim=126, blocks=1)
        wpath = tmp_path / "w.vsrhe"
        with open(wpath, "wb") as f:
            weights_io.save_weights(bench_weights(cfg, 5, 0.1), cfg, f)
        clip = tmp_path / "in.y4m"
        write_y4m(clip, make_video(rng, 64, 64, 1))
        src = str(Path(vsrhe.__file__).resolve().parents[1])
        runs = {}
        for n in ("1", "2"):
            out = tmp_path / f"out{n}.y4m"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=n, PYTHONPATH=src)
            runs[out] = subprocess.Popen(
                [sys.executable, "-c", "from vsrhe.cli import main; main()",
                 "upscale", "--in", str(clip), "--weights", str(wpath),
                 "--out", str(out), "--threads", "1"],
                env=env, stderr=subprocess.PIPE)
        digests = set()
        for out, proc in runs.items():
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
            digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
        assert len(digests) == 1

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_usage_error(self, tmp_path, capsys, threads):
        # the clip does not exist: the thread count must be rejected before it is read
        wpath = tmp_path / "w.vsrhe"
        write_weights(wpath)
        out = tmp_path / "o.y4m"
        rc = cli.run(["upscale", "--in", str(tmp_path / "none.y4m"), "--weights",
                      str(wpath), "--out", str(out), "--threads", threads])
        assert rc == 1
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overlap", ["64", "-1"])
    def test_bad_overlap_is_usage_error(self, tmp_path, capsys, overlap):
        # the clip does not exist: the overlap must be rejected before it is read
        wpath = tmp_path / "w.vsrhe"
        write_weights(wpath)
        out = tmp_path / "o.y4m"
        rc = cli.run(["upscale", "--in", str(tmp_path / "none.y4m"), "--weights",
                      str(wpath), "--out", str(out), "--overlap", overlap])
        assert rc == 1
        assert "--overlap" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_weights(self, tmp_path, video_64):
        wpath = tmp_path / "bad.vsrhe"
        wpath.write_bytes(b"NOTAWGT0" + b"\0" * 64)
        rc = cli.run(["upscale", "--in", str(video_64), "--weights", str(wpath),
                      "--out", str(tmp_path / "o.y4m")])
        assert rc == 2
        assert not (tmp_path / "o.y4m").exists()

    def test_tile_out_of_memory_exits_2_without_output(self, tmp_path, video_64,
                                                       capsys, monkeypatch):
        wpath = tmp_path / "w.vsrhe"
        write_weights(wpath)

        def forward(block, w, cfg):
            raise MemoryError

        monkeypatch.setattr(pipeline, "forward", forward)
        out = tmp_path / "out.y4m"
        rc = cli.run(["upscale", "--in", str(video_64), "--weights", str(wpath),
                      "--out", str(out), "--threads", "1"])
        assert rc == 2
        assert capsys.readouterr().err == "error: MemoryError\n"
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))


def noisy_copy(rng, seq):
    return frame_io.VideoSequence(frames=[
        frame_io.Frame(
            y=np.clip(f.y.astype(np.int16) + rng.integers(-3, 4, f.y.shape),
                      0, 255).astype(np.uint8),
            cb=f.cb, cr=f.cr)
        for f in seq.frames])


def captured_reports(monkeypatch):
    """Every MetricReport the CLI builds, in order."""
    reports = []

    class Spy(metrics.MetricReport):
        def __post_init__(self):
            super().__post_init__()
            reports.append(self)

    monkeypatch.setattr(metrics, "MetricReport", Spy)
    return reports


class TestMetrics:
    def test_report(self, rng, tmp_path):
        ref = tmp_path / "ref.y4m"
        dist = tmp_path / "dist.y4m"
        seq = make_video(rng, 192, 192, 2)
        write_y4m(ref, seq)
        write_y4m(dist, noisy_copy(rng, seq))
        out = tmp_path / "report.csv"
        rc = cli.run(["metrics", "--ref", str(ref), "--dist", str(dist),
                      "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "frame,psnr_y,ssim,msssim"
        assert len(lines) == 4  # header + 2 frames + mean
        assert lines[-1].startswith("mean,")

    @pytest.mark.parametrize("which", ["psnr,ssim,msssim", "ssim", "msssim"])
    def test_values_are_those_of_ssim_and_ms_ssim(self, rng, tmp_path, monkeypatch,
                                                   which):
        # SSIM and MS-SSIM share one scale-0 pass; the report holds exactly
        # what the separate public functions give on the same frames
        seq = make_video(rng, 192, 176, 2)
        dist_seq = noisy_copy(rng, seq)
        write_y4m(tmp_path / "ref.y4m", seq)
        write_y4m(tmp_path / "dist.y4m", dist_seq)
        reports = captured_reports(monkeypatch)
        out = tmp_path / "report.csv"
        assert cli.run(["metrics", "--ref", str(tmp_path / "ref.y4m"), "--dist",
                        str(tmp_path / "dist.y4m"), "--metrics", which,
                        "--out", str(out)]) == 0
        wanted = which.split(",")
        pairs = list(zip(read_y4m(tmp_path / "ref.y4m").frames,
                         read_y4m(tmp_path / "dist.y4m").frames))
        nan = float("nan")
        ssim = [metrics.ssim(r, d) if "ssim" in wanted else nan for r, d in pairs]
        ms = [metrics.ms_ssim(r, d) if "msssim" in wanted else nan for r, d in pairs]
        (report,) = reports
        assert list(map(repr, report.ssim)) == list(map(repr, ssim))
        assert list(map(repr, report.msssim)) == list(map(repr, ms))
        buf = io.StringIO()
        report.write_csv(buf)
        assert out.read_bytes() == buf.getvalue().encode("utf-8")

    def test_unknown_metric(self, tmp_path):
        rc = cli.run(["metrics", "--ref", "a.y4m", "--dist", "b.y4m",
                      "--metrics", "psnr,vif", "--out", str(tmp_path / "o.csv")])
        assert rc == 1

    def test_with_vmaf(self, rng, tmp_path):
        ref = tmp_path / "ref.y4m"
        write_y4m(ref, make_video(rng, 16, 16, 1))
        vmaf = tmp_path / "vmaf.csv"
        vmaf.write_text("frame,vmaf\n0,90.5\n")
        out = tmp_path / "o.csv"
        rc = cli.run(["metrics", "--ref", str(ref), "--dist", str(ref),
                      "--metrics", "psnr", "--vmaf-csv", str(vmaf),
                      "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].endswith(",vmaf")
        assert "90.5" in lines[1]

    def test_vmaf_row_without_score(self, rng, tmp_path, capsys):
        ref = tmp_path / "ref.y4m"
        write_y4m(ref, make_video(rng, 16, 16, 1))
        vmaf = tmp_path / "vmaf.csv"
        vmaf.write_text("frame,vmaf\n0\n")
        out = tmp_path / "o.csv"
        rc = cli.run(["metrics", "--ref", str(ref), "--dist", str(ref),
                      "--metrics", "psnr", "--vmaf-csv", str(vmaf),
                      "--out", str(out)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err
        assert not out.exists()


class TestBench:
    def test_table(self, rng, tmp_path):
        ref = tmp_path / "ref.y4m"
        write_y4m(ref, make_video(rng, 256, 256, 1))
        out = tmp_path / "table.txt"
        rc = cli.run(["bench", "--ref", str(ref), "--methods", "bicubic,lanczos",
                      "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "PSNR-Y (dB)" in text
        assert "bicubic" in text and "lanczos" in text

    def test_values_are_those_of_ssim_and_ms_ssim(self, rng, tmp_path, monkeypatch):
        ref = tmp_path / "ref.y4m"
        write_y4m(ref, make_video(rng, 256, 256, 1))
        reports = captured_reports(monkeypatch)
        out = tmp_path / "table.txt"
        assert cli.run(["bench", "--ref", str(ref), "--methods", "bicubic,lanczos",
                        "--out", str(out)]) == 0
        ref_seq = read_y4m(ref)
        lr = resample.downscale_video(ref_seq, 4, resample.KernelSpec.bicubic())
        kernels = (resample.KernelSpec.bicubic(), resample.KernelSpec.lanczos())
        assert [r.method for r in reports] == ["bicubic", "lanczos"]
        for report, kernel in zip(reports, kernels):
            cand = resample.upscale_video(lr, 4, kernel)
            pairs = list(zip(ref_seq.frames, cand.frames))
            assert report.ssim == [metrics.ssim(r, c) for r, c in pairs]
            assert report.msssim == [metrics.ms_ssim(r, c) for r, c in pairs]
        assert out.read_bytes() == metrics.format_summary_table(reports).encode("utf-8")

    def test_network_tiles_run_on_every_cpu(self, rng, tmp_path, monkeypatch):
        ref = tmp_path / "ref.y4m"
        write_y4m(ref, make_video(rng, 256, 256, 1))
        wpath = tmp_path / "w.vsrhe"
        write_weights(wpath)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        seen = spy_frame_threads(monkeypatch)
        assert cli.run(["bench", "--ref", str(ref), "--methods", "network",
                        "--weights", str(wpath), "--out", str(tmp_path / "t.txt")]) == 0
        assert seen == [3]

    def test_network_needs_weights(self, rng, tmp_path):
        ref = tmp_path / "ref.y4m"
        write_y4m(ref, make_video(rng, 256, 256, 1))
        rc = cli.run(["bench", "--ref", str(ref), "--methods", "network",
                      "--out", str(tmp_path / "t.txt")])
        assert rc == 1

    def test_unknown_method(self, rng, tmp_path):
        ref = tmp_path / "ref.y4m"
        write_y4m(ref, make_video(rng, 256, 256, 1))
        rc = cli.run(["bench", "--ref", str(ref), "--methods", "esrgan",
                      "--out", str(tmp_path / "t.txt")])
        assert rc == 1

    @pytest.mark.parametrize("overlap", ["64", "-1"])
    def test_bad_overlap_is_usage_error(self, tmp_path, capsys, overlap):
        # the reference does not exist: the overlap must be rejected first
        wpath = tmp_path / "w.vsrhe"
        write_weights(wpath)
        out = tmp_path / "t.txt"
        rc = cli.run(["bench", "--ref", str(tmp_path / "none.y4m"), "--methods",
                      "bicubic,network", "--weights", str(wpath), "--out", str(out),
                      "--overlap", overlap])
        assert rc == 1
        assert "--overlap" in capsys.readouterr().err
        assert not out.exists()

    def test_reference_without_frames(self, tmp_path, capsys):
        ref = tmp_path / "ref.y4m"
        ref.write_bytes(b"YUV4MPEG2 W256 H256 F25:1 C420\n")
        out = tmp_path / "t.txt"
        rc = cli.run(["bench", "--ref", str(ref), "--methods", "bicubic",
                      "--out", str(out)])
        assert rc == 2
        assert "reference has no frames" in capsys.readouterr().err
        assert not out.exists()

    def test_reference_not_divisible_by_4(self, rng, tmp_path, capsys):
        ref = tmp_path / "ref.y4m"
        write_y4m(ref, make_video(rng, 66, 64, 1))
        out = tmp_path / "t.txt"
        rc = cli.run(["bench", "--ref", str(ref), "--methods", "bicubic",
                      "--out", str(out)])
        assert rc == 2
        assert "66x64 not divisible" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ref.y4m"]


def three_sources(rng, tmp_path):
    lr_dir = tmp_path / "lr"
    hr_dir = tmp_path / "hr"
    lr_dir.mkdir()
    hr_dir.mkdir()
    for name in ("a_qp22.y4m", "b_qp27.y4m", "c_qp32.y4m"):
        write_y4m(lr_dir / name, make_video(rng, 96, 80, 1))
        write_y4m(hr_dir / name, make_video(rng, 384, 320, 1))
    return lr_dir, hr_dir


class TestPrepareData:
    @pytest.mark.parametrize("count,qps", [(1, {22}), (2, {22, 27})], ids=["1", "2"])
    def test_fewer_pairs_than_sources(self, rng, tmp_path, count, qps):
        lr_dir, hr_dir = three_sources(rng, tmp_path)
        out = tmp_path / "train.jsonl"
        rc = cli.run(["prepare-data", "--lr-dir", str(lr_dir), "--hr-dir",
                      str(hr_dir), "--count", str(count), "--out", str(out)])
        assert rc == 0
        from vsrhe import dataprep
        m = dataprep.read_manifest(out)
        assert len(m) == count
        assert {r["qp"] for r in m.records} == qps

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_is_usage_error(self, tmp_path, capsys, count):
        # neither directory exists: the count must be rejected before any read
        out = tmp_path / "m.jsonl"
        rc = cli.run(["prepare-data", "--lr-dir", str(tmp_path / "lr"), "--hr-dir",
                      str(tmp_path / "hr"), "--count", count, "--out", str(out)])
        assert rc == 1
        assert "--count" in capsys.readouterr().err
        assert not out.exists()

    def test_out_naming_the_sidecar_is_usage_error(self, tmp_path, capsys):
        # the manifest would overwrite its own .pak sidecar; neither directory
        # exists, so the name must be rejected before any read
        out = tmp_path / "train.pak"
        rc = cli.run(["prepare-data", "--lr-dir", str(tmp_path / "lr"), "--hr-dir",
                      str(tmp_path / "hr"), "--count", "3", "--out", str(out)])
        assert rc == 1
        assert "--out" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_end_to_end(self, rng, tmp_path):
        lr_dir = tmp_path / "lr"
        hr_dir = tmp_path / "hr"
        lr_dir.mkdir()
        hr_dir.mkdir()
        for name in ("clip_qp27.y4m", "clip_qp37.y4m"):
            write_y4m(lr_dir / name, make_video(rng, 96, 80, 2))
            write_y4m(hr_dir / name, make_video(rng, 384, 320, 2))
        out = tmp_path / "train.jsonl"
        rc = cli.run(["prepare-data", "--lr-dir", str(lr_dir), "--hr-dir",
                      str(hr_dir), "--count", "8", "--out", str(out)])
        assert rc == 0
        from vsrhe import dataprep
        m = dataprep.read_manifest(out)
        assert len(m) == 8
        qps = {r["qp"] for r in m.records}
        assert qps == {27, 37}

    def test_unlabelled_source_gets_qp_17(self, rng, tmp_path):
        lr_dir = tmp_path / "lr"
        hr_dir = tmp_path / "hr"
        lr_dir.mkdir()
        hr_dir.mkdir()
        write_y4m(lr_dir / "clip.y4m", make_video(rng, 96, 80, 1))
        write_y4m(hr_dir / "clip.y4m", make_video(rng, 384, 320, 1))
        out = tmp_path / "train.jsonl"
        rc = cli.run(["prepare-data", "--lr-dir", str(lr_dir), "--hr-dir",
                      str(hr_dir), "--count", "2", "--out", str(out)])
        assert rc == 0
        from vsrhe import dataprep
        assert [r["qp"] for r in dataprep.read_manifest(out).records] == [17, 17]

    def test_yuv_sources_are_not_read(self, tmp_path, capsys):
        # prepare-data has no --width/--height, so raw YUV cannot be a source
        lr_dir = tmp_path / "lr"
        hr_dir = tmp_path / "hr"
        lr_dir.mkdir()
        hr_dir.mkdir()
        (lr_dir / "a.yuv").write_bytes(bytes(96 * 80 * 3 // 2))
        (hr_dir / "a.yuv").write_bytes(bytes(384 * 320 * 3 // 2))
        out = tmp_path / "train.jsonl"
        rc = cli.run(["prepare-data", "--lr-dir", str(lr_dir), "--hr-dir",
                      str(hr_dir), "--count", "2", "--out", str(out)])
        assert rc == 2
        assert f"no .y4m sources in {lr_dir}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hr", "lr"]

    def test_failed_manifest_write_leaves_no_files(self, rng, tmp_path):
        # --out names an existing directory: the sidecar is written first,
        # then opening the manifest fails, and the sidecar must go again
        lr_dir, hr_dir = three_sources(rng, tmp_path)
        out = tmp_path / "train.jsonl"
        out.mkdir()
        rc = cli.run(["prepare-data", "--lr-dir", str(lr_dir), "--hr-dir",
                      str(hr_dir), "--count", "3", "--out", str(out)])
        assert rc == 2
        assert not (tmp_path / "train.pak").exists()
        assert out.is_dir() and not list(out.iterdir())

    def test_missing_counterpart(self, rng, tmp_path):
        lr_dir = tmp_path / "lr"
        hr_dir = tmp_path / "hr"
        lr_dir.mkdir()
        hr_dir.mkdir()
        write_y4m(lr_dir / "a.y4m", make_video(rng, 96, 80, 1))
        rc = cli.run(["prepare-data", "--lr-dir", str(lr_dir), "--hr-dir",
                      str(hr_dir), "--count", "2",
                      "--out", str(tmp_path / "m.jsonl")])
        assert rc == 2


class TestOutputDirectory:
    """An --out in a missing directory fails before any input or weight file
    is read, names the directory, and leaves no file."""

    def test_upscale(self, tmp_path, video_64, capsys, monkeypatch):
        wpath = tmp_path / "w.vsrhe"
        write_weights(wpath)

        def never(*args, **kwargs):
            raise AssertionError("upscale_sequence ran")

        monkeypatch.setattr(pipeline, "upscale_sequence", never)
        monkeypatch.setattr(weights_io, "load_weights", never)
        before = set(tmp_path.rglob("*"))
        rc = cli.run(["upscale", "--in", str(video_64), "--weights", str(wpath),
                      "--out", str(tmp_path / "nodir" / "out.y4m")])
        assert rc == 2
        assert str(tmp_path / "nodir") in capsys.readouterr().err
        assert set(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("argv", [
        ["downscale", "--in", "{clip}"],
        ["metrics", "--ref", "{clip}", "--dist", "{clip}"],
        ["bench", "--ref", "{clip}", "--methods", "bicubic"],
        ["prepare-data", "--lr-dir", "{dir}", "--hr-dir", "{dir}"],
    ], ids=["downscale", "metrics", "bench", "prepare-data"])
    def test_other_commands(self, tmp_path, video_64, capsys, monkeypatch, argv):
        def never(*args, **kwargs):
            raise AssertionError("input read")

        monkeypatch.setattr(cli, "_read_video", never)
        before = set(tmp_path.rglob("*"))
        argv = [a.format(clip=video_64, dir=tmp_path) for a in argv]
        rc = cli.run(argv + ["--out", str(tmp_path / "nodir" / "out")])
        assert rc == 2
        assert str(tmp_path / "nodir") in capsys.readouterr().err
        assert set(tmp_path.rglob("*")) == before


class TestNonFiniteOutput:
    def test_nan_tile_exits_2_without_output(self, tmp_path, video_64, capsys,
                                             monkeypatch):
        wpath = tmp_path / "w.vsrhe"
        write_weights(wpath)
        monkeypatch.setattr(pipeline, "forward",
                            lambda block, w, cfg: np.full((3, 256, 256), np.nan,
                                                          np.float32))
        out = tmp_path / "out.y4m"
        rc = cli.run(["upscale", "--in", str(video_64), "--weights", str(wpath),
                      "--out", str(out), "--threads", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "tile 1/1" in err
        assert err.count("frame 0") == 1
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))


class TestInspectWeights:
    def test_output(self, tmp_path, capsys):
        wpath = tmp_path / "w.vsrhe"
        write_weights(wpath)
        assert cli.run(["inspect-weights", str(wpath)]) == 0
        out = capsys.readouterr().out
        assert "config:" in out
        assert "paper: 5.43M" in out
        assert "paper: 455.16G" in out
        assert "head.conv.weight" in out

    def test_missing_file(self, tmp_path):
        assert cli.run(["inspect-weights", str(tmp_path / "none.vsrhe")]) == 2

    @pytest.mark.parametrize("damage", [
        lambda m: m.pop("config"),
        lambda m: m["config"].update(unknown_key=1),
        lambda m: m.pop("tensors"),
        lambda m: m["tensors"][0].pop("name"),
        lambda m: m["tensors"][0].pop("dtype"),
        lambda m: m["tensors"][0].pop("shape"),
        lambda m: m["tensors"][0].pop("offset"),
    ], ids=["no-config", "unknown-config-key", "no-tensors", "entry-no-name",
            "entry-no-dtype", "entry-no-shape", "entry-no-offset"])
    def test_malformed_header(self, tmp_path, capsys, damage):
        # a damaged header under a valid checksum is a processing error, not a traceback
        wpath = damaged_weights(tmp_path, damage)
        assert cli.run(["inspect-weights", str(wpath)]) == 2
        assert "weight file header" in capsys.readouterr().err

    @pytest.mark.parametrize("damage,message", [
        (lambda m: m["config"].update(heads=0), "heads must be an integer"),
        (lambda m: m["config"].update(window_sizes=[0]), "window size must be an integer"),
        (lambda m: m["config"].update(window_sizes=[]), "window_sizes must not be empty"),
        (lambda m: m["config"].update(input_size=-8), "input_size must be an integer"),
        (lambda m: m["config"].update(blocks=True), "blocks must be an integer"),
        (lambda m: m["config"].update(blocks=10**9), "1000000000 blocks"),
        (lambda m: m["config"].update(mlp_ratio=float("nan")), "mlp_ratio is nan"),
        (lambda m: m["config"].update(mlp_ratio=float("inf")), "mlp_ratio is inf"),
        (lambda m: m["config"].update(scale=3), "scale is 3"),
        (lambda m: m["config"].update(in_channels=1), "in_channels is 1"),
        (lambda m: m["tensors"][0].update(offset="a"), "tensor entry"),
        (lambda m: m["tensors"][0].update(shape=["a"]), "tensor entry"),
        (lambda m: m["tensors"][0].update(name=5), "tensor entry"),
    ], ids=["heads-0", "window-0", "no-windows", "input-size-negative", "blocks-bool",
            "blocks-huge", "mlp-ratio-nan", "mlp-ratio-inf", "scale-3", "in-channels-1",
            "offset-string", "shape-string", "name-number"])
    def test_bad_config_or_directory(self, tmp_path, capsys, monkeypatch, damage, message):
        # rejected from the header alone, before any tensor name is built
        wpath = damaged_weights(tmp_path, damage)

        def no_names(cfg):
            raise AssertionError("weight_shapes called on an unchecked header")

        monkeypatch.setattr(network, "weight_shapes", no_names)
        assert cli.run(["inspect-weights", str(wpath)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error:")
        assert "Traceback" not in err
        assert message in err
