"""Command-line entry point: upscale, downscale, metrics, prepare-data,
bench, inspect-weights.

Exit codes: 0 success, 1 usage error (nothing written), 2 processing
error. Output files are written to a temp path and renamed on success, and
prepare-data removes the manifest and sidecar it wrote when it fails, so
failures never leave partial outputs behind.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import sys
import tempfile
from pathlib import Path

from . import dataprep, frame_io, metrics, network, pipeline, resample, weights_io

__all__ = ["main", "run"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _build_parser() -> _Parser:
    parser = _Parser(prog="vsrhe", description="Compressed-video 4x super-resolution toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("upscale", help="super-resolve a C420 video 4x with the network")
    p.add_argument("--in", dest="input", required=True, help="input video (.y4m or raw .yuv)")
    p.add_argument("--weights", required=True, help="network weight file")
    p.add_argument("--out", required=True, help="output video path")
    p.add_argument("--overlap", type=_int_at_least(0), default=8,
                   help="tile overlap in LR pixels")
    p.add_argument("--threads", type=_int_at_least(1), default=None,
                   help="tile worker threads (default: the number of CPUs this "
                        "process may run on)")
    p.add_argument("--width", type=int, help="frame width (raw YUV input only)")
    p.add_argument("--height", type=int, help="frame height (raw YUV input only)")

    p = sub.add_parser("downscale", help="downscale a video by an integer factor")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--factor", type=int, default=4)
    p.add_argument("--kernel", choices=["bicubic", "lanczos", "nearest"], default="bicubic")
    p.add_argument("--kernel-param", type=float, default=None,
                   help="bicubic a (default -0.5) or Lanczos lobes (default 3)")
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)

    p = sub.add_parser("metrics", help="full-reference quality metrics")
    p.add_argument("--ref", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--metrics", default="psnr,ssim,msssim",
                   help="comma list from psnr,ssim,msssim")
    p.add_argument("--vmaf-csv", help="ingest per-frame VMAF scores (frame,vmaf CSV)")
    p.add_argument("--out", required=True, help="report CSV path")

    p = sub.add_parser("bench", help="Table-style method comparison on one reference")
    p.add_argument("--ref", required=True, help="ground-truth HR video")
    p.add_argument("--methods", default="bicubic,network")
    p.add_argument("--weights", help="weight file (needed for the network method)")
    p.add_argument("--out", required=True, help="output text table")
    p.add_argument("--overlap", type=_int_at_least(0), default=8)

    p = sub.add_parser("prepare-data", help="extract training patch pairs")
    p.add_argument("--lr-dir", required=True)
    p.add_argument("--hr-dir", required=True)
    p.add_argument("--count", type=_int_at_least(1), default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="manifest path (.jsonl)")

    p = sub.add_parser("inspect-weights", help="print weight file config and complexity")
    p.add_argument("path")

    return parser


def _load_model(path: str, overlap: int) -> pipeline.NetworkModel:
    """Load a weight file and check that `overlap` fits its tile size."""
    with open(path, "rb") as f:
        weights, cfg = weights_io.load_weights(f)
    if overlap >= cfg.input_size:
        raise _UsageError(f"--overlap must be less than the model's tile size "
                          f"{cfg.input_size}, got {overlap}")
    return pipeline.NetworkModel(weights, cfg)


def _read_video(path: str, width=None, height=None) -> frame_io.VideoSequence:
    if path.endswith(".y4m"):
        with open(path, "rb") as f:
            return frame_io.parse_y4m(f)
    if width is None or height is None:
        raise _UsageError(f"raw YUV input {path!r} requires --width and --height")
    with open(path, "rb") as f:
        return frame_io.read_raw_yuv(f, width, height)


def _check_out_dir(path: str) -> None:
    """Fail before any input is read when `path`'s directory does not exist."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ValueError(f"--out directory {directory} does not exist")


def _write_atomic(path: str, write) -> None:
    """Call write(f) on a binary temp file beside `path`, then rename it
    over `path`; on any failure the temp file is removed."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _video_writer(path: str):
    return frame_io.write_y4m if path.endswith(".y4m") else frame_io.write_raw_yuv


def _kernel_from_args(args) -> resample.KernelSpec:
    if args.kernel == "bicubic":
        return resample.KernelSpec.bicubic(-0.5 if args.kernel_param is None
                                           else args.kernel_param)
    if args.kernel == "lanczos":
        return resample.KernelSpec.lanczos(3 if args.kernel_param is None
                                           else int(args.kernel_param))
    return resample.KernelSpec.nearest()


def _cmd_upscale(args) -> int:
    _check_out_dir(args.out)
    model = _load_model(args.weights, args.overlap)
    seq = _read_video(args.input, args.width, args.height)
    out = pipeline.upscale_sequence(seq, model, overlap=args.overlap,
                                    threads=args.threads, progress=sys.stderr)
    _write_atomic(args.out, lambda f: _video_writer(args.out)(out, f))
    return 0


def _cmd_downscale(args) -> int:
    _check_out_dir(args.out)
    seq = _read_video(args.input, args.width, args.height)
    out = resample.downscale_video(seq, args.factor, _kernel_from_args(args))
    _write_atomic(args.out, lambda f: _video_writer(args.out)(out, f))
    return 0


def _metric_report(ref_seq, dist_seq, which, vmaf_path, sequence_id, method):
    if len(ref_seq) != len(dist_seq):
        raise ValueError(
            f"frame counts differ: {len(ref_seq)} vs {len(dist_seq)}")
    psnr_col, ssim_col, ms_col = [], [], []
    for r, d in zip(ref_seq.frames, dist_seq.frames):
        psnr_col.append(metrics.psnr_y(r, d) if "psnr" in which else float("nan"))
        if "ssim" in which and "msssim" in which:
            s, m = metrics.ssim_and_ms_ssim(r, d)    # one scale-0 pass for both
        else:
            s = metrics.ssim(r, d) if "ssim" in which else float("nan")
            m = metrics.ms_ssim(r, d) if "msssim" in which else float("nan")
        ssim_col.append(s)
        ms_col.append(m)
    vmaf_col = None
    if vmaf_path:
        with open(vmaf_path) as f:
            scores = metrics.read_vmaf_csv(f)
        vmaf_col = [scores.get(i, float("nan")) for i in range(len(ref_seq))]
    return metrics.MetricReport(sequence_id=sequence_id, method=method,
                                psnr_y=psnr_col, ssim=ssim_col, msssim=ms_col,
                                vmaf=vmaf_col)


def _cmd_metrics(args) -> int:
    which = {m.strip() for m in args.metrics.split(",") if m.strip()}
    unknown = which - {"psnr", "ssim", "msssim"}
    if unknown:
        raise _UsageError(f"unknown metrics: {', '.join(sorted(unknown))}")
    _check_out_dir(args.out)
    ref_seq = _read_video(args.ref)
    dist_seq = _read_video(args.dist)
    report = _metric_report(ref_seq, dist_seq, which, args.vmaf_csv,
                            sequence_id=args.dist, method="dist")
    buf = io.StringIO()
    report.write_csv(buf)
    _write_atomic(args.out, lambda f: f.write(buf.getvalue().encode("utf-8")))
    return 0


def _cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for method in methods:
        if method not in ("bicubic", "lanczos", "network"):
            raise _UsageError(f"unknown bench method {method!r}")
    if "network" in methods and not args.weights:
        raise _UsageError("the network method requires --weights")
    _check_out_dir(args.out)
    model = None
    if "network" in methods:
        model = _load_model(args.weights, args.overlap)
    ref = _read_video(args.ref)
    if not ref.frames:
        raise ValueError("reference has no frames")
    lr = resample.downscale_video(ref, network.SCALE, resample.KernelSpec.bicubic())
    reports = []
    which = {"psnr", "ssim", "msssim"}
    for method in methods:
        if method == "bicubic":
            cand = resample.upscale_video(lr, network.SCALE, resample.KernelSpec.bicubic())
        elif method == "lanczos":
            cand = resample.upscale_video(lr, network.SCALE, resample.KernelSpec.lanczos())
        else:
            cand = pipeline.upscale_sequence(lr, model, overlap=args.overlap)
        reports.append(_metric_report(ref, cand, which, None,
                                      sequence_id=args.ref, method=method))
    table = metrics.format_summary_table(reports).encode("utf-8")
    _write_atomic(args.out, lambda f: f.write(table))
    return 0


def _cmd_prepare_data(args) -> int:
    if Path(args.out).suffix == ".pak":
        raise _UsageError(f"--out {args.out!r} ends in .pak, the name of the patch "
                          "sidecar written beside the manifest; use a .jsonl path")
    _check_out_dir(args.out)
    lr_dir, hr_dir = Path(args.lr_dir), Path(args.hr_dir)
    lr_files = sorted(p for p in lr_dir.iterdir() if p.suffix == ".y4m")
    if not lr_files:
        raise ValueError(f"no .y4m sources in {lr_dir}")
    sources = []
    for lr_path in lr_files:
        hr_path = hr_dir / lr_path.name
        if not hr_path.exists():
            raise ValueError(f"no HR counterpart for {lr_path.name} in {hr_dir}")
        m = re.search(r"qp(\d+)", lr_path.stem, re.IGNORECASE)
        qp = int(m.group(1)) if m else dataprep.DEFAULT_QP_LIST[0]
        sources.append((lr_path, hr_path, qp))
    per_source = args.count // len(sources)
    if per_source:
        # every source but the last gives per_source pairs; the last, the rest
        counts = [per_source] * (len(sources) - 1)
        counts.append(args.count - per_source * (len(sources) - 1))
    else:
        # fewer pairs than sources: one pair from each of the first sources
        counts = [1] * args.count + [0] * (len(sources) - args.count)
    pairs = []
    for i, ((lr_path, hr_path, qp), n) in enumerate(zip(sources, counts)):
        if not n:
            continue
        lr_seq = _read_video(str(lr_path))
        hr_seq = _read_video(str(hr_path))
        pairs.extend(dataprep.extract_patch_pairs(
            lr_seq, hr_seq, n, seed=args.seed + i, qp_label=qp,
            source_id=lr_path.stem))
    dataprep.write_manifest(pairs, args.out)
    print(f"wrote {len(pairs)} pairs to {args.out}")
    return 0


def _cmd_inspect_weights(args) -> int:
    with open(args.path, "rb") as f:
        weights, cfg = weights_io.load_weights(f)
    print("config:")
    for k, v in cfg.to_dict().items():
        print(f"  {k}: {v}")
    print("tensors:")
    for name, t in weights.items():
        print(f"  {name}  f32 {list(t.shape)}")
    params = network.count_params(cfg)
    flops = network.count_flops(cfg)
    pdev = 100.0 * (params - network.REFERENCE_PARAMS) / network.REFERENCE_PARAMS
    fdev = 100.0 * (flops - network.REFERENCE_FLOPS) / network.REFERENCE_FLOPS
    print(f"params: {params} ({params / 1e6:.2f}M)  "
          f"paper: {network.REFERENCE_PARAMS / 1e6:.2f}M  deviation: {pdev:+.1f}%")
    print(f"flops (64x64 input, 2*MAC convention): {flops} ({flops / 1e9:.2f}G)  "
          f"paper: {network.REFERENCE_FLOPS / 1e9:.2f}G  deviation: {fdev:+.1f}%")
    return 0


_COMMANDS = {
    "upscale": _cmd_upscale,
    "downscale": _cmd_downscale,
    "metrics": _cmd_metrics,
    "bench": _cmd_bench,
    "prepare-data": _cmd_prepare_data,
    "inspect-weights": _cmd_inspect_weights,
}


def run(argv) -> int:
    """Parse argv (without the program name) and execute; returns exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError, MemoryError) as e:
        # a MemoryError raised by the interpreter itself has no message
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
