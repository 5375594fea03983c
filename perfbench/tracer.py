"""Spans around the public functions each vsrhe layer calls, installed from
outside the program.

`Tracer.install()` replaces each target function, in every module namespace
that binds it, with a wrapper that records a span; `uninstall()` puts the
originals back. Spans are kept in memory and written out as JSONL at the end
of the run. A span's self time is its duration minus the part of its
interval covered by its child spans. Spans opened in a thread with no open
span of its own (the pipeline's tile pool, the only place the program starts
threads) are children of the innermost span open in the main thread.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

from vsrhe import (cli, dataprep, frame_io, losses, metrics, network, pipeline,
                   resample, tensor_ops, weights_io)


def _seq_bytes(seq):
    return sum(p.nbytes for f in seq.frames for p in (f.y, f.cb, f.cr))


def _matmul_kind(a, k, res):
    x, y = a[0], a[1]
    if x.ndim > 2:
        return "attn"
    return "proj" if x.shape[-1] == y.shape[-1] else "mlp"


# (span name, function, module namespaces whose binding is replaced, tag).
# A tag maps (args, kwargs, result) to the span's recorded detail.
TARGETS = [
    ("cli.run", cli.run, [cli], None),
    ("frame_io.parse", frame_io.parse_y4m, [frame_io],
     lambda a, k, r: _seq_bytes(r)),
    ("frame_io.parse", frame_io.read_raw_yuv, [frame_io],
     lambda a, k, r: _seq_bytes(r)),
    ("frame_io.write", frame_io.write_y4m, [frame_io],
     lambda a, k, r: _seq_bytes(a[0])),
    ("frame_io.write", frame_io.write_raw_yuv, [frame_io],
     lambda a, k, r: _seq_bytes(a[0])),
    ("frame_io.convert", frame_io.chroma_upsample_nn, [pipeline], None),
    ("frame_io.convert", frame_io.chroma_downsample_mean, [pipeline], None),
    ("frame_io.convert", frame_io.to_normalized, [pipeline], None),
    ("frame_io.convert", frame_io.from_normalized, [pipeline], None),
    ("weights_io.load", weights_io.load_weights, [weights_io],
     lambda a, k, r: sum(t.nbytes for t in r[0].values())),
    ("weights_io.save", weights_io.save_weights, [weights_io], None),
    ("pipeline.sequence", pipeline.upscale_sequence, [pipeline], None),
    ("pipeline.frame", pipeline.upscale_frame, [pipeline],
     lambda a, k, r: k.get("threads", 1)),
    ("pipeline.plan", pipeline.plan_tiles, [pipeline], None),
    ("network.forward", network.forward, [network, pipeline],
     lambda a, k, r: network.count_flops(a[2], *a[0].shape[1:])),
    ("network.validate", network.validate_weights, [network], None),
    ("network.block", network.hiet_block_forward, [network], None),
    ("network.layer", network.hiet_layer_forward, [network],
     lambda a, k, r: a[3] if len(a) > 3 else k["window"]),
    ("tensor_ops.conv2d", tensor_ops.conv2d, [network], None),
    ("tensor_ops.matmul", tensor_ops.matmul, [network], _matmul_kind),
    ("tensor_ops.softmax", tensor_ops.softmax, [network],
     lambda a, k, r: a[0].nbytes),
    ("tensor_ops.layer_norm", tensor_ops.layer_norm, [network], None),
    ("tensor_ops.gelu", tensor_ops.gelu, [network], None),
    ("tensor_ops.window", tensor_ops.window_partition, [network], None),
    ("tensor_ops.window", tensor_ops.window_merge, [network], None),
    ("tensor_ops.pixel_shuffle", tensor_ops.pixel_shuffle, [network], None),
    ("resample.down", resample.downscale_video, [resample],
     lambda a, k, r: sum(f.y.size for f in r.frames)),
    ("resample.up", resample.upscale_video, [resample],
     lambda a, k, r: sum(f.y.size for f in r.frames)),
    ("metrics.psnr", metrics.psnr_y, [metrics], None),
    ("metrics.ssim", metrics.ssim, [metrics], None),
    ("metrics.ms_ssim", metrics.ms_ssim, [metrics], None),
    ("losses.loss", losses.perceptual_loss, [losses], None),
    ("losses.grad", losses.perceptual_loss_grad, [losses], None),
    ("dataprep.extract", dataprep.extract_patch_pairs, [dataprep], None),
    ("dataprep.write", dataprep.write_manifest, [dataprep],
     lambda a, k, r: r.pak_path.stat().st_size),
    ("dataprep.read", dataprep.read_manifest, [dataprep], None),
    ("dataprep.read", dataprep.load_pair, [dataprep], None),
    ("dataprep.augment", dataprep.augment, [dataprep], None),
]


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent, name, detail, t0, t1, thread, op)
        self.op = None           # op index stamped on every span
        self._local = threading.local()
        self._main = []          # open-span stack of the main thread
        self._ids = iter(range(1 << 62))
        self._saved = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name, fn, tag):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main[-1] if self._main else None)
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            detail = tag(args, kwargs, result) if tag else None
            self.spans.append((sid, parent, name, detail, t0, t1,
                               threading.get_ident(), self.op))
            return result
        return wrapper

    def install(self):
        for name, fn, modules, tag in TARGETS:
            wrapper = self._wrap(name, fn, tag)
            for mod in modules:
                attr = fn.__name__
                if getattr(mod, attr) is not fn:
                    raise RuntimeError(f"{mod.__name__}.{attr} is not {fn.__qualname__}")
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def write(self, path):
        with open(path, "w") as f:
            for sid, parent, name, detail, t0, t1, tid, op in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "detail": detail, "start": t0, "end": t1,
                                    "thread": tid, "op": op}) + "\n")

    def self_times(self):
        """{span id: self seconds}: duration minus the union of child intervals."""
        children = defaultdict(list)
        for sid, parent, _, _, t0, t1, _, _ in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out = {}
        for sid, _, _, _, t0, t1, _, _ in self.spans:
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[sid] = (t1 - t0) - covered
        return out


def layer_metrics(tracer, ops, op_wall, setups):
    """Per-layer metrics from the spans of `ops` traced ops whose summed wall
    time is `op_wall`; seconds and counts are per op, except
    weights_io.save_s, which is per set-up."""
    selfs = tracer.self_times()
    by_id = {s[0]: s for s in tracer.spans}
    tot = defaultdict(float)
    softmax_max = 0
    forward_ids = set()
    frames = []                  # (threads, span id, wall) per pipeline.frame
    tile_spans = defaultdict(list)
    for sid, parent, name, detail, t0, t1, tid, op in tracer.spans:
        dur, slf = t1 - t0, selfs[sid]
        if op is None:           # set-up
            if name == "weights_io.save":
                tot["weights_io.save_s"] += dur
            continue
        tot["self_sum"] += slf
        if name == "tensor_ops.matmul":
            tot[f"tensor_ops.matmul_{detail}_s"] += dur
        elif name == "tensor_ops.softmax":
            tot["tensor_ops.softmax_s"] += dur
            tot["tensor_ops.softmax_mb"] += detail / 1e6
            softmax_max = max(softmax_max, detail)
        elif name.startswith("tensor_ops."):
            tot[name + "_s"] += dur
        elif name == "network.forward":
            forward_ids.add(sid)
            tot["network.forward_s"] += dur
            tot["network.forward_calls"] += 1
            tot["network.gflop"] += detail / 1e9
            if parent is not None and by_id[parent][2] == "pipeline.frame":
                tot["pipeline.model_s"] += dur
                tot["pipeline.tiles"] += 1
                tile_spans[parent].append((t0, t1))
        elif name == "network.validate":
            tot["network.validate_s"] += dur
        elif name == "network.layer":
            tot[f"network.layer_w{detail}_s"] += dur
        elif name == "pipeline.frame":
            frames.append((detail, sid, t1 - t0))
        elif name in ("frame_io.parse", "frame_io.write"):
            tot[name + "_s"] += dur
            tot["frame_io.bytes"] += detail
        elif name == "frame_io.convert":
            tot["frame_io.convert_s"] += dur
        elif name == "weights_io.load":
            tot["weights_io.load_s"] += dur
            tot["weights_io.load_mb"] += detail / 1e6
        elif name in ("resample.down", "resample.up"):
            tot[name + "_s"] += dur
            tot["resample.out_mpix"] += detail / 1e6
        elif name == "dataprep.write":
            tot["dataprep.write_s"] += dur
            tot["dataprep.pak_mb"] += detail / 1e6
        elif name in ("metrics.psnr", "metrics.ssim", "metrics.ms_ssim",
                      "losses.loss", "losses.grad", "dataprep.extract",
                      "dataprep.read", "dataprep.augment"):
            tot[name + "_s"] += dur
        if name.startswith("pipeline."):
            tot["pipeline.self_s"] += slf
        elif name == "cli.run":
            tot["cli.self_s"] += slf
        elif name in ("network.forward", "network.block", "network.layer"):
            tot["network.layer_self_s"] += slf

    # self time of every span nested in a forward span (forward's own included)
    inside = 0.0
    for sid, parent, *_ in tracer.spans:
        node = sid
        while node is not None and node not in forward_ids:
            node = by_id[node][1] if node in by_id else None
        if node is not None:
            inside += selfs[sid]
    idle = frame_wall = 0.0
    for threads, sid, wall in frames:
        tiles = sorted(tile_spans.get(sid, ()))
        if tiles:
            tile_phase = max(t1 for _, t1 in tiles) - tiles[0][0]
            idle += threads * tile_phase - sum(t1 - t0 for t0, t1 in tiles)
        frame_wall += threads * wall

    n = max(ops, 1)
    names = ["cli.self_s", "frame_io.parse_s", "frame_io.write_s", "frame_io.bytes",
             "frame_io.convert_s", "weights_io.load_s", "weights_io.load_mb",
             "pipeline.self_s", "pipeline.tiles", "pipeline.model_s",
             "pipeline.tile_wait_s", "network.forward_s", "network.forward_calls",
             "network.validate_s", "network.layer_w64_s", "network.layer_w32_s",
             "network.layer_w8_s", "network.layer_self_s",
             "network.gflop", "tensor_ops.softmax_s", "tensor_ops.softmax_mb",
             "tensor_ops.matmul_attn_s", "tensor_ops.matmul_proj_s",
             "tensor_ops.matmul_mlp_s", "tensor_ops.conv2d_s", "tensor_ops.layer_norm_s",
             "tensor_ops.gelu_s", "tensor_ops.window_s", "tensor_ops.pixel_shuffle_s",
             "resample.down_s", "resample.up_s", "resample.out_mpix", "metrics.psnr_s",
             "metrics.ssim_s", "metrics.ms_ssim_s", "losses.loss_s", "losses.grad_s",
             "dataprep.extract_s", "dataprep.write_s", "dataprep.read_s",
             "dataprep.augment_s"]
    tot["pipeline.tile_wait_s"] = idle
    out = {k: tot[k] / n for k in names}
    out["dataprep.pak_mb"] = tot["dataprep.pak_mb"] / max(
        sum(1 for s in tracer.spans if s[2] == "dataprep.write" and s[7] is not None), 1)
    out["weights_io.save_s"] = tot["weights_io.save_s"] / max(setups, 1)
    out["tensor_ops.softmax_max_mb"] = softmax_max / 1e6
    out["network.self_sum_s"] = inside / n
    out["network.gflop_per_s"] = (tot["network.gflop"] / tot["network.forward_s"]
                                  if tot["network.forward_s"] else 0.0)
    out["pipeline.worker_busy"] = tot["pipeline.model_s"] / frame_wall if frame_wall else 0.0
    out["trace.coverage"] = tot["self_sum"] / op_wall if op_wall else 0.0
    return out
