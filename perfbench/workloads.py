"""The four benchmark workloads.

Each workload makes its inputs from the seed in `setup`, drives the program
the way a user does in `run_round` (in-process `vsrhe.cli.run`, or the public
Python API where there is no CLI path), and checks every op's output against
the float64 oracles in `reference.py` in `check`. Modules of the program are
always looked up by attribute at call time, so the tracer's wrappers see the
calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import vsrhe.cli
from vsrhe import dataprep, losses, network, resample, weights_io
from vsrhe.frame_io import VideoSequence

from . import reference as ref

# Peak RSS of one full-size 64x64 tile forward is about 1.68 GB (6 heads x
# 4096 x 4096 float32 scores, plus exp and normalise temporaries); two
# concurrent tiles peaked at 3.3 GB.
FULL_TILE_NEED_MB = 1700


class NotStarted(Exception):
    """The machine cannot run the workload; nothing was measured."""


@dataclass
class OpResult:
    seconds: float
    key: str                 # ops with the same key read the same input
    output: bytes            # what the op produced, compared across ops
    units: dict              # out_mpix, frames, pairs
    detail: dict = field(default_factory=dict)


def smooth_plane(rng, h, w, terms=6, noise=2.0):
    """Smooth uint8 content in [16, 235]: random low-frequency cosines plus
    a little noise."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    acc = np.zeros((h, w))
    for _ in range(terms):
        fx, fy = rng.uniform(0.2, 3.0, 2) * 2 * np.pi
        acc += rng.uniform(0.5, 1.0) * np.cos(fx * xx / w + fy * yy / h + rng.uniform(0, 2 * np.pi))
    acc = (acc - acc.min()) / (np.ptp(acc) + 1e-9)
    acc = 16 + 219 * acc + rng.normal(0.0, noise, (h, w))
    return np.clip(np.rint(acc), 0, 255).astype(np.uint8)


def c420_frame(rng, w, h, noise=2.0):
    return (smooth_plane(rng, h, w, noise=noise),
            smooth_plane(rng, h // 2, w // 2, noise=noise),
            smooth_plane(rng, h // 2, w // 2, noise=noise))


def bench_weights(cfg, seed, out_std):
    """Seeded weights whose output depends on every layer.

    `init_random` zeroes biases, norm shifts and the output conv, so its
    network maps every input to a constant frame, and its N(0, 0.02)
    projections make attention almost uniform. Here the projections get
    1/sqrt(fan_in) scale (q and k twice that, so softmax is peaked), biases,
    norm affines and the output conv are non-zero, and the output is
    centred at 0.5 with a spread of roughly `out_std` after the tail.
    """
    w = network.init_random(cfg, seed)
    rng = np.random.Generator(np.random.PCG64([seed, 1]))
    for name, t in w.items():
        if name.endswith(".gamma"):
            v = 1.0 + 0.1 * rng.standard_normal(t.shape)
        elif name == "tail.out.bias":
            v = 0.5 + 0.02 * rng.standard_normal(t.shape)
        elif name.endswith((".beta", ".bias")):
            v = 0.02 * rng.standard_normal(t.shape)
        elif name == "tail.out.weight":
            v = out_std * rng.standard_normal(t.shape)
        elif ".attn." in name or ".mlp." in name:
            gain = 2.0 if (".wq." in name or ".wk." in name) else 1.0
            v = gain / np.sqrt(t.shape[1]) * rng.standard_normal(t.shape)
        else:
            continue
        w[name] = v.astype(np.float32)
    return w


def mem_available_mb():
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) // 1024
    except OSError:
        pass
    return None


def cli(argv):
    """Run one vsrhe command in-process with its console output discarded;
    raises on a non-zero exit code."""
    with open(os.devnull, "w") as null, \
            contextlib.redirect_stdout(null), contextlib.redirect_stderr(null):
        code = vsrhe.cli.run(argv)
    if code != 0:
        raise RuntimeError(f"vsrhe {argv[0]} exited with {code}")


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


class Workload:
    name = ""
    # Untimed warm-up: rounds until this many seconds have passed (at least
    # one). The timed rounds should start at the steady state.
    warmup_s = 0.0

    def setup(self, work: Path, seed: int):
        raise NotImplementedError

    def run_round(self, state, r: int) -> list:
        raise NotImplementedError

    def check(self, state, results: list) -> list:
        """One error message (or None) per result."""
        raise NotImplementedError


class Upscale(Workload):
    """`vsrhe upscale` on one-frame C420 clips with seeded weights."""

    def __init__(self, name, cfg, size, threads, clips, out_std, sample_tile,
                 warmup_s=0.0, tile_need_mb=0):
        self.name, self.cfg, self.size, self.warmup_s = name, cfg, size, warmup_s
        self.threads, self.clips, self.out_std = threads, clips, out_std
        self.sample_tile, self.tile_need_mb = sample_tile, tile_need_mb

    def setup(self, work, seed):
        cfg = network.NetworkConfig(**self.cfg)
        threads = min(self.threads or 1, len(os.sched_getaffinity(0)))
        need = self.tile_need_mb * threads
        avail = mem_available_mb()
        if avail is not None and avail < need:
            raise NotStarted(f"MemAvailable {avail} MB is below the {need} MB that "
                             f"{threads} concurrent tiles of this model need")
        weights = bench_weights(cfg, seed, self.out_std)
        wpath = work / "weights.bin"
        with open(wpath, "wb") as f:
            weights_io.save_weights(weights, cfg, f)
        rng = np.random.Generator(np.random.PCG64([seed, 2]))
        w, h = self.size
        clips = []
        for i in range(self.clips):
            planes = c420_frame(rng, w, h)
            path = work / f"clip{i}.y4m"
            ref.write_y4m(path, [planes])
            clips.append((path, planes))
        tiles = (len(ref.tile_origins(max(w, cfg.input_size), cfg.input_size, 8))
                 * len(ref.tile_origins(max(h, cfg.input_size), cfg.input_size, 8)))
        sampled = [int(rng.integers(tiles)) for _ in clips] if self.sample_tile else None
        return {"work": work, "weights": weights, "wpath": wpath, "clips": clips,
                "threads": ["--threads", str(threads)] if self.threads else [],
                "sampled": sampled, "reference": {}}

    def run_round(self, state, r):
        i = r % len(state["clips"])
        path, _ = state["clips"][i]
        out = state["work"] / f"out{i}.y4m"
        t0 = time.perf_counter()
        cli(["upscale", "--in", str(path), "--weights", str(state["wpath"]),
             "--out", str(out)] + state["threads"])
        dt = time.perf_counter() - t0
        w, h = self.size
        return [OpResult(dt, f"clip{i}", out.read_bytes(),
                         {"out_mpix": 16 * w * h / 1e6, "frames": 1, "pairs": 1})]

    def _reference(self, state, i):
        if i not in state["reference"]:
            _, planes = state["clips"][i]
            tiles = None if state["sampled"] is None else [state["sampled"][i]]
            state["reference"][i] = ref.upscale_frame(planes, state["weights"],
                                                     self.cfg, tiles=tiles)
        return state["reference"][i]

    def check(self, state, results):
        errors, seen = [], {}
        for res in results:
            i = int(res.key[4:])
            if (i, res.output) not in seen:
                got = ref.parse_y4m(res.output)
                y, cb, cr, mask = self._reference(state, i)
                seen[i, res.output] = ref.compare_planes(got[0], (y, cb, cr), mask)
            errors.append(seen[i, res.output])
        return errors


class Quality(Workload):
    """`vsrhe bench --methods bicubic,lanczos` on a 1080p smooth clip."""

    name = "quality_1080p"
    warmup_s = 2.0
    methods = ("bicubic", "lanczos")

    def setup(self, work, seed):
        rng = np.random.Generator(np.random.PCG64([seed, 3]))
        planes = c420_frame(rng, 1920, 1080, noise=1.0)
        path = work / "ref.y4m"
        ref.write_y4m(path, [planes])
        return {"work": work, "path": path, "planes": planes, "reference": None}

    def run_round(self, state, r):
        out = state["work"] / "table.txt"
        t0 = time.perf_counter()
        cli(["bench", "--ref", str(state["path"]), "--methods", ",".join(self.methods),
             "--out", str(out)])
        dt = time.perf_counter() - t0
        return [OpResult(dt, "ref", out.read_bytes(),
                         {"out_mpix": len(self.methods) * 1920 * 1080 / 1e6,
                          "frames": 1, "pairs": len(self.methods)})]

    def _reference(self, state):
        """PSNR-Y of each method's candidate, recomputed in float64."""
        if state["reference"] is None:
            y = state["planes"][0]
            h, w = y.shape
            lr = ref.resample(y, w // 4, h // 4, "bicubic")
            state["reference"] = {m: ref.psnr_y(y, ref.resample(lr, w, h, m))
                                  for m in self.methods}
        return state["reference"]

    def check(self, state, results):
        want = self._reference(state)
        errors = []
        for res in results:
            rows = {}
            for line in res.output.decode().splitlines()[1:]:
                cells = line.split()
                rows[cells[0]] = float(cells[1])
            err = None
            for m, psnr in want.items():
                if m not in rows:
                    err = f"method {m} missing from the bench table"
                elif abs(rows[m] - psnr) > 0.02:
                    err = f"{m} PSNR-Y {rows[m]:.2f} dB, float64 oracle {psnr:.4f} dB"
            errors.append(err)
        return errors


class TrainPatches(Workload):
    """`vsrhe prepare-data` on two clip pairs, then per patch pair:
    read_manifest/load_pair, augment, bicubic x4 of the LR patch,
    perceptual_loss and perceptual_loss_grad."""

    name = "train_patches"
    warmup_s = 2.0
    pairs_per_round = 8
    hr_size = (512, 288)

    def setup(self, work, seed):
        rng = np.random.Generator(np.random.PCG64([seed, 4]))
        lr_dir, hr_dir = work / "lr", work / "hr"
        lr_dir.mkdir()
        hr_dir.mkdir()
        w, h = self.hr_size
        frames = {}
        for name in ("clipa_qp22", "clipb_qp32"):
            hr_frames, lr_frames = [], []
            for _ in range(2):
                hr = c420_frame(rng, w, h)
                lr = tuple(np.clip(np.rint(
                    p.reshape(p.shape[0] // 4, 4, p.shape[1] // 4, 4).mean(axis=(1, 3))
                    + rng.normal(0.0, 2.0, (p.shape[0] // 4, p.shape[1] // 4))), 0, 255
                ).astype(np.uint8) for p in hr)
                hr_frames.append(hr)
                lr_frames.append(lr)
            ref.write_y4m(hr_dir / f"{name}.y4m", hr_frames)
            ref.write_y4m(lr_dir / f"{name}.y4m", lr_frames)
            frames[name] = (lr_frames, hr_frames)
        return {"work": work, "lr_dir": lr_dir, "hr_dir": hr_dir, "frames": frames,
                "seed": seed, "aug": np.random.Generator(np.random.PCG64([seed, 5]))
                .integers(0, (4, 2, 2), (self.pairs_per_round, 3))}

    def run_round(self, state, r):
        manifest = state["work"] / f"manifest{r % 2}.jsonl"
        cli(["prepare-data", "--lr-dir", str(state["lr_dir"]), "--hr-dir",
             str(state["hr_dir"]), "--count", str(self.pairs_per_round),
             "--seed", str(state["seed"]), "--out", str(manifest)])
        results = []
        for j in range(self.pairs_per_round):
            rot, hflip, vflip = (int(v) for v in state["aug"][j])
            t0 = time.perf_counter()
            m = dataprep.read_manifest(manifest)
            pair = dataprep.augment(dataprep.load_pair(m, j), rot, bool(hflip), bool(vflip))
            up = resample.upscale_video(VideoSequence(frames=[pair.lr_patch]), 4,
                                        resample.KernelSpec.bicubic()).frames[0]
            pred = np.stack([up.y, up.cb, up.cr]).astype(np.float32) / np.float32(255)
            hr = pair.hr_patch
            target = np.stack([hr.y, hr.cb, hr.cr]).astype(np.float32) / np.float32(255)
            loss = losses.perceptual_loss(pred, target)
            grad = losses.perceptual_loss_grad(pred, target)
            dt = time.perf_counter() - t0
            rec = m.records[j]
            out = b"".join(p.tobytes() for p in (pair.lr_patch.y, pair.lr_patch.cb,
                                                 pair.lr_patch.cr, hr.y, hr.cb, hr.cr))
            out += np.array([loss.total, loss.l1, loss.l2], np.float64).tobytes()
            out += grad.tobytes()
            results.append(OpResult(dt, f"pair{j}", out,
                                    {"out_mpix": up.y.size / 1e6, "frames": 1, "pairs": 1},
                                    {"source": rec["source_id"], "frame": rec["frame_index"],
                                     "origin": tuple(rec["origin"]), "aug": (rot, hflip, vflip),
                                     "l1": loss.l1, "l2": loss.l2,
                                     "grad_ok": bool(grad.shape == pred.shape
                                                     and np.isfinite(grad).all())}))
        return results

    def check(self, state, results):
        errors = []
        for res in results:
            d = res.detail
            lr_frames, hr_frames = state["frames"][d["source"]]
            (ox, oy), (rot, hflip, vflip) = d["origin"], d["aug"]
            up2 = lambda p: np.repeat(np.repeat(p, 2, axis=0), 2, axis=1)

            def crop(planes, x, y, size):
                full = (planes[0], up2(planes[1]), up2(planes[2]))
                out = []
                for p in full:
                    p = np.rot90(p[y:y + size, x:x + size], rot)
                    p = p[:, ::-1] if hflip else p
                    out.append(np.ascontiguousarray(p[::-1, :] if vflip else p))
                return out

            lr = crop(lr_frames[d["frame"]], ox, oy, 64)
            hr = crop(hr_frames[d["frame"]], 4 * ox, 4 * oy, 256)
            want_bytes = b"".join(p.tobytes() for p in lr + hr)
            if res.output[:len(want_bytes)] != want_bytes:
                errors.append(f"{res.key}: loaded patch pair differs from the source crop")
                continue
            pred = np.stack([ref.resample(p, 256, 256, "bicubic") for p in lr]) / 255.0
            l1, l2 = ref.l1_l2(pred, np.stack(hr) / 255.0)
            if abs(d["l1"] - l1) > 2e-4 or abs(d["l2"] - l2) > 2e-5:
                errors.append(f"{res.key}: l1/l2 {d['l1']:.6f}/{d['l2']:.7f}, "
                              f"float64 oracle {l1:.6f}/{l2:.7f}")
            elif not d["grad_ok"]:
                errors.append(f"{res.key}: gradient has the wrong shape or is not finite")
            else:
                errors.append(None)
        return errors


FULL = dict(channel_dim=126, blocks=6, window_sizes=(64, 32, 8, 32, 64), heads=6,
            input_size=64)
SMALL = dict(channel_dim=24, blocks=1, window_sizes=(16, 8, 16), heads=6, input_size=32)

WORKLOADS = {
    "sr_full": Upscale("sr_full", FULL, (120, 60), threads=2, clips=1,
                       out_std=0.0018, sample_tile=True, tile_need_mb=FULL_TILE_NEED_MB),
    # Not in BENCHMARK.json: its op time varies by process (see README.md).
    # Within a process it rises over the first few ops; the warm-up covers that.
    "sr_small": Upscale("sr_small", SMALL, (320, 180), threads=None, clips=2,
                        out_std=0.56, sample_tile=False, warmup_s=8.0),
    "quality_1080p": Quality(),
    "train_patches": TrainPatches(),
}
