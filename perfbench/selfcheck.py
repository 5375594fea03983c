"""Shows that every output check of the benchmark passes on the program as
it is and fails when a weight file, an input or a kernel is perturbed.

    python3 perfbench/selfcheck.py     # from the checkout root; exit 0 = all as expected

Small inputs throughout: the sr_full check runs the same code as the
sampled-tile case here, only with the full-size config.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path[:0] = [str(Path.cwd() / "src"), str(Path.cwd())]

from vsrhe import network, resample, weights_io  # noqa: E402

from perfbench import reference as ref, workloads  # noqa: E402
from perfbench.workloads import SMALL, Quality, TrainPatches, Upscale  # noqa: E402


def failures(wl, state):
    """Check messages for one round; an op that raises fails as in run.py."""
    try:
        results = wl.run_round(state, 0)
    except Exception as e:
        return [f"{type(e).__name__}: {e}"]
    return [e for e in wl.check(state, results) if e]


def perturb_weights(state, name, factor):
    w = dict(state["weights"])
    w[name] = w[name] * np.float32(factor)
    with open(state["wpath"], "wb") as f:
        weights_io.save_weights(w, network.NetworkConfig(**SMALL), f)


def perturb_file(path, offset, length):
    data = bytearray(path.read_bytes())
    data[offset:offset + length] = bytes(255 - b for b in data[offset:offset + length])
    path.write_bytes(bytes(data))


def brighten_lr_clips(state):
    for name, (lr_frames, _) in state["frames"].items():
        ref.write_y4m(state["lr_dir"] / f"{name}.y4m",
                      [tuple(np.minimum(p, 215) + 20 for p in planes) for planes in lr_frames])


def uniform_softmax(t, axis=-1):
    return np.full_like(t, 1.0 / t.shape[axis])


def lanczos_upscale(seq, factor, kernel):
    return ORIGINAL_UPSCALE(seq, factor, resample.KernelSpec.lanczos())


ORIGINAL_UPSCALE = resample.upscale_video


def main():
    full_frame = Upscale("sr_small", SMALL, (64, 48), None, 1, 0.56, sample_tile=False)
    one_tile = Upscale("sr_tile", SMALL, (56, 32), None, 1, 0.56, sample_tile=True)
    cases = []   # (name, workload, perturbation or None)
    for wl in (full_frame, one_tile):
        cases += [
            (f"{wl.name}: as is", wl, None),
            (f"{wl.name}: attention q weights x1.5 in the weight file", wl,
             lambda s: perturb_weights(s, "block0.layer0.attn.wq.weight", 1.5)),
            (f"{wl.name}: output conv x1.05 in the weight file", wl,
             lambda s: perturb_weights(s, "tail.out.weight", 1.05)),
            (f"{wl.name}: softmax replaced by uniform weights", wl,
             lambda s: setattr(network, "softmax", uniform_softmax)),
            (f"{wl.name}: input clip inverted over 400 luma samples", wl,
             lambda s: perturb_file(s["clips"][0][0], 100, 400)),
        ]
    q, t = Quality(), TrainPatches()
    cases += [
        ("quality_1080p: as is", q, None),
        ("quality_1080p: reference clip inverted over 2000 luma samples", q,
         lambda s: perturb_file(s["path"], 1920 * 500, 2000)),
        ("train_patches: as is", t, None),
        ("train_patches: LR source clips brightened by 20", t, brighten_lr_clips),
        ("train_patches: Lanczos in place of bicubic for the LR patch", t,
         lambda s: setattr(resample, "upscale_video", lanczos_upscale)),
    ]
    ok = True
    softmax = network.softmax
    for name, wl, perturb in cases:
        with tempfile.TemporaryDirectory(dir=Path.cwd() / ".perfbench") as d:
            state = wl.setup(Path(d), seed=7)
            try:
                if perturb:
                    perturb(state)
                errs = failures(wl, state)
            finally:
                network.softmax = softmax
                resample.upscale_video = ORIGINAL_UPSCALE
        as_expected = bool(errs) == (perturb is not None)
        ok &= as_expected
        print(f"{'ok  ' if as_expected else 'FAIL'} {name}: "
              f"{errs[0] if errs else 'all outputs pass'}")

    # the memory guard: sr_full must refuse to start, before any work, when
    # MemAvailable is below what its concurrent full-size tiles need
    saved = workloads.mem_available_mb
    workloads.mem_available_mb = lambda: 1000
    try:
        with tempfile.TemporaryDirectory(dir=Path.cwd() / ".perfbench") as d:
            workloads.WORKLOADS["sr_full"].setup(Path(d), seed=7)
        msg = None
    except workloads.NotStarted as e:
        msg = str(e)
    finally:
        workloads.mem_available_mb = saved
    ok &= msg is not None
    print(f"{'ok  ' if msg else 'FAIL'} sr_full with MemAvailable 1000 MB: "
          f"{msg or 'started anyway'}")
    return 0 if ok else 1


if __name__ == "__main__":
    (Path.cwd() / ".perfbench").mkdir(exist_ok=True)
    sys.exit(main())
