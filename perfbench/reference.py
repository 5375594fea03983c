"""Float64 oracles the benchmark checks the program's outputs against.

Nothing here imports vsrhe: each function is written from the behaviour the
toolkit documents (Y4M layout, the network's layer equations, the tiling and
blending rule, separable resampling, PSNR, the L1/L2 loss terms), the obvious
way and in float64, so a broken kernel in the program cannot also break its
oracle.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf


# --- Y4M ------------------------------------------------------------------

def write_y4m(path, frames, chroma="420"):
    """frames: list of (y, cb, cr) uint8 planes."""
    h, w = frames[0][0].shape
    with open(path, "wb") as f:
        f.write(f"YUV4MPEG2 W{w} H{h} F25:1 C{chroma}\n".encode())
        for planes in frames:
            f.write(b"FRAME\n")
            for p in planes:
                f.write(np.ascontiguousarray(p, dtype=np.uint8).tobytes())


def parse_y4m(data):
    """Y4M bytes -> list of (y, cb, cr) uint8 planes."""
    end = data.index(b"\n")
    tokens = data[:end].decode("ascii").split()
    if tokens[0] != "YUV4MPEG2":
        raise ValueError("not a Y4M stream")
    fields = {t[0]: t[1:] for t in tokens[1:]}
    w, h = int(fields["W"]), int(fields["H"])
    cw, ch = (w, h) if fields.get("C", "420") == "444" else (w // 2, h // 2)
    frames, pos = [], end + 1
    while pos < len(data):
        pos = data.index(b"\n", pos) + 1
        planes = []
        for pw, ph in ((w, h), (cw, ch), (cw, ch)):
            n = pw * ph
            planes.append(np.frombuffer(data, np.uint8, n, pos).reshape(ph, pw))
            pos += n
        frames.append(tuple(planes))
    return frames


def quantize(t):
    """[0,1] float -> uint8 code values, round half away from zero."""
    return np.floor(np.clip(t, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def chroma_pool(p444):
    """Mean of each 2x2 block of a uint8 plane, rounded half up."""
    h, w = p444.shape
    m = p444.reshape(h // 2, 2, w // 2, 2).astype(np.float64).mean(axis=(1, 3))
    return np.floor(m + 0.5).astype(np.uint8)


# --- network ----------------------------------------------------------------

def _conv3x3(x, k, b):
    c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros((k.shape[0], h, w))
    for a in range(3):
        for bb in range(3):
            out += np.tensordot(k[:, :, a, bb], xp[:, a:a + h, bb:bb + w], axes=(1, 0))
    return out + b[:, None, None]


def _layer_norm(t, g, b):
    mu = t.mean(axis=1, keepdims=True)
    var = ((t - mu) ** 2).mean(axis=1, keepdims=True)
    return (t - mu) / np.sqrt(var + 1e-5) * g + b


def _attention_layer(tok, W, p, heads):
    """One pre-norm layer on the (T, C) tokens of one window."""
    n, c = tok.shape
    hd = c // heads
    hn = _layer_norm(tok, W[p + "norm1.gamma"], W[p + "norm1.beta"])
    q, k, v = (hn @ W[p + f"attn.{m}.weight"].T + W[p + f"attn.{m}.bias"]
               for m in ("wq", "wk", "wv"))
    ctx = np.empty_like(q)
    for h in range(heads):
        sl = slice(h * hd, (h + 1) * hd)
        s = q[:, sl] @ k[:, sl].T / math.sqrt(hd)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        ctx[:, sl] = (e / e.sum(axis=1, keepdims=True)) @ v[:, sl]
    tok = tok + ctx @ W[p + "attn.wo.weight"].T + W[p + "attn.wo.bias"]
    hn = _layer_norm(tok, W[p + "norm2.gamma"], W[p + "norm2.beta"])
    m = hn @ W[p + "mlp.fc1.weight"].T + W[p + "mlp.fc1.bias"]
    m = 0.5 * m * (1.0 + erf(m / math.sqrt(2.0)))
    return tok + m @ W[p + "mlp.fc2.weight"].T + W[p + "mlp.fc2.bias"]


def forward(x, weights, cfg):
    """Network forward [3, s, s] -> [3, 4s, 4s] in float64.

    `cfg` is a plain dict with blocks, window_sizes, heads (and input_size
    for `upscale_frame`).
    """
    W = {k: np.asarray(v, dtype=np.float64) for k, v in weights.items()}
    head = _conv3x3(np.asarray(x, np.float64), W["head.conv.weight"], W["head.conv.bias"])
    f = head
    c, h, w = head.shape
    for blk in range(cfg["blocks"]):
        y = f
        for li, win in enumerate(cfg["window_sizes"]):
            p = f"block{blk}.layer{li}."
            y = y.copy()
            for wy in range(0, h, win):
                for wx in range(0, w, win):
                    tok = y[:, wy:wy + win, wx:wx + win].reshape(c, win * win).T
                    out = _attention_layer(tok, W, p, cfg["heads"])
                    y[:, wy:wy + win, wx:wx + win] = out.T.reshape(c, win, win)
        f = f + _conv3x3(y, W[f"block{blk}.fuse.weight"], W[f"block{blk}.fuse.bias"])
    f = _conv3x3(f, W["body.conv.weight"], W["body.conv.bias"]) + head
    stage = 0
    while f"tail.up{stage}.conv.weight" in W:
        f = _conv3x3(f, W[f"tail.up{stage}.conv.weight"], W[f"tail.up{stage}.conv.bias"])
        # sub-pixel: out(c, 2h+i, 2w+j) = in(4c + 2i + j, h, w)
        c4, hh, ww = f.shape
        f = f.reshape(c4 // 4, 2, 2, hh, ww).transpose(0, 3, 1, 4, 2).reshape(
            c4 // 4, 2 * hh, 2 * ww)
        stage += 1
    return _conv3x3(f, W["tail.out.weight"], W["tail.out.bias"])


# --- tiled upscale ------------------------------------------------------------

def tile_origins(size, tile, overlap):
    xs = list(range(0, size - tile + 1, tile - overlap))
    if xs[-1] != size - tile:
        xs.append(size - tile)
    return xs


def _ramp(n, r, at_start, at_end):
    w = np.ones(n)
    ramp = (np.arange(r) + 0.5) / r
    if r and at_start:
        w[:r] = ramp
    if r and at_end:
        w[-r:] = ramp[::-1]
    return w


def lr_tensor(planes, ph, pw):
    """C420 planes -> normalized [3, ph, pw] float64, reflect-padded."""
    y, cb, cr = planes
    up = lambda p: np.repeat(np.repeat(p, 2, axis=0), 2, axis=1)
    x = np.stack([y, up(cb), up(cr)]).astype(np.float64) / 255.0
    h, w = y.shape
    return np.pad(x, ((0, 0), (0, ph - h), (0, pw - w)), mode="reflect")


def upscale_frame(planes, weights, cfg, overlap=8, tiles=None):
    """Tiled 4x upscale of one C420 frame.

    Returns (y, cb, cr, mask): quantized planes and a boolean HR mask of the
    pixels this call computed. With `tiles` (indices into the raster-order
    origin list) only those tiles are run, and the mask covers the pixels
    no other tile overlaps; without it every tile runs and the mask is full.
    """
    tile, s = cfg["input_size"], 4
    h, w = planes[0].shape
    ph, pw = max(h, tile), max(w, tile)
    x = lr_tensor(planes, ph, pw)
    origins = [(ox, oy) for oy in tile_origins(ph, tile, overlap)
               for ox in tile_origins(pw, tile, overlap)]
    run = range(len(origins)) if tiles is None else tiles
    t, r = tile * s, overlap * s
    acc = np.zeros((3, ph * s, pw * s))
    wacc = np.zeros((ph * s, pw * s))
    cover = np.zeros((ph * s, pw * s), np.int32)
    for ox, oy in origins:
        cover[oy * s:oy * s + t, ox * s:ox * s + t] += 1
    mask = np.zeros((ph * s, pw * s), bool)
    for i in run:
        ox, oy = origins[i]
        out = forward(x[:, oy:oy + tile, ox:ox + tile], weights, cfg)
        w2 = (_ramp(t, r, oy > 0, oy + tile < ph)[:, None]
              * _ramp(t, r, ox > 0, ox + tile < pw)[None, :])
        ys, xs = slice(oy * s, oy * s + t), slice(ox * s, ox * s + t)
        acc[:, ys, xs] += out * w2
        wacc[ys, xs] += w2
        mask[ys, xs] = True
    if tiles is not None:
        mask &= cover == 1
    hr = acc / np.where(wacc > 0, wacc, 1.0)
    hr, mask = hr[:, :h * s, :w * s], mask[:h * s, :w * s]
    q = [quantize(p) for p in hr]
    return q[0], chroma_pool(q[1]), chroma_pool(q[2]), mask


def compare_planes(got, want, mask, tolerance=1, max_share=0.01):
    """Error message, or None when every masked sample is within `tolerance`
    code values and at most `max_share` of them differ at all."""
    for name, g, ref, m in zip(("Y", "Cb", "Cr"), got, want,
                               (mask, mask[::2, ::2], mask[::2, ::2])):
        if g.shape != ref.shape:
            return f"{name} plane shape {g.shape}, expected {ref.shape}"
        d = np.abs(g.astype(np.int32) - ref.astype(np.int32))[m]
        if d.size == 0:
            return f"{name}: no samples to compare"
        if d.max() > tolerance or (d > 0).mean() > max_share:
            return (f"{name}: max diff {d.max()}, {100 * (d > 0).mean():.2f}% of "
                    f"{d.size} samples differ (tolerance {tolerance}, "
                    f"{100 * max_share:.0f}%)")
    return None


# --- resampling, PSNR, loss terms ---------------------------------------------

def _kernel(name, x):
    ax = np.abs(x)
    if name == "bicubic":
        a = -0.5
        return np.where(ax <= 1, (a + 2) * ax ** 3 - (a + 3) * ax ** 2 + 1,
                        np.where(ax < 2, a * ax ** 3 - 5 * a * ax ** 2 + 8 * a * ax - 4 * a, 0.0))
    lobes = 3.0
    px = np.pi * np.maximum(ax, 1e-300)
    val = lobes * np.sin(px) * np.sin(px / lobes) / (px * px)
    return np.where(ax < 1e-12, 1.0, np.where(ax < lobes, val, 0.0))


def axis_matrix(n_in, n_out, kernel):
    """(n_out, n_in) pixel-centre-aligned resampling matrix; the kernel is
    widened by the factor when minifying; out-of-range taps clamp to the
    edge sample; rows sum to 1."""
    scale = n_in / n_out
    fs = max(scale, 1.0)
    radius = (2.0 if kernel == "bicubic" else 3.0) * fs
    m = np.zeros((n_out, n_in))
    src = (np.arange(n_out) + 0.5) * scale - 0.5
    lo = np.ceil(src - radius).astype(int)
    for j in range(int(2 * radius) + 2):
        t = lo + j
        ok = t <= src + radius
        wt = np.where(ok, _kernel(kernel, (t - src) / fs), 0.0)
        np.add.at(m, (np.arange(n_out), np.clip(t, 0, n_in - 1)), wt)
    return m / m.sum(axis=1, keepdims=True)


def resample(plane, out_w, out_h, kernel):
    """Separable resample of a uint8 plane, quantized back to uint8."""
    h, w = plane.shape
    out = axis_matrix(h, out_h, kernel) @ (plane.astype(np.float64)
                                           @ axis_matrix(w, out_w, kernel).T)
    return np.floor(np.clip(out, 0.0, 255.0) + 0.5).astype(np.uint8)


def psnr_y(ref, dist):
    mse = np.mean((ref.astype(np.float64) - dist.astype(np.float64)) ** 2)
    return math.inf if mse == 0 else 10.0 * math.log10(255.0 ** 2 / mse)


def l1_l2(pred, target):
    """Mean |d| and mean d^2 of two [0,1] tensors."""
    d = np.asarray(pred, np.float64) - np.asarray(target, np.float64)
    return float(np.abs(d).mean()), float((d * d).mean())
