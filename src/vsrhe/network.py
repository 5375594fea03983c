"""The 4x super-resolution network: shallow conv head, stacked windowed
multi-head self-attention blocks with a large->small->large window hierarchy,
and a two-stage pixel-shuffle reconstruction tail.

Weights live in a flat name -> float32 ndarray map; `weight_shapes` is the
single source of truth for names and shapes. Forward passes are pure
functions of (input, weights, config) and bit-exact across runs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .tensor_ops import (conv2d, gelu, layer_norm, matmul, pixel_shuffle,
                         softmax, window_merge, window_partition)

__all__ = [
    "NetworkConfig",
    "weight_shapes",
    "validate_weights",
    "init_random",
    "hiet_layer_forward",
    "hiet_block_forward",
    "forward",
    "count_params",
    "count_flops",
    "REFERENCE_PARAMS",
    "REFERENCE_FLOPS",
    "SCALE",
]

# Published complexity figures for the original model, used for the
# deviation report in `inspect-weights`.
REFERENCE_PARAMS = 5.43e6
REFERENCE_FLOPS = 455.16e9

# Query rows per attention block: 128 x 4096 float32 scores is 2 MB.
_ATTN_ROWS = 128

# The fixed shape: 3-plane YCbCr in and out, 4x by two x2 pixel-shuffle
# stages, and an MLP twice the channel width. Older weight files carry it
# as config keys, which must hold these values.
SCALE = 4
_PLANES = 3
_UP_STAGES = 2
_FIXED_KEYS = {"in_channels": _PLANES, "out_channels": _PLANES, "mlp_ratio": 2.0,
               "scale": SCALE}


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture hyperparameters. Defaults give the full-size model."""

    channel_dim: int = 126
    blocks: int = 6
    window_sizes: tuple = (64, 32, 8, 32, 64)
    heads: int = 6
    input_size: int = 64

    def __post_init__(self):
        object.__setattr__(self, "window_sizes", tuple(self.window_sizes))
        if not self.window_sizes:
            raise ValueError("window_sizes must not be empty")
        fields = [(k, getattr(self, k))
                  for k in ("channel_dim", "blocks", "heads", "input_size")]
        for key, value in fields + [("window size", w) for w in self.window_sizes]:
            if type(value) is not int or value < 1:     # bool is not an integer here
                raise ValueError(f"{key} must be an integer of at least 1, got {value!r}")
        for w in self.window_sizes:
            if self.input_size % w != 0:
                raise ValueError(
                    f"window size {w} does not divide input_size {self.input_size}")
        if self.channel_dim % self.heads != 0:
            raise ValueError(
                f"heads ({self.heads}) must divide channel_dim ({self.channel_dim})")

    @property
    def hidden_dim(self) -> int:
        return 2 * self.channel_dim

    def to_dict(self) -> dict:
        return {**asdict(self), "window_sizes": list(self.window_sizes)}

    @staticmethod
    def from_dict(d: dict) -> "NetworkConfig":
        d = dict(d)
        for key, fixed in _FIXED_KEYS.items():
            value = d.pop(key, fixed)
            if value != fixed:          # NaN included
                raise ValueError(f"weight file config {key} is {value!r}; "
                                 f"this network has {key} {fixed} only")
        return NetworkConfig(**{**d, "window_sizes": tuple(d["window_sizes"])})


def weight_shapes(cfg: NetworkConfig) -> dict:
    """Ordered name -> shape map of every learnable tensor."""
    c = cfg.channel_dim
    hid = cfg.hidden_dim
    shapes: dict = {}
    shapes["head.conv.weight"] = (c, _PLANES, 3, 3)
    shapes["head.conv.bias"] = (c,)
    for b in range(cfg.blocks):
        for l in range(len(cfg.window_sizes)):
            p = f"block{b}.layer{l}."
            shapes[p + "norm1.gamma"] = (c,)
            shapes[p + "norm1.beta"] = (c,)
            for proj in ("wq", "wk", "wv", "wo"):
                shapes[p + f"attn.{proj}.weight"] = (c, c)
                shapes[p + f"attn.{proj}.bias"] = (c,)
            shapes[p + "norm2.gamma"] = (c,)
            shapes[p + "norm2.beta"] = (c,)
            shapes[p + "mlp.fc1.weight"] = (hid, c)
            shapes[p + "mlp.fc1.bias"] = (hid,)
            shapes[p + "mlp.fc2.weight"] = (c, hid)
            shapes[p + "mlp.fc2.bias"] = (c,)
        shapes[f"block{b}.fuse.weight"] = (c, c, 3, 3)
        shapes[f"block{b}.fuse.bias"] = (c,)
    shapes["body.conv.weight"] = (c, c, 3, 3)
    shapes["body.conv.bias"] = (c,)
    for s in range(_UP_STAGES):
        shapes[f"tail.up{s}.conv.weight"] = (4 * c, c, 3, 3)
        shapes[f"tail.up{s}.conv.bias"] = (4 * c,)
    shapes["tail.out.weight"] = (_PLANES, c, 3, 3)
    shapes["tail.out.bias"] = (_PLANES,)
    return shapes


def validate_weights(weights: dict, cfg: NetworkConfig) -> None:
    """Check that the weight map matches the config exactly; raise on the
    first offending tensor."""
    expected = weight_shapes(cfg)
    for name, shape in expected.items():
        if name not in weights:
            raise ValueError(f"missing weight tensor {name!r}")
        got = tuple(weights[name].shape)
        if got != shape:
            raise ValueError(
                f"weight tensor {name!r} has shape {got}, expected {shape}")
        if not np.all(np.isfinite(weights[name])):
            raise ValueError(f"weight tensor {name!r} contains non-finite values")
    for name in weights:
        if name not in expected:
            raise ValueError(f"unknown weight tensor {name!r}")


def init_random(cfg: NetworkConfig, seed: int) -> dict:
    """Random weights: N(0, 0.02) for weight matrices/kernels, zeros for
    biases and the final output conv, gamma=1 beta=0 for norms.

    PRNG: numpy PCG64 seeded with `seed`; tensors drawn in the fixed
    `weight_shapes` order, so the same seed is bit-reproducible.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = {}
    for name, shape in weight_shapes(cfg).items():
        if name.endswith(".gamma"):
            t = np.ones(shape, dtype=np.float32)
        elif name.endswith(".beta") or name.endswith(".bias"):
            t = np.zeros(shape, dtype=np.float32)
        elif name == "tail.out.weight":
            t = np.zeros(shape, dtype=np.float32)
        else:
            t = rng.normal(0.0, 0.02, size=shape).astype(np.float32)
        weights[name] = t
    return weights


def zero_weights(cfg: NetworkConfig) -> dict:
    """All-zero weight map (gamma included); useful for identity checks."""
    return {name: np.zeros(shape, dtype=np.float32)
            for name, shape in weight_shapes(cfg).items()}


def _linear(t2d, w, b):
    # t2d: (N, C_in), w: (C_out, C_in)
    return matmul(t2d, np.ascontiguousarray(w.T)) + b


def hiet_layer_forward(x, weights: dict, prefix: str, window: int,
                       heads: int) -> np.ndarray:
    """One pre-norm transformer layer on w x w windows of x[C,H,W]:
    x + WMSA(LN(x)), then + MLP(LN(.)).
    """
    c, h, w_dim = x.shape
    hd = c // heads
    t = window_partition(x, window)          # (nW, T, C)
    n_win, tok, _ = t.shape

    g = lambda n: weights[prefix + n]
    flat = t.reshape(n_win * tok, c)
    hn = layer_norm(flat, g("norm1.gamma"), g("norm1.beta"))
    q = _linear(hn, g("attn.wq.weight"), g("attn.wq.bias"))
    k = _linear(hn, g("attn.wk.weight"), g("attn.wk.bias"))
    v = _linear(hn, g("attn.wv.weight"), g("attn.wv.bias"))

    def split(a):
        return a.reshape(n_win, tok, heads, hd).transpose(0, 2, 1, 3)

    q = np.ascontiguousarray(split(q))                          # (nW, heads, T, hd)
    kt = np.ascontiguousarray(split(k).transpose(0, 1, 3, 2))   # (nW, heads, hd, T)
    v = np.ascontiguousarray(split(v))
    scale = np.float32(1.0 / math.sqrt(hd))
    # Attention per (window, head, block of query rows): a block's scores
    # stay in cache instead of materializing nW x heads x T x T at once.
    # Every row sees the same GEMM and reduction order as the unblocked
    # formula, so the result is bit-identical to it.
    ctx = np.empty((n_win, tok, c), dtype=np.float32)
    for wi in range(n_win):
        for hi in range(heads):
            kh, vh = kt[wi, hi:hi + 1], v[wi, hi:hi + 1]
            for r0 in range(0, tok, _ATTN_ROWS):
                scores = matmul(q[wi, hi:hi + 1, r0:r0 + _ATTN_ROWS], kh)
                scores *= scale
                attn = softmax(scores, axis=-1)
                ctx[wi, r0:r0 + _ATTN_ROWS, hi * hd:(hi + 1) * hd] = matmul(attn, vh)[0]
    ctx = ctx.reshape(n_win * tok, c)
    flat = flat + _linear(ctx, g("attn.wo.weight"), g("attn.wo.bias"))

    hn2 = layer_norm(flat, g("norm2.gamma"), g("norm2.beta"))
    m = gelu(_linear(hn2, g("mlp.fc1.weight"), g("mlp.fc1.bias")))
    flat = flat + _linear(m, g("mlp.fc2.weight"), g("mlp.fc2.bias"))

    return window_merge(flat.reshape(n_win, tok, c), window, h, w_dim)


def hiet_block_forward(x, weights: dict, block: int, cfg: NetworkConfig) -> np.ndarray:
    """One block: the window-size sequence of layers, a 3x3 fusion conv,
    and a block-level residual."""
    y = x
    for l, win in enumerate(cfg.window_sizes):
        y = hiet_layer_forward(y, weights, f"block{block}.layer{l}.", win, cfg.heads)
    y = conv2d(y, weights[f"block{block}.fuse.weight"],
               weights[f"block{block}.fuse.bias"])
    return x + y


def forward(x, weights: dict, cfg: NetworkConfig) -> np.ndarray:
    """Full forward pass: [3, s, s] -> [3, SCALE*s, SCALE*s].

    s must be divisible by every window size (the inference pipeline tiles
    frames into input_size blocks before calling this). `weights` must
    already match `cfg` as `validate_weights` checks it: `load_weights`
    validates every map it returns, and `init_random` and `zero_weights`
    build well-formed ones, so forward does not check them again per tile.
    """
    head = conv2d(x, weights["head.conv.weight"], weights["head.conv.bias"])
    f = head
    for b in range(cfg.blocks):
        f = hiet_block_forward(f, weights, b, cfg)
    f = conv2d(f, weights["body.conv.weight"], weights["body.conv.bias"])
    f = f + head
    for s in range(_UP_STAGES):
        f = conv2d(f, weights[f"tail.up{s}.conv.weight"],
                   weights[f"tail.up{s}.conv.bias"])
        f = pixel_shuffle(f, 2)
    return conv2d(f, weights["tail.out.weight"], weights["tail.out.bias"])


def count_params(cfg: NetworkConfig) -> int:
    """Total learnable parameter count."""
    return sum(int(np.prod(s)) for s in weight_shapes(cfg).values())


def count_flops(cfg: NetworkConfig, height: int | None = None,
                width: int | None = None) -> int:
    """Forward FLOPs on a height x width input.

    Convention: FLOPs = 2 * multiply-accumulates of every conv / linear /
    attention matmul; normalization, softmax, activations and bias adds are
    not counted. Attention is counted per window.
    """
    h = cfg.input_size if height is None else height
    w = cfg.input_size if width is None else width
    c = cfg.channel_dim
    hid = cfg.hidden_dim
    n = h * w

    def conv_fl(cin, cout, k, hh, ww):
        return 2 * cout * cin * k * k * hh * ww

    total = conv_fl(_PLANES, c, 3, h, w)                    # head
    per_block = 0
    for win in cfg.window_sizes:
        t = win * win
        per_block += 4 * 2 * n * c * c                      # q,k,v,o projections
        per_block += 2 * (2 * n * t * c)                    # scores + context
        per_block += 2 * (2 * n * c * hid)                  # mlp fc1 + fc2
    per_block += conv_fl(c, c, 3, h, w)                     # fusion conv
    total += cfg.blocks * per_block
    total += conv_fl(c, c, 3, h, w)                         # body conv
    hh, ww = h, w
    for _ in range(_UP_STAGES):
        total += conv_fl(c, 4 * c, 3, hh, ww)
        hh, ww = hh * 2, ww * 2
    total += conv_fl(c, _PLANES, 3, hh, ww)                 # output conv
    return total
