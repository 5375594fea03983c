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

import vsrhe
from vsrhe import network, weights_io
from vsrhe.network import NetworkConfig


SMALL = NetworkConfig(channel_dim=12, blocks=2, window_sizes=(16, 8, 16),
                      heads=3, input_size=64)
TINY = NetworkConfig(channel_dim=8, blocks=1, window_sizes=(4,), heads=2,
                     input_size=8)


def attention_oracle(tokens, wq, bq, wk, bk, wv, bv, wo, bo, heads):
    """Hand-rolled single-window multi-head attention in float64."""
    t64 = tokens.astype(np.float64)
    n, c = t64.shape
    hd = c // heads
    q = t64 @ wq.T.astype(np.float64) + bq
    k = t64 @ wk.T.astype(np.float64) + bk
    v = t64 @ wv.T.astype(np.float64) + bv
    out = np.zeros((n, c))
    for h in range(heads):
        sl = slice(h * hd, (h + 1) * hd)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(hd)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        out[:, sl] = attn @ v[:, sl]
    return out @ wo.T.astype(np.float64) + bo


def unblocked_layer(x, weights, prefix, window, heads):
    """hiet_layer_forward with attention over every window and head at
    once: all T x T scores in one array."""
    from vsrhe.tensor_ops import (gelu, layer_norm, matmul, softmax,
                                  window_merge, window_partition)
    lin = network._linear
    c, h, w_dim = x.shape
    hd = c // heads
    t = window_partition(x, window)
    n_win, tok, _ = t.shape
    g = lambda n: weights[prefix + n]
    flat = t.reshape(n_win * tok, c)
    hn = layer_norm(flat, g("norm1.gamma"), g("norm1.beta"))
    q = lin(hn, g("attn.wq.weight"), g("attn.wq.bias"))
    k = lin(hn, g("attn.wk.weight"), g("attn.wk.bias"))
    v = lin(hn, g("attn.wv.weight"), g("attn.wv.bias"))

    def split(a):
        return a.reshape(n_win, tok, heads, hd).transpose(0, 2, 1, 3)

    q, k, v = split(q), split(k), split(v)
    scores = matmul(q, np.ascontiguousarray(k.transpose(0, 1, 3, 2)))
    scores *= np.float32(1.0 / np.sqrt(hd))
    attn = softmax(scores, axis=-1)
    ctx = matmul(attn, v)
    ctx = ctx.transpose(0, 2, 1, 3).reshape(n_win * tok, c)
    flat = flat + lin(ctx, g("attn.wo.weight"), g("attn.wo.bias"))
    hn2 = layer_norm(flat, g("norm2.gamma"), g("norm2.beta"))
    m = gelu(lin(hn2, g("mlp.fc1.weight"), g("mlp.fc1.bias")))
    flat = flat + lin(m, g("mlp.fc2.weight"), g("mlp.fc2.bias"))
    return window_merge(flat.reshape(n_win, tok, c), window, h, w_dim)


class TestConfig:
    def test_defaults(self):
        cfg = NetworkConfig()
        assert cfg.channel_dim == 126 and cfg.blocks == 6
        assert cfg.window_sizes == (64, 32, 8, 32, 64)
        assert cfg.hidden_dim == 252
        assert list(cfg.to_dict()) == ["channel_dim", "blocks", "window_sizes",
                                       "heads", "input_size"]

    def test_validation(self):
        with pytest.raises(ValueError, match="heads"):
            NetworkConfig(channel_dim=10, heads=4)
        with pytest.raises(ValueError, match="window"):
            NetworkConfig(window_sizes=(48,))
        with pytest.raises(ValueError, match="window_sizes must not be empty"):
            NetworkConfig(window_sizes=())

    @pytest.mark.parametrize("field,value", [
        ("channel_dim", 0), ("blocks", -1), ("heads", 0), ("input_size", -8),
        ("blocks", True), ("channel_dim", 126.0), ("window_sizes", (64, 0)),
        ("window_sizes", ("8",))],
        ids=["channel-dim-0", "blocks-negative", "heads-0", "input-size-negative",
             "blocks-bool", "channel-dim-float", "window-0", "window-string"])
    def test_fields_are_integers_of_at_least_one(self, field, value):
        key = "window size" if field == "window_sizes" else field
        with pytest.raises(ValueError, match=f"{key} must be an integer of at least 1"):
            NetworkConfig(**{field: value})

    def test_fixed_shape_keys_of_older_files(self):
        old = {**NetworkConfig().to_dict(), "in_channels": 3, "out_channels": 3,
               "mlp_ratio": 2.0, "scale": 4}
        assert NetworkConfig.from_dict(old) == NetworkConfig()
        for key, value in [("in_channels", 1), ("out_channels", 4),
                           ("mlp_ratio", float("nan")), ("mlp_ratio", float("inf")),
                           ("scale", 2), ("scale", "4")]:
            with pytest.raises(ValueError, match=f"config {key} is"):
                NetworkConfig.from_dict({**old, key: value})


class TestLayer:
    def test_zero_weight_identity(self, rng):
        w = network.zero_weights(SMALL)
        x = rng.random((12, 32, 32), dtype=np.float32)
        out = network.hiet_layer_forward(x, w, "block0.layer0.", 16, SMALL.heads)
        assert np.array_equal(out, x)

    def test_shape_preserved_all_windows(self, rng):
        cfg = NetworkConfig()
        w = network.init_random(cfg, 0)
        x = rng.random((126, 64, 64), dtype=np.float32)
        for l, win in enumerate(cfg.window_sizes):
            out = network.hiet_layer_forward(x, w, f"block0.layer{l}.", win, cfg.heads)
            assert out.shape == x.shape

    def test_window_indivisible(self, rng):
        w = network.init_random(SMALL, 0)
        with pytest.raises(ValueError, match="window"):
            network.hiet_layer_forward(np.zeros((12, 20, 20), np.float32), w,
                                       "block0.layer0.", 16, SMALL.heads)

    # windows of 64 tokens (under one block), 256 (two whole blocks) and
    # 144 (one whole block and a partial one)
    @pytest.mark.parametrize("window,size", [(8, 16), (16, 16), (12, 24)])
    def test_blocked_attention_equals_unblocked(self, rng, window, size):
        from perfbench.workloads import bench_weights
        cfg = NetworkConfig(channel_dim=12, blocks=1, window_sizes=(window,),
                            heads=3, input_size=size)
        w = bench_weights(cfg, 5, 0.1)
        x = rng.random((12, size, size), dtype=np.float32)
        out = network.hiet_layer_forward(x, w, "block0.layer0.", window, cfg.heads)
        assert np.array_equal(out, unblocked_layer(x, w, "block0.layer0.", window,
                                                   cfg.heads))

    def test_matches_attention_oracle(self, rng):
        cfg = NetworkConfig(channel_dim=4, blocks=1, window_sizes=(2,), heads=1,
                            input_size=2)
        w = network.init_random(cfg, 5)
        # isolate attention: zero the MLP, make norms pass-through-ish is not
        # possible, so replicate the full layer computation in 64-bit instead
        x = rng.random((4, 2, 2), dtype=np.float32)
        p = "block0.layer0."
        out = network.hiet_layer_forward(x, w, p, 2, 1)

        tokens = x.reshape(4, 4).T  # (T, C) row-major tokens of the single window
        t64 = tokens.astype(np.float64)
        mu = t64.mean(1, keepdims=True)
        var = ((t64 - mu) ** 2).mean(1, keepdims=True)
        ln = (t64 - mu) / np.sqrt(var + 1e-5) * w[p + "norm1.gamma"] + w[p + "norm1.beta"]
        att = attention_oracle(ln, w[p + "attn.wq.weight"], w[p + "attn.wq.bias"],
                               w[p + "attn.wk.weight"], w[p + "attn.wk.bias"],
                               w[p + "attn.wv.weight"], w[p + "attn.wv.bias"],
                               w[p + "attn.wo.weight"], w[p + "attn.wo.bias"], 1)
        t2 = t64 + att
        mu2 = t2.mean(1, keepdims=True)
        var2 = ((t2 - mu2) ** 2).mean(1, keepdims=True)
        ln2 = (t2 - mu2) / np.sqrt(var2 + 1e-5) * w[p + "norm2.gamma"] + w[p + "norm2.beta"]
        from scipy.special import erf
        h = ln2 @ w[p + "mlp.fc1.weight"].T.astype(np.float64) + w[p + "mlp.fc1.bias"]
        h = h * 0.5 * (1 + erf(h / np.sqrt(2)))
        expect = t2 + h @ w[p + "mlp.fc2.weight"].T.astype(np.float64) + w[p + "mlp.fc2.bias"]
        np.testing.assert_allclose(out.reshape(4, 4).T, expect, atol=1e-5)


class TestBlock:
    def test_zero_weight_identity(self, rng):
        w = network.zero_weights(SMALL)
        x = rng.random((12, 32, 32), dtype=np.float32)
        assert np.array_equal(network.hiet_block_forward(x, w, 0, SMALL), x)

    def test_equals_composition(self, rng):
        from vsrhe.tensor_ops import conv2d
        w = network.init_random(SMALL, 3)
        x = rng.random((12, 32, 32), dtype=np.float32)
        out = network.hiet_block_forward(x, w, 1, SMALL)
        y = x
        for l, win in enumerate(SMALL.window_sizes):
            y = network.hiet_layer_forward(y, w, f"block1.layer{l}.", win, SMALL.heads)
        y = conv2d(y, w["block1.fuse.weight"], w["block1.fuse.bias"])
        assert np.array_equal(out, x + y)


class TestForward:
    def test_output_shape(self, rng):
        w = network.init_random(SMALL, 0)
        x = rng.random((3, 64, 64), dtype=np.float32)
        assert network.forward(x, w, SMALL).shape == (3, 256, 256)

    def test_zero_weights_zero_output(self, rng):
        w = network.zero_weights(SMALL)
        x = rng.random((3, 64, 64), dtype=np.float32)
        assert np.all(network.forward(x, w, SMALL) == 0.0)

    def test_deterministic_golden(self, rng):
        w = network.init_random(SMALL, 42)
        x = np.random.default_rng(7).random((3, 64, 64), dtype=np.float32)
        a = network.forward(x, w, SMALL)
        b = network.forward(x, w, SMALL)
        assert np.array_equal(a, b)

    def test_window_hierarchy_matters(self, rng):
        cfg_a = SMALL
        cfg_b = NetworkConfig(channel_dim=12, blocks=2, window_sizes=(8, 16, 8),
                              heads=3, input_size=64)
        w = network.init_random(cfg_a, 11)
        w["tail.out.weight"] = rng.standard_normal(
            w["tail.out.weight"].shape).astype(np.float32) * 0.02
        x = rng.random((3, 64, 64), dtype=np.float32)
        out_a = network.forward(x, w, cfg_a)
        out_b = network.forward(x, w, cfg_b)
        assert not np.array_equal(out_a, out_b)

    @pytest.mark.parametrize("damage,message", [
        (lambda w: w.pop("body.conv.bias"), "missing weight tensor 'body.conv.bias'"),
        (lambda w: w.update(extra=np.zeros(1, np.float32)),
         "unknown weight tensor 'extra'"),
        (lambda w: w.update({"body.conv.bias": np.zeros(5, np.float32)}),
         "'body.conv.bias' has shape (5,), expected (12,)"),
        (lambda w: np.put(w["body.conv.bias"], 3, np.nan),
         "'body.conv.bias' contains non-finite values"),
    ], ids=["missing", "unknown", "shape", "non_finite"])
    def test_mismatched_weights_rejected(self, damage, message):
        w = network.init_random(SMALL, 0)
        damage(w)
        with pytest.raises(ValueError) as err:
            network.validate_weights(w, SMALL)
        assert message in str(err.value)


# Hashes a full-width conv2d (126 -> 504 on 64x64) and a one-block
# full-width forward, both called directly rather than through the
# pipeline, which pins BLAS to one thread.
_HASH_FORWARD = """
import hashlib
import numpy as np
from perfbench.workloads import FULL, bench_weights
from vsrhe import network, tensor_ops

def sha(a):
    return hashlib.sha256(a.tobytes()).hexdigest()

rng = np.random.Generator(np.random.PCG64(3))
x = rng.standard_normal((126, 64, 64), dtype=np.float32)
k = rng.standard_normal((504, 126, 3, 3), dtype=np.float32) * np.float32(0.03)
b = rng.standard_normal(504, dtype=np.float32)
print(sha(tensor_ops.conv2d(x, k, b)))
cfg = network.NetworkConfig(**dict(FULL, blocks=1))
w = bench_weights(cfg, 5, 0.1)
x = np.random.Generator(np.random.PCG64(7)).random((3, 64, 64), dtype=np.float32)
print(sha(network.forward(x, w, cfg)))
"""


def test_forward_bytes_do_not_depend_on_blas_threads():
    # at most 1 + 2 BLAS threads run at once
    root = Path(__file__).resolve().parents[1]
    src = str(Path(vsrhe.__file__).resolve().parents[1])
    procs = []
    for n in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=n,
                   PYTHONPATH=os.pathsep.join([src, str(root)]))
        procs.append(subprocess.Popen([sys.executable, "-c", _HASH_FORWARD], env=env,
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    digests = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err.decode()
        digests.append(out.decode().split())
    assert len(digests[0]) == 2
    assert digests[0] == digests[1]


class TestInit:
    def test_same_seed_identical(self):
        a = network.init_random(SMALL, 9)
        b = network.init_random(SMALL, 9)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_different_seeds_differ(self):
        a = network.init_random(SMALL, 9)
        b = network.init_random(SMALL, 10)
        assert any(not np.array_equal(a[k], b[k]) for k in a)

    def test_weight_std(self):
        w = network.init_random(NetworkConfig(), 0)
        big = w["block0.layer0.attn.wq.weight"]
        assert 0.018 <= float(big.std()) <= 0.022

    def test_bias_and_final_conv_zero(self):
        w = network.init_random(SMALL, 0)
        assert np.all(w["head.conv.bias"] == 0)
        assert np.all(w["tail.out.weight"] == 0)
        assert np.all(w["block0.layer0.norm1.gamma"] == 1)


class TestWeightsIO:
    def test_round_trip(self):
        w = network.init_random(TINY, 4)
        buf = io.BytesIO()
        weights_io.save_weights(w, TINY, buf)
        buf.seek(0)
        back, cfg = weights_io.load_weights(buf)
        assert cfg == TINY
        assert set(back) == set(w)
        assert all(np.array_equal(back[k], w[k]) for k in w)

    def test_round_trip_randomized(self):
        for seed in range(100):
            w = network.init_random(TINY, seed)
            buf = io.BytesIO()
            weights_io.save_weights(w, TINY, buf)
            buf.seek(0)
            back, _ = weights_io.load_weights(buf)
            assert all(np.array_equal(back[k], w[k]) for k in w)

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            weights_io.load_weights(io.BytesIO(b"NOTRIGHT" + b"\0" * 100))

    def test_truncated(self):
        w = network.init_random(TINY, 4)
        buf = io.BytesIO()
        weights_io.save_weights(w, TINY, buf)
        data = buf.getvalue()
        with pytest.raises(ValueError, match="truncated"):
            weights_io.load_weights(io.BytesIO(data[:len(data) - 100]))

    def test_wrong_config_names_tensor(self):
        # tensors are validated against the embedded config: a header that
        # claims another width under a valid checksum names the first misfit
        w = network.init_random(TINY, 4)
        buf = io.BytesIO()
        weights_io.save_weights(w, TINY, buf)
        data = buf.getvalue()
        start = len(weights_io.MAGIC) + 64
        (hlen,) = struct.unpack("<I", data[start:start + 4])
        meta = json.loads(data[start + 4:start + 4 + hlen])
        meta["config"]["channel_dim"] = 4
        header = json.dumps(meta).encode("utf-8")
        crc = struct.pack("<I", zlib.crc32(header)).ljust(64, b"\0")
        data = (weights_io.MAGIC + crc + struct.pack("<I", len(header)) + header
                + data[start + 4 + hlen:])
        with pytest.raises(ValueError, match="head.conv.weight"):
            weights_io.load_weights(io.BytesIO(data))

    def test_checksum_mismatch(self):
        w = network.init_random(TINY, 4)
        buf = io.BytesIO()
        weights_io.save_weights(w, TINY, buf)
        data = bytearray(buf.getvalue())
        data[80] ^= 0xFF  # corrupt a header byte
        with pytest.raises(ValueError, match="checksum"):
            weights_io.load_weights(io.BytesIO(bytes(data)))


class TestComplexity:
    def test_degenerate_hand_enumeration(self):
        cfg = NetworkConfig(channel_dim=1, blocks=1, heads=1, window_sizes=(2,),
                            input_size=2)
        # head 27+1; layer: norms 4, attn 4*(1+1), mlp (2+2)+(2+1); fuse 9+1;
        # body 9+1; tail 2*(4*9+4); out 27+3
        expected = (28) + (2 + 8 + 2 + 4 + 3 + 10) + 10 + 2 * 40 + 30
        assert network.count_params(cfg) == expected

    def test_degenerate_flops(self):
        cfg = NetworkConfig(channel_dim=1, blocks=1, heads=1, window_sizes=(2,),
                            input_size=2)
        n, t = 4, 4
        per_layer = 4 * 2 * n * 1 * 1 + 2 * (2 * n * t * 1) + 2 * (2 * n * 1 * 2)
        expected = (2 * 1 * 3 * 9 * n            # head
                    + per_layer + 2 * 1 * 1 * 9 * n   # block
                    + 2 * 1 * 1 * 9 * n          # body
                    + 2 * 4 * 1 * 9 * n          # up0
                    + 2 * 4 * 1 * 9 * 4 * n      # up1
                    + 2 * 3 * 1 * 9 * 16 * n)    # out
        assert network.count_flops(cfg) == expected

    def test_monotonic_in_depth_and_width(self):
        base = network.count_params(NetworkConfig())
        assert network.count_params(NetworkConfig(blocks=7)) > base
        assert network.count_params(NetworkConfig(channel_dim=168, heads=6)) > base

    def test_default_reported_values(self, capsys):
        cfg = NetworkConfig()
        params = network.count_params(cfg)
        flops = network.count_flops(cfg)
        pdev = abs(params - network.REFERENCE_PARAMS) / network.REFERENCE_PARAMS
        print(f"params {params} ({100 * pdev:.1f}% vs 5.43M), "
              f"flops {flops / 1e9:.2f}G vs 455.16G")
        assert pdev <= 0.25
