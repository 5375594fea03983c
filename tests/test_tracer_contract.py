"""The call signatures perfbench's tracer reads stay what it expects.

`perfbench.tracer` wraps program functions from outside and tags spans from
their arguments, so a renamed function or a positional/keyword change breaks
the benchmark's per-layer metrics without failing any other test.
"""

from conftest import make_video
from perfbench.tracer import Tracer
from perfbench.workloads import SMALL
from vsrhe import cli, frame_io, network, pipeline, weights_io


def test_upscale_spans_carry_the_tags_the_benchmark_reads(rng, tmp_path):
    cfg = network.NetworkConfig(**SMALL)
    wpath = tmp_path / "w.vsrhe"
    with open(wpath, "wb") as f:
        weights_io.save_weights(network.init_random(cfg, 0), cfg, f)
    clip = tmp_path / "in.y4m"
    with open(clip, "wb") as f:
        frame_io.write_y4m(make_video(rng, 80, 48, 2), f)
    tiles = len(pipeline.plan_tiles(80, 48, tile=cfg.input_size).origins)
    assert tiles > 1

    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.run(["upscale", "--in", str(clip), "--weights", str(wpath),
                      "--out", str(tmp_path / "out.y4m"), "--threads", "2"])
    finally:
        tracer.uninstall()
    assert rc == 0

    spans = {}
    for span in tracer.spans:
        spans.setdefault(span[2], []).append(span[3])
    assert len(spans["network.forward"]) == 2 * tiles
    assert spans["pipeline.frame"] == [2, 2]
    assert set(spans["network.layer"]) == set(cfg.window_sizes)
    assert "tensor_ops.softmax" in spans
