import io

import numpy as np
import pytest

from conftest import make_frame, make_video
from vsrhe import pipeline
from vsrhe.frame_io import C444, chroma_upsample_nn, to_normalized
from vsrhe.pipeline import NetworkModel, blend_weight_map, plan_tiles, upscale_frame, upscale_sequence


class NearestStub:
    """Crop-commuting model stand-in: nearest-neighbor 4x on each channel."""

    scale = 4
    tile = 64

    def __call__(self, block):
        return np.repeat(np.repeat(block, 4, axis=1), 4, axis=2)


class TestPlanTiles:
    def test_single_tile(self):
        plan = plan_tiles(64, 64)
        assert plan.origins == ((0, 0),)
        assert plan.pad_right == 0 and plan.pad_bottom == 0

    def test_standard_geometry(self):
        plan = plan_tiles(320, 180)
        xs = sorted({ox for ox, _ in plan.origins})
        ys = sorted({oy for _, oy in plan.origins})
        assert xs == [0, 56, 112, 168, 224, 256]
        assert ys == [0, 56, 112, 116]
        assert len(plan.origins) == len(xs) * len(ys)

    def test_full_coverage(self):
        for w, h in [(320, 180), (100, 70), (64, 64), (65, 64)]:
            plan = plan_tiles(w, h)
            covered = np.zeros((plan.padded_height, plan.padded_width), bool)
            for ox, oy in plan.origins:
                assert 0 <= ox <= plan.padded_width - plan.tile
                assert 0 <= oy <= plan.padded_height - plan.tile
                covered[oy:oy + 64, ox:ox + 64] = True
            assert covered.all()

    def test_small_frame_padded(self):
        plan = plan_tiles(2, 2)
        assert plan.pad_right == 62 and plan.pad_bottom == 62
        assert plan.origins == ((0, 0),)

    def test_overlap_range(self):
        with pytest.raises(ValueError, match="overlap"):
            plan_tiles(128, 128, overlap=64)
        with pytest.raises(ValueError, match="positive"):
            plan_tiles(0, 128)


class TestBlendWeights:
    def test_partition_after_normalization(self):
        plan = plan_tiles(320, 180)
        wmap = blend_weight_map(plan)
        assert (wmap > 0).all()

    def test_no_overlap_weights_are_one(self):
        plan = plan_tiles(128, 128, overlap=0)
        wmap = blend_weight_map(plan)
        np.testing.assert_array_equal(wmap, 1.0)

    def test_two_tile_ramp_partition(self):
        # two tiles overlapping by 8 LR px: ramps must sum to 1 in the seam
        plan = plan_tiles(120, 64)
        wmap = blend_weight_map(plan)
        np.testing.assert_allclose(wmap, 1.0, atol=1e-6)


class TestUpscaleFrame:
    def test_geometry(self, rng):
        out = upscale_frame(make_frame(rng, 320, 180), NearestStub())
        assert (out.width, out.height) == (1280, 720)

    def test_tiling_transparent_for_crop_commuting_model(self, rng):
        frame = make_frame(rng, 320, 180)
        stub = NearestStub()
        x = np.stack(to_normalized(chroma_upsample_nn(frame)))
        whole = stub(x)
        from vsrhe.frame_io import chroma_downsample_mean, from_normalized
        expect = chroma_downsample_mean(
            from_normalized(whole[0], whole[1], whole[2], subsampling=C444))
        for overlap in (0, 8):
            got = upscale_frame(frame, stub, overlap=overlap)
            assert np.array_equal(got.y, expect.y)
            assert np.array_equal(got.cb, expect.cb)
            assert np.array_equal(got.cr, expect.cr)

    def test_threads_byte_identical(self, rng):
        frame = make_frame(rng, 130, 70)
        a = upscale_frame(frame, NearestStub(), threads=1)
        b = upscale_frame(frame, NearestStub(), threads=8)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.cb, b.cb)
        assert np.array_equal(a.cr, b.cr)

    def test_tiny_frame(self, rng):
        out = upscale_frame(make_frame(rng, 2, 2), NearestStub())
        assert (out.width, out.height) == (8, 8)

    def test_real_network_geometry(self, rng):
        from vsrhe import network
        cfg = network.NetworkConfig(channel_dim=8, blocks=1, window_sizes=(8,),
                                    heads=2, input_size=64)
        model = NetworkModel(network.init_random(cfg, 0), cfg)
        out = upscale_frame(make_frame(rng, 96, 68), model)
        assert (out.width, out.height) == (384, 272)

    def test_c444_rejected(self, rng):
        with pytest.raises(ValueError, match="C420"):
            upscale_frame(make_frame(rng, 64, 64, C444), NearestStub())

    def test_non_finite_tile_output(self, rng):
        calls = []

        def model(block):   # NaN from the second tile only
            calls.append(1)
            out = NearestStub()(block)
            return out * np.float32("nan") if len(calls) == 2 else out

        with pytest.raises(ValueError, match=r"frame 3 tile 2/2 at LR \(56, 0\): .*not finite"):
            upscale_frame(make_frame(rng, 120, 64), model, frame_index=3)

    def test_progress_lines(self, rng):
        buf = io.StringIO()
        upscale_frame(make_frame(rng, 120, 64), NearestStub(), progress=buf,
                      frame_index=3)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "frame=3 tiles=1/2"
        assert lines[-1] == "frame=3 tiles=2/2"


class TestUpscaleSequence:
    def test_frame_independence(self, rng):
        seq = make_video(rng, 64, 64, 3)
        out = upscale_sequence(seq, NearestStub())
        singles = [upscale_frame(f, NearestStub()) for f in seq.frames]
        for a, b in zip(out.frames, singles):
            assert np.array_equal(a.y, b.y)

    def test_metadata_and_rate_preserved(self, rng):
        seq = make_video(rng, 64, 64, 1)
        out = upscale_sequence(seq, NearestStub())
        assert out.frame_rate == seq.frame_rate

    def test_error_keeps_its_type(self, rng):
        # a frame's error reaches the caller as raised, not wrapped again
        seq = make_video(rng, 64, 64, 1, C444)
        with pytest.raises(ValueError, match="C420"):
            upscale_sequence(seq, NearestStub())

    def test_empty_sequence(self):
        from vsrhe.frame_io import VideoSequence
        out = upscale_sequence(VideoSequence(frames=[]), NearestStub())
        assert len(out) == 0


class TestBlasThreads:
    """upscale_frame runs its tiles with numpy's OpenBLAS on one thread and
    leaves the count as it found it."""

    @pytest.fixture
    def blas(self):
        lib = pipeline._numpy_openblas()
        if lib is None:
            pytest.skip("numpy's OpenBLAS thread-count symbols not found")
        before = lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(2)
        yield lib
        lib.scipy_openblas_set_num_threads64_(before)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_thread_inside_and_restored_after(self, rng, blas, threads):
        seen = []

        def model(block):
            seen.append(blas.scipy_openblas_get_num_threads64_())
            return NearestStub()(block)

        upscale_frame(make_frame(rng, 120, 64), model, threads=threads)
        assert seen == [1, 1]
        assert blas.scipy_openblas_get_num_threads64_() == 2

    def test_restored_when_the_model_raises(self, rng, blas):
        def model(block):
            raise RuntimeError("model failed")

        with pytest.raises(RuntimeError, match="model failed"):
            upscale_frame(make_frame(rng, 64, 64), model, threads=2)
        assert blas.scipy_openblas_get_num_threads64_() == 2

    def test_runs_without_the_handle(self, rng, monkeypatch):
        frame = make_frame(rng, 120, 64)
        expect = upscale_frame(frame, NearestStub())
        monkeypatch.setattr(pipeline, "_numpy_openblas", lambda: None)
        got = upscale_frame(frame, NearestStub(), threads=2)
        assert np.array_equal(got.y, expect.y)
        assert np.array_equal(got.cb, expect.cb)
        assert np.array_equal(got.cr, expect.cr)
