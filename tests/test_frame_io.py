import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_frame, make_video
from vsrhe import frame_io
from vsrhe.frame_io import C420, C444, Frame, VideoSequence


def roundtrip_y4m(seq):
    buf = io.BytesIO()
    frame_io.write_y4m(seq, buf)
    buf.seek(0)
    return frame_io.parse_y4m(buf), buf.getvalue()


class TestY4m:
    def test_basic_parse(self, rng):
        payload = bytes(rng.integers(0, 256, 320 * 180 * 3 // 2, dtype=np.uint8))
        stream = io.BytesIO(b"YUV4MPEG2 W320 H180 F30:1 C420\nFRAME\n" + payload)
        seq = frame_io.parse_y4m(stream)
        assert len(seq) == 1
        f = seq.frames[0]
        assert (f.width, f.height, f.subsampling) == (320, 180, C420)
        assert seq.frame_rate == 30
        assert f.y.tobytes() == payload[:320 * 180]

    def test_c420_variant_tags(self, rng):
        for tag in ("C420jpeg", "C420mpeg2"):
            payload = bytes(rng.integers(0, 256, 4 * 2 * 3 // 2, dtype=np.uint8))
            stream = io.BytesIO(f"YUV4MPEG2 W4 H2 F25:1 {tag}\nFRAME\n".encode() + payload)
            assert frame_io.parse_y4m(stream).frames[0].subsampling == C420

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="not Y4M"):
            frame_io.parse_y4m(io.BytesIO(b"JUNK W2 H2\n"))

    def test_degenerate_geometry(self):
        with pytest.raises(ValueError, match="degenerate"):
            frame_io.parse_y4m(io.BytesIO(b"YUV4MPEG2 W0 H2 F25:1 C420\n"))

    @pytest.mark.parametrize("rate", ["30:0", "30:-1", "-30:1"])
    def test_bad_frame_rate(self, rate):
        header = f"YUV4MPEG2 W2 H2 F{rate} C420\n".encode()
        with pytest.raises(ValueError, match=f"F{rate}"):
            frame_io.parse_y4m(io.BytesIO(header))

    def test_odd_c420(self):
        with pytest.raises(ValueError, match="odd"):
            frame_io.parse_y4m(io.BytesIO(b"YUV4MPEG2 W3 H2 F25:1 C420\n"))

    def test_truncated_payload_names_frame(self, rng):
        good = bytes(rng.integers(0, 256, 6, dtype=np.uint8))
        stream = io.BytesIO(b"YUV4MPEG2 W2 H2 F25:1 C420\nFRAME\n" + good
                            + b"FRAME\n" + good[:3])
        with pytest.raises(ValueError, match="frame 1"):
            frame_io.parse_y4m(stream)

    def test_unknown_colorspace(self):
        with pytest.raises(ValueError, match="C422"):
            frame_io.parse_y4m(io.BytesIO(b"YUV4MPEG2 W2 H2 F25:1 C422\n"))

    def test_metadata_preserved(self, rng):
        payload = bytes(rng.integers(0, 256, 6, dtype=np.uint8))
        stream = io.BytesIO(b"YUV4MPEG2 W2 H2 F25:1 Ip A1:1 C420 XYSCSS=420\nFRAME\n" + payload)
        seq = frame_io.parse_y4m(stream)
        assert seq.metadata["I"] == "p"
        assert seq.metadata["A"] == "1:1"
        assert seq.metadata["X"] == "YSCSS=420"
        _, data = roundtrip_y4m(seq)
        assert data.startswith(b"YUV4MPEG2 W2 H2 F25:1 Ip A1:1 C420 XYSCSS=420\n")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 3),
           st.sampled_from([C420, C444]), st.integers(0, 2 ** 32 - 1))
    def test_round_trip_bytes(self, w2, h2, n, sub, seed):
        rng = np.random.default_rng(seed)
        w, h = 2 * w2, 2 * h2
        seq = make_video(rng, w, h, n, sub)
        back, data = roundtrip_y4m(seq)
        buf2 = io.BytesIO()
        frame_io.write_y4m(back, buf2)
        assert buf2.getvalue() == data
        for a, b in zip(back.frames, seq.frames):
            assert np.array_equal(a.y, b.y)
            assert np.array_equal(a.cb, b.cb)
            assert np.array_equal(a.cr, b.cr)


class TestRawYuv:
    def test_frame_size(self, rng):
        seq = make_video(rng, 320, 180, 1)
        buf = io.BytesIO()
        frame_io.write_raw_yuv(seq, buf)
        assert len(buf.getvalue()) == 86400

    def test_round_trip(self, rng):
        seq = make_video(rng, 8, 6, 3)
        buf = io.BytesIO()
        frame_io.write_raw_yuv(seq, buf)
        buf.seek(0)
        back = frame_io.read_raw_yuv(buf, 8, 6)
        assert len(back) == 3
        for a, b in zip(back.frames, seq.frames):
            assert np.array_equal(a.y, b.y)
            assert np.array_equal(a.cb, b.cb)
            assert np.array_equal(a.cr, b.cr)

    def test_empty_stream(self):
        assert len(frame_io.read_raw_yuv(io.BytesIO(b""), 4, 4)) == 0

    def test_remainder_reported(self):
        with pytest.raises(ValueError, match="5 trailing bytes"):
            frame_io.read_raw_yuv(io.BytesIO(b"\0" * (24 + 5)), 4, 4)


class TestChroma:
    def test_replication(self):
        f = Frame(y=np.zeros((4, 4), np.uint8),
                  cb=np.array([[1, 2], [3, 4]], np.uint8),
                  cr=np.zeros((2, 2), np.uint8))
        up = frame_io.chroma_upsample_nn(f)
        expected = np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]],
                            np.uint8)
        assert np.array_equal(up.cb, expected)
        assert up.subsampling == C444
        assert np.array_equal(up.y, f.y)

    def test_constant(self):
        f = Frame(y=np.zeros((4, 4), np.uint8),
                  cb=np.full((2, 2), 9, np.uint8), cr=np.full((2, 2), 9, np.uint8))
        up = frame_io.chroma_upsample_nn(f)
        assert np.all(up.cb == 9)

    def test_downsample_mean(self):
        cb = np.array([[1, 1], [3, 3]], np.uint8)
        f = Frame(y=np.zeros((2, 2), np.uint8), cb=cb, cr=cb, subsampling=C444)
        down = frame_io.chroma_downsample_mean(f)
        assert down.cb[0, 0] == 2

    def test_rounding_half_away(self):
        cb = np.array([[1, 2], [2, 2]], np.uint8)  # mean 1.75 -> 2
        f = Frame(y=np.zeros((2, 2), np.uint8), cb=cb, cr=cb, subsampling=C444)
        assert frame_io.chroma_downsample_mean(f).cb[0, 0] == 2

    def test_round_trip_identity(self, rng):
        for _ in range(100):
            f = make_frame(rng, 2 * int(rng.integers(1, 9)), 2 * int(rng.integers(1, 9)))
            rt = frame_io.chroma_downsample_mean(frame_io.chroma_upsample_nn(f))
            assert np.array_equal(rt.cb, f.cb)
            assert np.array_equal(rt.cr, f.cr)
            assert np.array_equal(rt.y, f.y)

    def test_wrong_subsampling_rejected(self, rng):
        f444 = make_frame(rng, 4, 4, C444)
        with pytest.raises(ValueError, match="C420"):
            frame_io.chroma_upsample_nn(f444)
        f420 = make_frame(rng, 4, 4, C420)
        with pytest.raises(ValueError, match="C444"):
            frame_io.chroma_downsample_mean(f420)


class TestNormalization:
    def test_extremes(self):
        f = Frame(y=np.array([[0, 255], [128, 1]], np.uint8),
                  cb=np.zeros((1, 1), np.uint8), cr=np.zeros((1, 1), np.uint8))
        y, _, _ = frame_io.to_normalized(f)
        assert y[0, 0] == 0.0 and y[0, 1] == 1.0

    def test_round_trip(self, rng):
        f = make_frame(rng, 16, 8)
        y, cb, cr = frame_io.to_normalized(f)
        back = frame_io.from_normalized(y, cb, cr, C420)
        assert np.array_equal(back.y, f.y)
        assert np.array_equal(back.cb, f.cb)

    def test_clamp(self):
        out = frame_io.from_normalized(np.array([[1.7, -0.3], [0.5, 0.0]]),
                                       np.zeros((1, 1)), np.zeros((1, 1)), C420)
        assert out.y[0, 0] == 255
        assert out.y[0, 1] == 0


class TestFrameValidation:
    def test_odd_c420_rejected(self, rng):
        with pytest.raises(ValueError, match="even"):
            Frame(y=np.zeros((3, 4), np.uint8), cb=np.zeros((1, 2), np.uint8),
                  cr=np.zeros((1, 2), np.uint8))

    def test_plane_mismatch(self):
        with pytest.raises(ValueError, match="chroma"):
            Frame(y=np.zeros((4, 4), np.uint8), cb=np.zeros((2, 3), np.uint8),
                  cr=np.zeros((2, 2), np.uint8))

    def test_mixed_geometry_sequence(self, rng):
        with pytest.raises(ValueError, match="frame 1"):
            VideoSequence(frames=[make_frame(rng, 4, 4), make_frame(rng, 6, 4)])
