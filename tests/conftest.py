import numpy as np
import pytest

from vsrhe.frame_io import C420, C444, Frame, VideoSequence


def make_frame(rng, width, height, subsampling=C420):
    if subsampling == C420:
        cw, ch = width // 2, height // 2
    else:
        cw, ch = width, height
    return Frame(
        y=rng.integers(0, 256, (height, width), dtype=np.uint8),
        cb=rng.integers(0, 256, (ch, cw), dtype=np.uint8),
        cr=rng.integers(0, 256, (ch, cw), dtype=np.uint8),
        subsampling=subsampling,
    )


def make_video(rng, width, height, frames, subsampling=C420):
    return VideoSequence(
        frames=[make_frame(rng, width, height, subsampling) for _ in range(frames)])


def fd_gradient(f, x, h: float, coordinates) -> np.ndarray:
    """Central finite differences of scalar f at the given coordinates.

    coordinates: iterable of index tuples into x. Returns one derivative
    per coordinate, evaluated in float64.
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    out = []
    for coord in coordinates:
        xp = x.copy()
        xp[coord] += h
        xm = x.copy()
        xm[coord] -= h
        out.append((f(xp) - f(xm)) / (2.0 * h))
    return np.asarray(out, dtype=np.float64)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
