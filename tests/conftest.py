import sys
from pathlib import Path

import numpy as np
import pytest

# the repository root, so tests can import the benchmark's `perfbench` package
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
