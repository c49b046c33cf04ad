import numpy as np
import pytest

from fdbridge.correction import CorrectionSchedule
from fdbridge.grid import KSpaceGrid
from fdbridge.imaging import ImagingSystem


def rand_image(h, w, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((h, w)) + 1j * rng.standard_normal((h, w))


def unit_system(mask):
    """Single-coil system with a literal unit sensitivity map."""
    h, w = mask.shape
    return ImagingSystem(
        mask=mask, coil_maps=np.ones((1, h, w), dtype=complex), grid=KSpaceGrid(h, w)
    )


def constant_schedule(t_f, value):
    """A fixed schedule of ``t_f`` equal weights, as ``load_schedule`` reads a CSV without metadata."""
    return CorrectionSchedule(weights=np.full(t_f, value), provenance="constant")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
