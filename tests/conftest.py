import json
import struct

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


def edit_checkpoint_architecture(path, edit):
    """Rewrite a checkpoint's header after ``edit`` changes its architecture dict in place; the parameters stay."""
    raw = path.read_bytes()
    (head_len,) = struct.unpack("<I", raw[6:10])
    header = json.loads(raw[10 : 10 + head_len])
    edit(header["architecture"])
    head = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(raw[:6] + struct.pack("<I", len(head)) + head + raw[10 + head_len :])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
