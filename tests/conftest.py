import json
import multiprocessing
import os
import struct

import numpy as np
import pytest

from fdbridge import parallel
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


def with_header(raw: bytes, edit) -> bytes:
    """A checkpoint's bytes with its JSON header replaced by ``edit(header)``; the parameters stay."""
    (head_len,) = struct.unpack("<I", raw[6:10])
    head = json.dumps(edit(json.loads(raw[10 : 10 + head_len])), sort_keys=True).encode()
    return raw[:6] + struct.pack("<I", len(head)) + head + raw[10 + head_len :]


def edit_checkpoint_architecture(path, edit):
    """Rewrite a checkpoint's header after ``edit`` changes its architecture dict in place; the parameters stay."""

    def on_header(header):
        edit(header["architecture"])
        return header

    path.write_bytes(with_header(path.read_bytes(), on_header))


# the tests that fork parallel.Workers; elsewhere every job runs in one process
needs_workers = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or parallel.blas_thread_calls() is None,
    reason="workers need fork and a settable OpenBLAS thread count",
)


class _Unpicklable(Exception):
    """An exception that pickles but does not unpickle: its __init__ needs two arguments, its args hold one."""

    def __init__(self, a, b):
        super().__init__(f"{a}-{b}")


def die():
    if multiprocessing.parent_process() is not None:  # only ever a worker
        os._exit(3)


def raising(exc):
    def fail():
        raise exc

    return fail


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
