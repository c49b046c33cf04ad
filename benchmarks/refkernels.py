"""Fixed reference kernels, one per workload, timed after every operation.

The host the benchmark runs on is shared: the same work runs 20 to 30%
slower, and up to several times slower, while other tenants are busy,
and such a phase can last minutes, so it moves whole runs.  Each kernel
below does a small, fixed amount of the kind of work its workload
spends its time on, in plain numpy and without calling ``fdbridge``:
im2col convolutions and GEMMs at 64^2 on OpenBLAS's threads, centered
FFTs of 4 coil images, and the per-step bookkeeping of a removal
trajectory at 256^2 (index scans, 32 picks from a fresh Philox
generator, a fresh copy of the mask kept per step).  A slow phase of the
host slows kernel and operation alike; a change to the program moves
the operation only.  ``run.py`` reports their ratio.

Each call takes about 5 to 10% of its workload's operation time.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

TRAIN_SAMPLES = 6
RECON_STEPS = 6
TRAJECTORY_STEPS = 250

_rng = np.random.default_rng(20230802)
# Kernels of the recovery operator's widths (2 -> 16 -> 16 -> 2, 3x3).
_W = [_rng.uniform(-0.2, 0.2, shape) for shape in ((16, 2, 3, 3), (16, 16, 3, 3), (2, 16, 3, 3))]
_W_FLIP = [np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)) for w in _W]
_X = _rng.standard_normal((2, 64, 64))
_COILS = _rng.standard_normal((4, 64, 64)) + 1j * _rng.standard_normal((4, 64, 64))
_RADIUS = np.hypot(*np.meshgrid(np.arange(-128, 128), np.arange(-128, 128))).ravel()


def _conv(x, w):
    c, h, wd = x.shape
    cols = sliding_window_view(np.pad(x, ((0, 0), (1, 1), (1, 1))), (3, 3), axis=(1, 2))
    cols = np.ascontiguousarray(cols.transpose(1, 2, 0, 3, 4)).reshape(h * wd, c * 9)
    out = np.ascontiguousarray((cols @ w.reshape(w.shape[0], -1).T).T).reshape(w.shape[0], h, wd)
    return out, cols


def _forward(x):
    h1, c1 = _conv(x, _W[0])
    h2, c2 = _conv(np.where(h1 > 0, h1, 0.01 * h1), _W[1])
    out, c3 = _conv(np.where(h2 > 0, h2, 0.01 * h2), _W[2])
    return out, (c1, h1, c2, h2, c3)


def _backward(cache, dout) -> None:
    c1, h1, c2, h2, c3 = cache
    dout.reshape(2, -1) @ c3
    dh2 = _conv(dout, _W_FLIP[2])[0] * np.where(h2 > 0, 1.0, 0.01)
    dh2.reshape(16, -1) @ c2
    dh1 = _conv(dh2, _W_FLIP[1])[0] * np.where(h1 > 0, 1.0, 0.01)
    dh1.reshape(16, -1) @ c1


def train_kernel() -> None:
    """Forward and backward passes of a 3-layer conv net on a 64^2 input."""
    for _ in range(TRAIN_SAMPLES):
        out, cache = _forward(_X)
        _backward(cache, out - _X)


def recon_kernel() -> None:
    """Per step: a conv net forward pass and a centered FFT round trip of 4 coil images."""
    for _ in range(RECON_STEPS):
        _forward(_X)
        k = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(_COILS, axes=(1, 2))), axes=(1, 2))
        np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(k, axes=(1, 2))), axes=(1, 2))


def trajectory_kernel() -> None:
    """Per step: the eligible entries of a 256^2 mask, 32 picks, a kept copy of the mask."""
    removed = np.zeros(_RADIUS.size, dtype=bool)
    keep = np.ones(_RADIUS.size, dtype=bool)
    held = []
    for t in range(TRAJECTORY_STEPS):
        eligible = np.flatnonzero(~removed & (_RADIUS > 100.0 - t / 4))
        rng = np.random.Generator(np.random.Philox(key=t))
        picked = np.sort(rng.choice(eligible, size=32, replace=False))
        removed[picked] = True
        keep = keep.copy()
        keep[picked] = False
        held.append(keep.copy())
