"""A two-branch sampling-mask builder kept as the reference for ``imaging.make_sampling_mask``.

It selects phase-encode columns for normal1d and k-space components for
the other densities, each with its own calibration region, budget check
and Gaussian draw.  The package's one selection over units must give the
same masks bit for bit and reject the same inputs.
"""

import numpy as np

from fdbridge.errors import ConfigError
from fdbridge.grid import KSpaceGrid
from fdbridge.imaging import MASK_DENSITIES, default_calib
from fdbridge.rng import substream


def _bisect_sigma(radius: np.ndarray, budget: int) -> float:
    # evaluates the expected count at each midpoint twice: once to bisect, once to test the 1% exit
    r2 = radius.astype(np.float64) ** 2

    def expected(sigma: float) -> float:
        return float(np.exp(-r2 / (2.0 * sigma * sigma)).sum())

    lo, hi = 1e-3, 1.0
    while expected(hi) < budget:
        hi *= 2.0
        if hi > 1e9:
            raise ConfigError("sampling-density calibration failed to bracket the budget")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if expected(mid) < budget:
            lo = mid
        else:
            hi = mid
        if abs(expected(mid) - budget) <= 0.01 * budget:
            return mid
    return 0.5 * (lo + hi)


def _calib_block(grid: KSpaceGrid, calib: int) -> np.ndarray:
    block = np.zeros(grid.shape, dtype=bool)
    if calib == 0:
        return block
    cy, cx = grid.height // 2, grid.width // 2
    y0 = cy - calib // 2
    x0 = cx - calib // 2
    block[y0 : y0 + calib, x0 : x0 + calib] = True
    return block


def reference_sampling_mask(grid: KSpaceGrid, r: float, density: str = "normal2d", calib=None, seed: int = 0):
    if not r > 1.0:
        raise ConfigError(f"acceleration R must be > 1, got {r}")
    if density not in MASK_DENSITIES:
        raise ConfigError(f"density must be one of {MASK_DENSITIES}, got {density!r}")
    if calib is None:
        calib = default_calib(grid.height, grid.width)
    if calib < 0 or calib >= min(grid.height, grid.width):
        raise ConfigError(f"calib must be in [0, {min(grid.shape)}), got {calib}")

    rng = substream(seed, "sampling-mask", density)

    if density == "normal1d":
        width = grid.width
        target_lines = int(round(width / r))
        if abs(target_lines / width - 1.0 / r) > 0.05 / r:
            raise ConfigError(f"1D mask cannot hit 1/R={1/r:.4f} within 5% on width {width}")
        if target_lines < calib:
            raise ConfigError(f"line budget {target_lines} smaller than calib block {calib}")
        cx = width // 2
        x0 = cx - calib // 2
        calib_cols = np.zeros(width, dtype=bool)
        calib_cols[x0 : x0 + calib] = True
        budget = target_lines - calib
        keep_cols = calib_cols.copy()
        candidates = np.flatnonzero(~calib_cols)
        if budget >= candidates.size:
            keep_cols[:] = True
        elif budget > 0:
            dist = np.abs(np.arange(width) - cx).astype(np.float64)
            sigma = _bisect_sigma(dist[candidates], budget)
            weights = np.exp(-dist[candidates] ** 2 / (2.0 * sigma * sigma))
            picked = rng.choice(candidates, size=budget, replace=False, p=weights / weights.sum())
            keep_cols[picked] = True
        return np.repeat(keep_cols[None, :], grid.height, axis=0)

    target_keep = int(round(grid.n_components / r))
    if abs(target_keep / grid.n_components - 1.0 / r) > 0.05 / r:
        raise ConfigError(f"mask cannot hit 1/R={1/r:.4f} within 5% on grid {grid.shape}")
    block = _calib_block(grid, calib)
    if target_keep < calib * calib:
        raise ConfigError(f"keep budget {target_keep} smaller than the {calib}x{calib} calibration block")
    budget = target_keep - int(block.sum())
    keep = block.ravel().copy()
    candidates = np.flatnonzero(~block.ravel())
    if budget >= candidates.size:
        keep[:] = True
    elif budget > 0:
        if density == "uniform":
            picked = rng.choice(candidates, size=budget, replace=False)
        else:
            rad = grid.radius.ravel()[candidates]
            sigma = _bisect_sigma(rad, budget)
            weights = np.exp(-rad ** 2 / (2.0 * sigma * sigma))
            picked = rng.choice(candidates, size=budget, replace=False, p=weights / weights.sum())
        keep[picked] = True
    return keep.reshape(grid.shape)
