"""Accelerated-acquisition measurement model.

The forward operator A maps an image to per-coil masked k-space,
``A x = M * DFT(S_c * x)``, and its adjoint A^H combines the coils with
conjugate sensitivities, ``A^H y = sum_c conj(S_c) * IDFT(M * y_c)``.
Each is written once, in FFT-native layout (``grid``), and transforms
the whole coil stack with one FFT call: ``native_forward`` and
``native_adjoint`` take a ``NativeSystem``, the system's coil maps,
their conjugates and the mask's complement shifted once by
``native_system``, and native images and data.  The data-consistency
update ``native_dc`` (x + A^H (y - A x)) and ``native_residual``
(||A x - y||) are composed from them; the reverse loop calls these four.
``apply_forward``, ``adjoint``, ``dc_projection`` and ``residual_norm``
are the same functions on centered arrays, shifted in on entry and out
on return, and the simulated acquisition ``forward`` is A plus noise on
the sampled locations.  Coil maps are synthetic smooth Gaussian lobes
with linear phase ramps, normalized to unit sum-of-squares per pixel, so
the single-coil map has unit magnitude but keeps its phase ramp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .fileio import write_cimg, write_json, write_kmsk
from .grid import KSpaceGrid, as_image, dft2, idft2, to_centered, to_native
from .rng import substream

MASK_DENSITIES = ("normal2d", "normal1d", "uniform")


@dataclass
class ImagingSystem:
    """Sampling mask, coil sensitivities and grid geometry for one acquisition."""

    mask: np.ndarray            # (H, W) bool
    coil_maps: np.ndarray       # (C, H, W) complex128
    grid: KSpaceGrid

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        self.coil_maps = np.asarray(self.coil_maps, dtype=np.complex128)
        if self.mask.shape != self.grid.shape:
            raise ValueError(f"mask shape {self.mask.shape} does not match grid {self.grid.shape}")
        if self.coil_maps.ndim != 3 or self.coil_maps.shape[1:] != self.grid.shape:
            raise ValueError(f"coil maps must be (C, {self.grid.height}, {self.grid.width})")
        sos = np.sum(np.abs(self.coil_maps) ** 2, axis=0)
        if np.max(np.abs(sos - 1.0)) > 1e-10:
            raise ValueError("coil maps must be sum-of-squares normalized per pixel")

    @property
    def n_coils(self) -> int:
        return int(self.coil_maps.shape[0])


@dataclass
class Measurement:
    """Per-coil masked k-space data with acquisition metadata."""

    data: np.ndarray            # (C, H, W) complex128, zero off the mask
    acceleration: float
    noise_sigma: float = 0.0


def default_calib(height: int, width: int) -> int:
    """Side of the fully sampled central block: 16 on a 256 grid, scaled elsewhere."""
    return max(1, math.ceil(max(height, width) / 16))


def _central(n: int, calib: int) -> np.ndarray:
    """Indicator of the ``calib`` indices around the DC index ``n // 2`` of a length-``n`` axis."""
    keep = np.zeros(n, dtype=bool)
    start = n // 2 - calib // 2
    keep[start : start + calib] = True
    return keep


def _bisect_sigma(radius: np.ndarray, budget: int) -> float:
    """Find sigma so that sum(exp(-r^2 / 2 sigma^2)) matches budget within 1%."""
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
        got = expected(mid)
        if got < budget:
            lo = mid
        else:
            hi = mid
        if abs(got - budget) <= 0.01 * budget:
            return mid
    return 0.5 * (lo + hi)


def make_sampling_mask(
    grid: KSpaceGrid,
    r: float,
    density: str = "normal2d",
    calib: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Random sampling mask keeping ~1/R of k-space.

    The mask keeps round(n/R) of n units, which must hit 1/R within 5%:
    k-space components, or full phase-encode columns for normal1d.  The
    calibration region is always kept: the central calib x calib block, or
    the calib central columns, starting at index ``size // 2 - calib // 2``.
    The other units are drawn without replacement, uniformly or with
    Gaussian weights in their distance to DC, whose width is bisected so
    the expected keep-count matches the budget within 1%.
    """
    if not r > 1.0:
        raise ConfigError(f"acceleration R must be > 1, got {r}")
    if density not in MASK_DENSITIES:
        raise ConfigError(f"density must be one of {MASK_DENSITIES}, got {density!r}")
    if calib is None:
        calib = default_calib(grid.height, grid.width)
    if calib < 0 or calib >= min(grid.height, grid.width):
        raise ConfigError(f"calib must be in [0, {min(grid.shape)}), got {calib}")

    rng = substream(seed, "sampling-mask", density)
    cols = _central(grid.width, calib)
    if density == "normal1d":
        unit = "column"
        calibrated = cols
        distance = grid.radius[grid.height // 2]  # the DC row: each column's offset from DC
    else:
        unit = "component"
        calibrated = np.outer(_central(grid.height, calib), cols).ravel()
        distance = grid.radius.ravel()
    target = int(round(calibrated.size / r))
    if abs(target / calibrated.size - 1.0 / r) > 0.05 / r:
        raise ConfigError(f"mask cannot hit 1/R={1/r:.4f} within 5% over {calibrated.size} {unit}s")
    n_calib = int(calibrated.sum())
    if target < n_calib:
        raise ConfigError(f"keep budget of {target} {unit}s smaller than the {n_calib} in the calibration region")
    budget = target - n_calib
    keep = calibrated.copy()
    candidates = np.flatnonzero(~calibrated)
    if budget >= candidates.size:
        keep[:] = True
    elif budget > 0:
        if density == "uniform":
            picked = rng.choice(candidates, size=budget, replace=False)
        else:
            dist = distance[candidates]
            sigma = _bisect_sigma(dist, budget)
            weights = np.exp(-dist ** 2 / (2.0 * sigma * sigma))
            picked = rng.choice(candidates, size=budget, replace=False, p=weights / weights.sum())
        keep[picked] = True
    if density == "normal1d":
        return np.repeat(keep[None, :], grid.height, axis=0)
    return keep.reshape(grid.shape)


def synth_coil_maps(grid: KSpaceGrid, n_coils: int, seed: int = 0) -> np.ndarray:
    """Smooth Gaussian-lobed complex sensitivities, unit sum-of-squares per pixel."""
    if n_coils < 1:
        raise ConfigError(f"coil count must be >= 1, got {n_coils}")
    rng = substream(seed, "coil-maps")
    h, w = grid.shape
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ring = 0.38 * min(h, w)
    lobe_width = 0.55 * min(h, w)
    maps = np.empty((n_coils, h, w), dtype=np.complex128)
    for c in range(n_coils):
        angle = 2.0 * np.pi * c / n_coils + rng.uniform(-0.15, 0.15)
        my = cy + ring * np.sin(angle)
        mx = cx + ring * np.cos(angle)
        width_c = lobe_width * rng.uniform(0.9, 1.1)
        lobe = np.exp(-((yy - my) ** 2 + (xx - mx) ** 2) / (2.0 * width_c**2))
        ay, ax = rng.uniform(-0.5, 0.5, size=2)
        phase = 2.0 * np.pi * (ay * (yy - cy) / h + ax * (xx - cx) / w) + rng.uniform(0, 2 * np.pi)
        maps[c] = lobe * np.exp(1j * phase)
    sos = np.sqrt(np.sum(np.abs(maps) ** 2, axis=0))
    return maps / sos[None, :, :]


def _check_image(system: ImagingSystem, x) -> np.ndarray:
    x = as_image(x)
    if x.shape != system.grid.shape:
        raise ValueError(f"image shape {x.shape} does not match grid {system.grid.shape}")
    return x


class NativeSystem(NamedTuple):
    """An ImagingSystem's arrays in FFT-native layout, built once per reconstruction by :func:`native_system`."""

    coil_maps: np.ndarray       # (C, H, W) complex128
    conj_maps: np.ndarray       # (C, H, W), conj(coil_maps)
    unsampled: np.ndarray       # (H, W) bool, ~mask


def native_system(system: ImagingSystem) -> NativeSystem:
    """The system's coil maps, their conjugates and the mask's complement, shifted to FFT-native layout."""
    maps = to_native(system.coil_maps)
    return NativeSystem(maps, np.conj(maps), to_native(~system.mask))


def native_forward(native: NativeSystem, x: np.ndarray) -> np.ndarray:
    """A in FFT-native layout: M * DFT(S_c * x) for a native image, all coils in one FFT call."""
    spec = dft2(native.coil_maps * x, native=True)
    np.copyto(spec, 0.0, where=native.unsampled)
    return spec


def apply_forward(system: ImagingSystem, x: np.ndarray) -> np.ndarray:
    """A for a centered image, as a raw centered (C, H, W) array: :func:`native_forward` between layout shifts."""
    x = to_native(_check_image(system, x))
    return to_centered(native_forward(native_system(system), x))


def forward(
    system: ImagingSystem,
    x: np.ndarray,
    noise_sigma: float = 0.0,
    seed: int = 0,
    acceleration: float | None = None,
) -> Measurement:
    """Simulate the acquisition y_c = M * DFT(S_c * x) + noise (noise on sampled locations only)."""
    if noise_sigma < 0:
        raise ConfigError(f"noise_sigma must be >= 0, got {noise_sigma}")
    data = apply_forward(system, x)
    if noise_sigma > 0:
        rng = substream(seed, "measurement-noise")
        scale = noise_sigma / math.sqrt(2.0)
        noise = scale * (
            rng.standard_normal(data.shape) + 1j * rng.standard_normal(data.shape)
        )
        data += np.where(system.mask[None, :, :], noise, 0.0)
    if acceleration is None:
        acceleration = system.grid.n_components / max(1, int(system.mask.sum()))
    return Measurement(data=data, acceleration=float(acceleration), noise_sigma=float(noise_sigma))


def native_measurement(system: ImagingSystem, y: Measurement) -> np.ndarray:
    """``y``'s (C, H, W) data in FFT-native layout, as a new array; rejected unless its shape matches the system."""
    if y.data.shape != (system.n_coils, *system.grid.shape):
        raise ValueError(f"measurement shape {y.data.shape} does not match system")
    return to_native(y.data)


def native_adjoint(native: NativeSystem, data: np.ndarray) -> np.ndarray:
    """A^H in FFT-native layout: sum_c conj(S_c) * IDFT(M * y_c), summed in coil order; overwrites ``data``."""
    np.copyto(data, 0.0, where=native.unsampled)
    data = idft2(data, native=True)
    np.multiply(native.conj_maps, data, out=data)
    out = np.zeros(data.shape[1:], dtype=np.complex128)
    for image in data:
        out += image
    return out


def adjoint(system: ImagingSystem, y: Measurement) -> np.ndarray:
    """A^H of centered data, as a centered image: :func:`native_adjoint` between layout shifts."""
    return to_centered(native_adjoint(native_system(system), native_measurement(system, y)))


def _norm(residual: np.ndarray) -> float:
    """||residual|| for a contiguous complex array, summed the same way whatever BLAS's thread count.

    ``np.linalg.norm`` takes a BLAS dot product, which OpenBLAS splits
    across its threads on large inputs, so its last digits would follow
    the CPUs a run may use; numpy's own pairwise sum does not.
    """
    return math.sqrt(np.add.reduce(np.square(residual.view(np.float64)), axis=None))


def native_dc(native: NativeSystem, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """In FFT-native layout, the data-consistency update x + A^H (y - A x) and ||y - A x||, the input's residual."""
    residual = y - native_forward(native, x)
    norm = _norm(residual)
    return x + native_adjoint(native, residual), norm


def dc_projection(system: ImagingSystem, x: np.ndarray, y: Measurement) -> tuple[np.ndarray, float]:
    """:func:`native_dc` of a centered image and centered data, the image shifted back.

    A projection onto the measured data only at one coil; at C > 1 the update is one Landweber step.
    """
    x = to_native(_check_image(system, x))
    image, norm = native_dc(native_system(system), x, native_measurement(system, y))
    return to_centered(image), norm


def native_residual(native: NativeSystem, x: np.ndarray, y: np.ndarray) -> float:
    """||A x - y|| in FFT-native layout."""
    return _norm(native_forward(native, x) - y)


def residual_norm(system: ImagingSystem, x: np.ndarray, y: Measurement) -> float:
    """:func:`native_residual` of a centered image and centered data."""
    x = to_native(_check_image(system, x))
    return native_residual(native_system(system), x, native_measurement(system, y))


def save_measurement(out_dir, system: ImagingSystem, y: Measurement, seed: int, density: str) -> None:
    """Serialize a measurement: one CIMG1 per coil and per coil map, the KMSK1 mask, and a JSON sidecar."""
    out_dir = Path(out_dir)
    for c in range(system.n_coils):
        write_cimg(out_dir / f"coil_{c:02d}.cimg", y.data[c])
        write_cimg(out_dir / f"sens_{c:02d}.cimg", system.coil_maps[c])
    write_kmsk(out_dir / "mask.kmsk", system.mask)
    write_json(
        out_dir / "measurement.json",
        {
            "R": y.acceleration,
            "C": system.n_coils,
            "noise_sigma": y.noise_sigma,
            "seed": seed,
            "density": density,
        },
    )
