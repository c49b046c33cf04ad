"""Complex image arrays, the centered orthonormal 2D DFT, and k-space geometry.

Images are plain ``numpy`` arrays of shape ``(H, W)`` and dtype
``complex128``.  Spectra use the centered convention: the DC component
sits at index ``(H // 2, W // 2)`` so radius thresholds read directly off
array indices.  Frequency masks are boolean ``(H, W)`` arrays
(True = component retained).

Inside a computation arrays may stay in the FFT-native layout that
``np.fft`` works in (DC at index ``(0, 0)``, for images and spectra
alike): ``to_native`` and ``to_centered`` convert over the last two
axes, and ``dft2`` and ``idft2`` with ``native=True`` transform there, so
a ``(C, H, W)`` stack shifts and transforms in one call each.  None of
these validate their input.  A shift is an exact permutation, so a
computation gives the same bits in either layout as long as it sums
nothing.  The imaging operators (``imaging.native_*``) and
``sampler.reverse_step`` take native arrays; the reverse loop converts
its inputs once per reconstruction and then shifts twice per step: the
iterate to centered layout for the recovery operator and the PSNR, and
the operator's estimate back to native layout.  ``degradation.corrupt``
shifts its image and keep-mask to native layout, masks the spectrum
there and shifts the result back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def as_image(data) -> np.ndarray:
    """Validate and convert ``data`` to a 2D complex128 image array."""
    img = np.asarray(data)
    if img.ndim != 2:
        raise ValueError(f"image must be 2D, got shape {img.shape}")
    if img.shape[0] < 1 or img.shape[1] < 1:
        raise ValueError(f"image dimensions must be positive, got {img.shape}")
    img = img.astype(np.complex128, copy=False)
    if not np.all(np.isfinite(img)):
        raise ValueError("image contains non-finite components")
    return img


def to_native(a: np.ndarray) -> np.ndarray:
    """Centered to FFT-native layout over the last two axes, as a new array."""
    return np.fft.ifftshift(a, axes=(-2, -1))


def to_centered(a: np.ndarray) -> np.ndarray:
    """FFT-native to centered layout over the last two axes, as a new array; inverse of :func:`to_native`."""
    return np.fft.fftshift(a, axes=(-2, -1))


def dft2(a: np.ndarray, *, native: bool = False) -> np.ndarray:
    """Orthonormal forward 2D DFT.

    By default ``a`` is a 2D image, validated, and the spectrum is centered
    (DC at (H//2, W//2)).  With ``native=True`` ``a`` is a ``(..., H, W)``
    stack in FFT-native layout, transformed over its last two axes as is.
    """
    if native:
        return np.fft.fft2(a, norm="ortho")
    return to_centered(np.fft.fft2(to_native(as_image(a)), norm="ortho"))


def idft2(spectrum: np.ndarray, *, native: bool = False) -> np.ndarray:
    """Orthonormal inverse 2D DFT; exact inverse of :func:`dft2` in the same layout."""
    if native:
        return np.fft.ifft2(spectrum, norm="ortho")
    return to_centered(np.fft.ifft2(to_native(as_image(spectrum)), norm="ortho"))


@dataclass(frozen=True)
class KSpaceGrid:
    """Geometry of an H x W centered Cartesian k-space grid."""

    height: int
    width: int

    def __post_init__(self):
        if self.height < 2 or self.width < 2:
            raise ValueError(f"grid dimensions must be >= 2, got {self.height}x{self.width}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    @property
    def n_components(self) -> int:
        return self.height * self.width

    @cached_property
    def radius(self) -> np.ndarray:
        """Per-component Euclidean distance to DC, in frequency-index units."""
        fy = np.arange(self.height) - self.height // 2
        fx = np.arange(self.width) - self.width // 2
        r = np.hypot(fy[:, None], fx[None, :])
        r.setflags(write=False)
        return r

    @cached_property
    def radius_order(self) -> np.ndarray:
        """Flat indices of the non-DC components by descending radius, ties in ascending index order."""
        order = np.argsort(-self.radius, axis=None, kind="stable")[:-1]  # DC, radius 0, sorts last
        order.setflags(write=False)
        return order


def radius_map(height: int, width: int) -> KSpaceGrid:
    """Build the centered k-space grid for an H x W image."""
    return KSpaceGrid(int(height), int(width))
