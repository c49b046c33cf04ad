"""Image-quality metrics on magnitude images (PSNR, SSIM), each scaled by the reference's maximum."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# SSIM's canonical constants: the Gaussian window's side and standard deviation in pixels, and the
# luminance and contrast stabilizers as fractions of the dynamic range (the reference's maximum)
SSIM_WINDOW, SSIM_SIGMA, SSIM_K1, SSIM_K2 = 11, 1.5, 0.01, 0.03


def _magnitudes(ref, test) -> tuple[np.ndarray, np.ndarray]:
    ref = np.asarray(ref)
    test = np.asarray(test)
    if ref.shape != test.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {test.shape}")
    return np.abs(ref).astype(np.float64), np.abs(test).astype(np.float64)


def psnr(ref, test) -> float:
    """Peak signal-to-noise ratio in dB; ``inf`` for identical inputs.

    Computed on magnitudes, with the reference maximum as the peak.
    """
    a, b = _magnitudes(ref, test)
    peak = float(a.max())
    if peak <= 0:
        raise ValueError(f"reference peak must be > 0, got {peak}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return float("inf")
    return 20.0 * np.log10(peak) - 10.0 * np.log10(mse)


def _gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    half = (size - 1) / 2.0
    x = np.arange(size) - half
    k = np.exp(-(x**2) / (2.0 * sigma**2))
    return k / k.sum()


def _filter_valid(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable valid-mode correlation with a symmetric 1D kernel."""
    k = kernel.size
    a = sliding_window_view(img, k, axis=1) @ kernel
    return sliding_window_view(a, k, axis=0) @ kernel


def ssim(ref, test) -> float:
    """Mean local structural similarity on magnitude images.

    Canonical Gaussian-window formulation with the SSIM_* constants;
    windows are cropped to the valid region.  The window shrinks to the
    largest odd size that fits when the image is smaller than SSIM_WINDOW
    in either dimension.
    """
    a, b = _magnitudes(ref, test)
    min_dim = min(a.shape)
    window = min(SSIM_WINDOW, min_dim - 1 + min_dim % 2)  # the largest odd size that fits
    if window < 1:
        raise ValueError("image too small for any SSIM window")
    dynamic_range = float(a.max())
    if dynamic_range <= 0:
        # both images must be identically zero for the reference max to vanish
        return 1.0 if np.array_equal(a, b) else 0.0
    c1 = (SSIM_K1 * dynamic_range) ** 2
    c2 = (SSIM_K2 * dynamic_range) ** 2

    kern = _gaussian_kernel(window, SSIM_SIGMA)
    mu_a = _filter_valid(a, kern)
    mu_b = _filter_valid(b, kern)
    aa = _filter_valid(a * a, kern)
    bb = _filter_valid(b * b, kern)
    ab = _filter_valid(a * b, kern)

    var_a = aa - mu_a**2
    var_b = bb - mu_b**2
    cov = ab - mu_a * mu_b

    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))
