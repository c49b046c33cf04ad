"""A full-grid phantom builder kept as the reference for ``phantoms.make_phantom``.

It evaluates both coordinate grids (``np.mgrid``) and every ellipse over
the whole image, and draws each structure's sign with ``rng.choice``.
The package evaluates each ellipse over its bounding box only and must
give the same phantoms bit for bit.
"""

import numpy as np

from fdbridge.phantoms import MAX_ELLIPSES, MIN_ELLIPSES, PhantomSpec, _preset_intensity
from fdbridge.rng import substream


def reference_phantom(spec: PhantomSpec) -> np.ndarray:
    rng = substream(spec.seed, "phantom")
    h, w = spec.height, spec.width
    yy, xx = np.mgrid[0:h, 0:w]
    ny = (yy - (h - 1) / 2.0) / (h / 2.0)
    nx = (xx - (w - 1) / 2.0) / (w / 2.0)

    count = int(rng.integers(MIN_ELLIPSES, MAX_ELLIPSES + 1))
    mag = np.zeros((h, w), dtype=np.float64)
    edge = 2.5 / min(h, w)

    for i in range(count):
        if i == 0:
            cy, cx = rng.uniform(-0.04, 0.04, size=2)
            a = rng.uniform(0.72, 0.86)
            b = rng.uniform(0.72, 0.86)
            theta = rng.uniform(0, np.pi)
            kind = "shell"
        else:
            cy, cx = rng.uniform(-0.45, 0.45, size=2)
            a = rng.uniform(0.08, 0.42)
            b = rng.uniform(0.08, 0.42)
            theta = rng.uniform(0, np.pi)
            kind = "inner"
        u = float(rng.uniform(0.0, 1.0))
        value = _preset_intensity(spec.contrast, kind, u)
        ct, st = np.cos(theta), np.sin(theta)
        dy, dx = ny - cy, nx - cx
        q = np.sqrt(((dx * ct + dy * st) / a) ** 2 + ((-dx * st + dy * ct) / b) ** 2)
        coverage = np.clip((1.0 - q) / (edge / min(a, b)) + 0.5, 0.0, 1.0)
        sign = 1.0 if kind == "shell" else rng.choice([-1.0, 1.0, 1.0])
        mag += sign * value * coverage

    mag = np.clip(mag, 0.0, 1.0)

    coeffs = rng.uniform(-0.6, 0.6, size=6)
    phase = (
        coeffs[0]
        + coeffs[1] * nx
        + coeffs[2] * ny
        + coeffs[3] * nx * ny
        + coeffs[4] * nx**2
        + coeffs[5] * ny**2
    )
    return (mag * np.exp(1j * phase)).astype(np.complex128)
