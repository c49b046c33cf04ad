"""Synthetic complex-valued phantoms and dataset assembly.

Each phantom is a sum of anti-aliased random ellipses (one enclosing
shell plus internal structures) with magnitudes clamped to [0, 1] and a
smooth low-order polynomial phase.  Each ellipse is evaluated over its
bounding box only, outside which its coverage is exactly 0, so a phantom
has the bytes of evaluating every ellipse over the whole grid.  Contrast
presets remap the same random intensity draws, so two presets under one
seed share geometry and differ only in intensities.

Every generated phantom is named by a tag path under a run seed: its
seed is ``child_seed(seed, group, *index)`` (``seeded_phantom``), and a
dataset is the phantoms ``(group, 0), (group, 1), ...``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .fileio import read_json, write_cimg, write_json
from .rng import child_seed, substream

CONTRASTS = ("t1_like", "t2_like", "pd_like")
MIN_ELLIPSES = 4  # the enclosing shell plus at least three structures
MAX_ELLIPSES = 9


@dataclass(frozen=True)
class PhantomSpec:
    height: int
    width: int
    contrast: str = "t1_like"
    seed: int = 0

    def __post_init__(self):
        if min(self.height, self.width) < 32:
            raise ConfigError(f"phantom dims must be >= 32, got {self.height}x{self.width}")
        if self.contrast not in CONTRASTS:
            raise ConfigError(f"contrast must be one of {CONTRASTS}, got {self.contrast!r}")


def _preset_intensity(contrast: str, kind: str, u: float) -> float:
    # kind: "shell" for the enclosing ellipse, "inner" for structures.
    if contrast == "t1_like":
        return 0.82 + 0.12 * u if kind == "shell" else 0.15 + 0.75 * u
    if contrast == "t2_like":
        return 0.30 + 0.12 * u if kind == "shell" else 0.90 - 0.72 * u
    return 0.55 + 0.10 * u if kind == "shell" else 0.40 + 0.40 * u


def _span(center: float, half: float, n: int) -> slice:
    """The pixels of an axis of n whose normalized coordinate lies within half of center, and one more each side."""
    mid, scale = (n - 1) / 2.0, n / 2.0
    lo = math.floor((center - half) * scale + mid) - 1
    hi = math.ceil((center + half) * scale + mid) + 2
    return slice(max(lo, 0), min(hi, n))


def make_phantom(spec: PhantomSpec) -> np.ndarray:
    """Generate one phantom of MIN_ELLIPSES to MAX_ELLIPSES ellipses; bit-reproducible per spec.

    Each ellipse is evaluated over its bounding box, widened by the
    anti-aliasing band and one pixel.  Its coverage is exactly 0 outside
    that box, so the result has the bytes of evaluating every ellipse over
    the whole grid.
    """
    rng = substream(spec.seed, "phantom")
    h, w = spec.height, spec.width
    # normalized coordinates in [-1, 1], as a column and a row that broadcast
    ny = ((np.arange(h) - (h - 1) / 2.0) / (h / 2.0))[:, None]
    nx = (np.arange(w) - (w - 1) / 2.0) / (w / 2.0)

    count = int(rng.integers(MIN_ELLIPSES, MAX_ELLIPSES + 1))
    mag = np.zeros((h, w), dtype=np.float64)
    edge = 2.5 / min(h, w)  # anti-aliasing band in normalized units

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
        band = edge / min(a, b)
        # coverage > 0 exactly where q < 1 + band / 2: the ellipse with both semi-axes scaled by that
        grow = 1.0 + 0.5 * band
        rows = _span(cy, grow * math.hypot(a * st, b * ct), h)
        cols = _span(cx, grow * math.hypot(a * ct, b * st), w)
        dy, dx = ny[rows] - cy, nx[cols] - cx
        q = np.sqrt(((dx * ct + dy * st) / a) ** 2 + ((-dx * st + dy * ct) / b) ** 2)
        coverage = np.clip((1.0 - q) / band + 0.5, 0.0, 1.0)
        # (-1.0, 1.0, 1.0)[integers(0, 3)] takes what choice([-1.0, 1.0, 1.0]) takes from the stream
        sign = 1.0 if kind == "shell" else (-1.0, 1.0, 1.0)[rng.integers(0, 3)]
        mag[rows, cols] += sign * value * coverage

    mag = np.clip(mag, 0.0, 1.0)

    # smooth low-order phase (quadratic polynomial, small coefficients)
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


def seeded_phantom(height: int, width: int, contrast: str, seed: int, group: str, *index) -> np.ndarray:
    """The phantom named ``(group, *index)`` under the run seed ``seed``."""
    spec = PhantomSpec(height=height, width=width, contrast=contrast, seed=child_seed(seed, group, *index))
    return make_phantom(spec)


def generate_dataset(
    count: int, height: int, width: int, contrast: str, seed: int, group: str = "dataset"
) -> list[np.ndarray]:
    """The phantoms ``(group, i)`` for i < count under the dataset seed."""
    if count < 1:
        raise ConfigError(f"dataset count must be >= 1, got {count}")
    return [seeded_phantom(height, width, contrast, seed, group, i) for i in range(count)]


def save_dataset(out_dir, images: list[np.ndarray], contrast: str, seed: int) -> None:
    """Write images/NNNN.cimg plus a dataset manifest."""
    out_dir = Path(out_dir)
    ids = [f"{i:04d}.cimg" for i in range(len(images))]
    for name, img in zip(ids, images):
        write_cimg(out_dir / "images" / name, img)
    write_json(out_dir / "manifest.json", {"ids": ids, "contrast": contrast, "seed": seed, "count": len(images)})


def dataset_ids(in_dir) -> list[str]:
    """The image ids a dataset directory's manifest lists; ValueError if it holds no list of ids."""
    manifest = read_json(Path(in_dir) / "manifest.json")
    ids = manifest.get("ids") if isinstance(manifest, dict) else None
    if not (isinstance(ids, list) and all(isinstance(name, str) for name in ids)):
        raise ValueError(f"{in_dir}: manifest.json lists no image ids")
    return ids

