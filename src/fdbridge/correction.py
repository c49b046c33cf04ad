"""Correction-weight schedules for reverse sampling.

The learned schedule is the per-step minimizer of the spectral blending
regression: w_t = (E||X_{t-1}||^2 - E||X_t||^2) / (E||X_0||^2 - E||X_t||^2),
with the expectation over (image, trajectory) pairs.  Because removal
sets are disjoint, the same ratio equals
E||X_{t-1} - X_t||^2 / E||X_0 - X_t||^2, a ratio of sums of non-negative
terms, and only this form is computed.  The expectation over
trajectories is exact: ``degradation.expected_removed_sums`` gives every
step's expected removed energy in one O(N + T_f) pass, so the schedule is
the limit that a Monte-Carlo estimate over sampled trajectories
converges to.  A linear ablation schedule is also provided.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .degradation import ProcessConfig, expected_removed_sums
from .errors import ConfigError, ScheduleError
from .fileio import read_csv, read_json, write_csv, write_json
from .grid import KSpaceGrid, as_image, dft2

PROVENANCES = ("monte_carlo", "linear", "constant")
_PACKAGE_DIR = Path(__file__).parent


def _outside_package(stacklevel: int) -> int:
    """``stacklevel``, as the caller passes it to ``warnings.warn``, raised past the frames in this package.

    Python 3.12's ``skip_file_prefixes`` does this; 3.10 and 3.11 lack it.
    """
    frame = sys._getframe(stacklevel)  # frame 1 is the caller, which is stacklevel 1
    while Path(frame.f_code.co_filename).parent == _PACKAGE_DIR and frame.f_back is not None:
        frame, stacklevel = frame.f_back, stacklevel + 1
    return stacklevel


@dataclass
class CorrectionSchedule:
    """Weights w_t for t = 1..t_f, all in [0, 1], with w_1 = 1 for learned and linear schedules."""

    weights: np.ndarray
    provenance: str
    mc_samples: int = 0
    energy_fraction: np.ndarray | None = None  # E||X_t||^2 / E||X_0||^2 for t = 0..t_f

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.provenance not in PROVENANCES:
            raise ConfigError(f"provenance must be one of {PROVENANCES}, got {self.provenance!r}")
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise ScheduleError(f"schedule needs a non-empty 1-D array of weights, got shape {self.weights.shape}")
        if not np.all((self.weights >= 0) & (self.weights <= 1)):  # NaN lies in no interval
            raise ValueError("weights must lie in [0, 1]")
        if self.provenance == "monte_carlo":
            rises = np.diff(self.weights)
            worst = float(rises.max(initial=0.0))
            if worst > 1e-3:
                # level 3 is the caller of the __init__ that dataclass generates; the warning
                # names the first frame above it that is outside the package
                warnings.warn(
                    f"monte_carlo schedule is non-monotone by {worst:.3g} "
                    "(a weight exceeds the one before it by more than 1e-3)",
                    stacklevel=_outside_package(3),
                )

    @property
    def t_f(self) -> int:
        """The horizon: one weight per step."""
        return self.weights.size


def estimate_weights(images, process: ProcessConfig, mc_samples: int, seed: int = 0) -> CorrectionSchedule:
    """The learned schedule over the given dataset, exact in its expectation over trajectories.

    ``mc_samples`` counts (image, trajectory) draws, draw i standing for
    image ``i mod len(images)``, so it weights each image by its number
    of draws; the weights are equal whenever it is a multiple of the
    dataset size.  No trajectory is drawn: each draw's
    ||X_{t-1} - X_t||^2 is replaced by its mean over every trajectory of
    ``process``, ``expected_removed_sums`` of the image's spectral
    energy.  That mean is linear in the energy, so it is taken once, of
    the draw-weighted mean spectrum.  ``seed`` is not read; it stays for
    callers that pass one.  w_t is the removed-energy ratio
    E||X_{t-1} - X_t||^2 / E||X_0 - X_t||^2, which lies in [0, 1] by
    construction.  ||X_0 - X_t||^2 is the cumulative sum of the removed
    energies, which never decreases in t, so the schedule is degenerate
    (ScheduleError) exactly when step 1 removes no energy.
    """
    images = [as_image(x) for x in images]
    if not images:
        raise ConfigError("dataset must not be empty")
    if mc_samples < 1:
        raise ConfigError(f"mc_samples must be >= 1, got {mc_samples}")
    grid = KSpaceGrid(*images[0].shape)
    for x in images:
        if x.shape != grid.shape:
            raise ConfigError(f"all dataset images must share one shape, got {grid.shape} and {x.shape}")
    draws = np.bincount(np.arange(mc_samples) % len(images), minlength=len(images))
    energy = sum(int(k) * np.abs(dft2(x)) ** 2 for k, x in zip(draws, images) if k) / mc_samples
    removed = expected_removed_sums(grid, process, energy, process.t_f)  # E||X_{t-1} - X_t||^2
    deficit = np.cumsum(removed)                                           # E||X_0 - X_t||^2
    if not deficit[0] > 0.0:
        raise ScheduleError(
            "degenerate schedule at t=1: no spectral energy removed yet "
            "(denominator of the weight ratio is zero)"
        )
    return CorrectionSchedule(
        weights=removed / deficit,
        provenance="monte_carlo",
        mc_samples=mc_samples,
        energy_fraction=np.concatenate(([1.0], 1.0 - deficit / energy.sum())),
    )


def linear_weights(t_f: int) -> CorrectionSchedule:
    """Ablation schedule: 1 at t=1 falling linearly to 0 at t=T."""
    if t_f < 1:
        raise ConfigError(f"T must be >= 1, got {t_f}")
    if t_f == 1:
        weights = np.array([1.0])
    else:
        t = np.arange(1, t_f + 1, dtype=np.float64)
        weights = 1.0 - (t - 1.0) / (t_f - 1.0)
    return CorrectionSchedule(weights=weights, provenance="linear")


def resample_weights(schedule: CorrectionSchedule, t_r: int) -> np.ndarray:
    """Resample a length-T_f schedule onto t_r steps.

    Linear interpolation under the affine index map [1, t_r] -> [1, T_f]:
    identity when t_r == T_f, endpoints preserved exactly, and exactly
    linear outputs for linear inputs.
    """
    if t_r < 1:
        raise ConfigError(f"T_r must be >= 1, got {t_r}")
    w, t_f = schedule.weights, schedule.t_f
    if t_r == t_f:
        return w.copy()
    if t_f == 1 or t_r == 1:
        return np.full(t_r, w[0])
    positions = 1.0 + (np.arange(t_r, dtype=np.float64)) * (t_f - 1.0) / (t_r - 1.0)
    positions[0], positions[-1] = 1.0, float(t_f)  # exact endpoints despite rounding
    return np.interp(positions, np.arange(1, t_f + 1, dtype=np.float64), w)


def save_schedule(out_dir, schedule: CorrectionSchedule, r_prime: float, seed: int) -> None:
    """schedule.csv (t, w) plus schedule.json metadata, which ``load_schedule`` reads back."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [(t + 1, float(w)) for t, w in enumerate(schedule.weights)]
    write_csv(out_dir / "schedule.csv", ["t", "w"], rows)
    write_json(
        out_dir / "schedule.json",
        {
            "provenance": schedule.provenance,
            "mc_samples": schedule.mc_samples,
            "R_prime": r_prime,
            "T_f": schedule.t_f,
            "seed": seed,
        },
    )


def load_schedule(csv_path, process: ProcessConfig) -> CorrectionSchedule:
    """Read a schedule CSV (header t,w; t counting 1, 2, ...) and its sibling ``.json`` metadata.

    The CSV must hold ``process``'s T_f rows, and the metadata, if any,
    state its R_prime and T_f; a mismatch raises a ConfigError naming the
    values.  Metadata whose ``mc_samples`` is not an integer >= 0 raises
    ValueError.  Without metadata the schedule is a given one (provenance
    "constant").
    """
    header, rows = read_csv(csv_path)
    if header[:2] != ["t", "w"]:
        raise ValueError(f"{csv_path}: expected header t,w")
    if not rows:
        raise ValueError(f"{csv_path}: no weight rows")
    for i, row in enumerate(rows, start=1):
        if row[0] != str(i):
            raise ValueError(f"{csv_path}: row {i} has t={row[0]}, expected t={i}")
        if len(row) < 2:
            raise ValueError(f"{csv_path}: row {i} holds no weight")
    weights = np.array([float(r[1]) for r in rows])
    if weights.size != process.t_f:
        raise ConfigError(f"{csv_path} holds {weights.size} rows, but the process has T_f={process.t_f}")
    meta_path = Path(csv_path).with_suffix(".json")
    if not meta_path.exists():
        return CorrectionSchedule(weights=weights, provenance="constant")
    meta = read_json(meta_path)
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path}: schedule metadata is not a JSON object")
    estimated_for = (meta.get("R_prime"), meta.get("T_f"))
    if estimated_for != (process.r_prime, process.t_f):
        raise ConfigError(
            f"{meta_path} describes R_prime={estimated_for[0]}, T_f={estimated_for[1]}, "
            f"but the process has R_prime={process.r_prime}, T_f={process.t_f}"
        )
    mc_samples = meta.get("mc_samples", 0)
    if type(mc_samples) is not int or mc_samples < 0:  # bool is an int subclass, and no count
        raise ValueError(f"{meta_path}: mc_samples={mc_samples!r}, expected an integer >= 0")
    return CorrectionSchedule(weights=weights, provenance=meta.get("provenance", "constant"), mc_samples=mc_samples)
