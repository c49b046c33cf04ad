"""Correction-weight schedules for reverse sampling.

The learned schedule is the per-step minimizer of the spectral blending
regression: w_t = (E||X_{t-1}||^2 - E||X_t||^2) / (E||X_0||^2 - E||X_t||^2),
estimated by Monte-Carlo over (image, trajectory) draws.  Because removal
sets are disjoint, the same ratio equals
E||X_{t-1} - X_t||^2 / E||X_0 - X_t||^2.  The weights come from this
difference form, a ratio of sums of non-negative terms; the
energy-balance form subtracts nearly equal energies and serves only as a
cross-check.  A draw's removed energies for every t are one O(N) pass,
its trajectory's ``removed_sums``.  The draws are independent, so they
run as ``parallel`` shares on every usable CPU (draw i in share i mod
k), and each draw's removed energies are added into the running sums in
draw order as they arrive: the schedule is the same bytes for every k,
and no more than a few draws are held at once.  A linear ablation
schedule is also provided.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import parallel
from .degradation import ProcessConfig, sample_trajectory
from .errors import ConfigError, ScheduleError
from .fileio import read_csv, read_json, write_csv, write_json
from .grid import KSpaceGrid, as_image, dft2
from .rng import child_seed

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
                    "(beyond sampling-noise tolerance)",
                    stacklevel=_outside_package(3),
                )

    @property
    def t_f(self) -> int:
        """The horizon: one weight per step."""
        return self.weights.size


def estimate_weights(images, process: ProcessConfig, mc_samples: int, seed: int = 0) -> CorrectionSchedule:
    """Monte-Carlo estimate of the learned schedule over the given dataset.

    Draw i pairs image ``i mod len(images)`` with a fresh trajectory, whose
    ``removed_sums`` of the spectral energy are ||X_{t-1} - X_t||^2.  The
    draws are dealt round-robin into k shares (draw i to share i mod k),
    k being the usable CPUs, at most ``mc_samples``
    (``parallel.share_count``).  This process runs share 0 and forked
    ``parallel.Workers`` run the others, each sending back its draws'
    removed sums one by one; they are added into the running sums here in
    draw order 0..n-1 as they arrive, so the weights and energy fractions
    are the same bytes for every k, and the n draws are never held at
    once.  A worker's exception is raised here; one that cannot be
    pickled, or a worker that dies, is a WorkerError.  w_t
    is the removed-energy ratio E||X_{t-1} - X_t||^2 / E||X_0 - X_t||^2,
    which lies in [0, 1] by construction.  The energy-balance ratio is
    accumulated through an independent arithmetic path and must agree to
    the relative tolerance 1e-8 + 4 n eps E||X_0||^2 / E||X_{t-1} - X_t||^2
    over n draws: each of its running means of ||X_t||^2 carries up to
    about (n+1)/2 eps E||X_0||^2 of summation rounding, which the
    subtraction turns into that relative error.
    """
    images = [as_image(x) for x in images]
    if not images:
        raise ConfigError("dataset must not be empty")
    if mc_samples < 1:
        raise ConfigError(f"mc_samples must be >= 1, got {mc_samples}")
    t_f = process.t_f
    grid = KSpaceGrid(*images[0].shape)
    if any(x.shape != grid.shape for x in images):
        raise ValueError("all dataset images must share one shape")
    energies = [np.abs(dft2(x).ravel()) ** 2 for x in images]
    totals = [float(energy.sum()) for energy in energies]  # ||X_0||^2 of each image

    def removed_sums(share, k):
        """Each of draws share, share + k, ...: its ||X_{t-1} - X_t||^2 for t = 1..T_f, in draw order."""
        for i in range(share, mc_samples, k):
            traj_cfg = replace(process, seed=child_seed(seed, "mc-trajectory", i))
            yield sample_trajectory(grid, traj_cfg, t_total=t_f).removed_sums(energies[i % len(images)])

    sum_et = np.zeros(t_f + 1)            # running sums of ||X_t||^2, t = 0..t_f
    sum_removed = np.zeros(t_f)           # running sums of ||X_{t-1} - X_t||^2
    sum_deficit = np.zeros(t_f)           # running sums of ||X_0 - X_t||^2

    k = parallel.share_count(mc_samples)
    with parallel.Workers(k, removed_sums, "Monte-Carlo") as workers:
        for i, removed in enumerate(workers.ordered(mc_samples)):
            e0 = totals[i % len(images)]
            deficit = np.cumsum(removed)
            sum_et[0] += e0
            sum_et[1:] += e0 - deficit
            sum_removed += removed
            sum_deficit += deficit

    mean_et = sum_et / mc_samples
    mean_e0 = mean_et[0]
    num_balance = mean_et[:-1] - mean_et[1:]
    den_balance = mean_e0 - mean_et[1:]
    num_diff = sum_removed / mc_samples
    den_diff = sum_deficit / mc_samples
    rounding = 4 * mc_samples * np.finfo(np.float64).eps * mean_e0

    weights = np.empty(t_f)
    for t in range(1, t_f + 1):
        if den_balance[t - 1] <= 0.0 or den_diff[t - 1] <= 0.0:
            raise ScheduleError(
                f"degenerate schedule at t={t}: no spectral energy removed yet "
                "(denominator of the weight ratio is zero)"
            )
        weight = num_diff[t - 1] / den_diff[t - 1]
        balance = num_balance[t - 1] / den_balance[t - 1]
        # the relative tolerance times w_t, so that a step removing no energy needs no division
        if abs(weight - balance) > 1e-8 * max(abs(weight), abs(balance)) + rounding / den_diff[t - 1]:
            raise ScheduleError(
                f"energy-balance and energy-difference ratios disagree at t={t}: "
                f"{balance!r} vs {weight!r}"
            )
        weights[t - 1] = weight

    gamma = mean_et / mean_et[0]
    return CorrectionSchedule(
        weights=weights,
        provenance="monte_carlo",
        mc_samples=mc_samples,
        energy_fraction=gamma,
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
    values.  Without metadata the schedule is a given one (provenance "constant").
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
    return CorrectionSchedule(
        weights=weights, provenance=meta.get("provenance", "constant"), mc_samples=int(meta.get("mc_samples", 0))
    )
