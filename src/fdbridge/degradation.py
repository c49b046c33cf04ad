"""Stochastic frequency-removal forward process.

A trajectory removes a scheduled number of not-yet-removed k-space
components per step, sampled uniformly from the annulus above a shrinking
radius threshold (peripheral-to-central order).  Each component is
removed at most once, so one realization is stored as a removal-time map:
the step at which each component was removed, 0 for never.  The keep-mask
at step t (components never removed or removed after t) defines an
image-domain corruption operator: forward DFT, mask, inverse DFT.  The DC
component is never removed, so total image energy cannot vanish.  Only
this module reads the map; other modules use the trajectory's accessors.

Sampling walks the components in descending-radius order, so a
radius-scheduled step costs O(m log m) in the m candidates between the
outermost remaining one and its threshold, not O(N) in the grid; uniform
density scans the grid, O(N) per step.  Each step draws from its
eligible set in ascending flat-index order, so the output does not
depend on the candidate order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, TrajectoryError
from .fileio import write_json, write_kmsk
from .grid import KSpaceGrid, apply_mask, as_image, dft2, idft2
from .rng import substream

DENSITIES = ("radius_scheduled", "uniform")
STEP_COUNT_SCHEDULES = ("constant", "log")
PROCESS_KINDS = ("frequency_removal", "averaging_constraint")


@dataclass(frozen=True)
class ProcessConfig:
    """Parameters of the frequency-removal process.

    ``r_prime`` is the degradation level reached at step ``t_f`` (the
    kept fraction there is 1/r_prime), analogous to an acceleration rate.
    """

    r_prime: float
    t_f: int
    density: str = "radius_scheduled"
    step_count_schedule: str = "constant"
    process_kind: str = "frequency_removal"
    seed: int = 0

    def __post_init__(self):
        if not self.r_prime > 1.0:
            raise ConfigError(f"R_prime must be > 1, got {self.r_prime}")
        if self.t_f < 1:
            raise ConfigError(f"T_f must be >= 1, got {self.t_f}")
        if self.density not in DENSITIES:
            raise ConfigError(f"density must be one of {DENSITIES}, got {self.density!r}")
        if self.step_count_schedule not in STEP_COUNT_SCHEDULES:
            raise ConfigError(
                f"step_count_schedule must be one of {STEP_COUNT_SCHEDULES}, "
                f"got {self.step_count_schedule!r}"
            )
        if self.process_kind not in PROCESS_KINDS:
            raise ConfigError(f"process_kind must be one of {PROCESS_KINDS}, got {self.process_kind!r}")


def radius_threshold(t: int, t_f: int, r_prime: float, r_max: float) -> float:
    """Scheduled radius threshold: r_max at t=0 down to r_max/sqrt(R') at t=T_f.

    The schedule extrapolates linearly past t_f (clamped at 0) so
    reconstruction-time trajectories can extend the same process.
    """
    if not r_prime > 1.0:
        raise ConfigError(f"R_prime must be > 1, got {r_prime}")
    if t_f < 1:
        raise ConfigError(f"T_f must be >= 1, got {t_f}")
    fade = 1.0 - (1.0 - r_prime ** -0.5) * (t / t_f)
    return max(0.0, r_max * fade)


def per_step_count(n_components: int, r_prime: float, t_f: int) -> int:
    """Components removed per step: floor(N*(R'-1)/(R'*T_f))."""
    if n_components < 1:
        raise ConfigError(f"n_components must be >= 1, got {n_components}")
    n = math.floor(n_components * (r_prime - 1.0) / (r_prime * t_f))
    if n < 1:
        raise ConfigError(
            f"per-step removal count is 0 for N={n_components}, R'={r_prime}, T_f={t_f}; "
            "use a smaller T_f"
        )
    return n


def removal_target(n_components: int, r_prime: float) -> int:
    """Total components removed by t_f so the kept fraction is 1/R'."""
    return int(round(n_components * (r_prime - 1.0) / r_prime))


def step_counts(n_components: int, cfg: ProcessConfig, t_total: int) -> np.ndarray:
    """Per-step removal counts for steps 1..t_total.

    Constant schedule: n per step, with the final training step absorbing
    the remainder so the cumulative removal at t_f hits the target
    exactly.  Log schedule (ablation): counts within 1..t_f proportional
    to log(1+t), largest-remainder rounded to the same target.  Steps past
    t_f always remove n.
    """
    n = per_step_count(n_components, cfg.r_prime, cfg.t_f)
    target = removal_target(n_components, cfg.r_prime)
    inner = min(t_total, cfg.t_f)
    if cfg.step_count_schedule == "constant":
        counts = np.full(inner, n, dtype=np.int64)
        if inner == cfg.t_f:
            counts[-1] += target - n * cfg.t_f
    else:
        weights = np.log1p(np.arange(1, cfg.t_f + 1, dtype=np.float64))
        quota = weights / weights.sum() * target
        counts_full = np.floor(quota).astype(np.int64)
        shortfall = target - int(counts_full.sum())
        order = np.argsort(-(quota - counts_full), kind="stable")
        counts_full[order[:shortfall]] += 1
        if np.any(counts_full < 1):
            raise ConfigError("log step-count schedule yields an empty step; use a smaller T_f")
        counts = counts_full[:inner]
    if t_total > cfg.t_f:
        counts = np.concatenate([counts, np.full(t_total - cfg.t_f, n, dtype=np.int64)])
    return counts


@dataclass
class DegradationTrajectory:
    """One realization of ``process`` over steps 1..t_total.

    ``process`` is the ProcessConfig this trajectory was drawn from, with
    the seed of this draw.  ``removed_at`` is an (H, W) map holding, per
    component, the step in 1..t_total at which it was removed, or 0 if it
    is never removed (DC always).  Keep-masks and removal sets are derived
    from it on demand, so a trajectory holds O(N + t_total) bytes whatever
    its length.  ``counts``, ``thresholds`` and ``relaxed`` hold one entry
    per step.
    """

    grid: KSpaceGrid
    process: ProcessConfig
    counts: np.ndarray
    removed_at: np.ndarray
    thresholds: np.ndarray
    relaxed: np.ndarray

    @property
    def t_total(self) -> int:
        return self.counts.size

    @property
    def n(self) -> int:
        """The process's per-step removal count on this grid."""
        return per_step_count(self.grid.n_components, self.process.r_prime, self.process.t_f)

    @property
    def relaxation_count(self) -> int:
        return int(self.relaxed.sum())

    def keep_mask(self, t: int) -> np.ndarray:
        """Boolean (H, W) mask of the components still present after step t."""
        return (self.removed_at == 0) | (self.removed_at > t)

    def removed_mask(self, t: int) -> np.ndarray:
        """Boolean (H, W) mask of the components removed at step t."""
        return self.removed_at == t

    def keep_count(self, t: int) -> int:
        return int(np.count_nonzero(self.keep_mask(t)))

    def removal_sets(self) -> list[np.ndarray]:
        """Flat indices removed at each step 1..t_total, ascending within a step."""
        order = np.argsort(self.removed_at, axis=None, kind="stable")
        removed = order[order.size - int(self.counts.sum()) :]
        return np.split(removed, np.cumsum(self.counts))[:-1]


def sample_trajectory(grid: KSpaceGrid, cfg: ProcessConfig, t_total: int | None = None) -> DegradationTrajectory:
    """Draw a removal trajectory; deterministic given ``cfg.seed``.

    Step t draws its count uniformly at random from the eligible set
    {not yet removed, radius > threshold(t)} (the radius clause is dropped
    for uniform density).  If the annulus is too small the threshold is
    lowered, for that step only, to the largest radius that keeps the step
    feasible; such steps are flagged in ``relaxed``.

    Cost: the radius-scheduled density walks ``grid.radius_order`` (sorted
    once per grid, O(N log N)) behind a head pointer that every removed
    candidate lies before or within, so step t reads only the m candidates
    from the head to the threshold (for a relaxed step, to the end of the
    cutoff radius's ties) and costs O(m log m).  The current threshold
    relaxes every step, so m is about the step's count.  Uniform density
    has the whole grid eligible and scans it, O(N) per step.  Each step
    hands its eligible set to ``substream(seed, "degradation", t)`` in
    ascending flat-index order, so the output does not depend on the
    order the candidates were found in.
    """
    if t_total is None:
        t_total = cfg.t_f
    counts = step_counts(grid.n_components, cfg, t_total)
    total_removed = int(counts.sum())
    if total_removed > grid.n_components - 1:
        raise TrajectoryError(
            f"trajectory would remove {total_removed} of {grid.n_components} components; "
            "the DC component must survive"
        )

    available = np.ones(grid.n_components, dtype=bool)
    available[grid.dc_index] = False  # DC is never eligible
    removed_at = np.zeros(grid.shape, dtype=np.int32)
    removed_flat = removed_at.reshape(-1)
    thresholds = np.zeros(t_total)
    relaxed = np.zeros(t_total, dtype=bool)

    radial = cfg.density == "radius_scheduled"
    if radial:
        order = grid.radius_order
        neg_radius = -grid.radius.ravel()[order]  # ascending, for searchsorted
    head = 0  # every candidate before head is removed
    reach = 0  # every candidate from reach on is available

    for t in range(1, t_total + 1):
        need = int(counts[t - 1])
        if radial:
            # Move head past the removed candidates; open_pos holds the
            # positions of the available ones before reach.
            open_pos = head + np.flatnonzero(available[order[head:reach]])
            head = int(open_pos[0]) if open_pos.size else reach
            rbar = radius_threshold(t, cfg.t_f, cfg.r_prime, grid.r_max)
            thresholds[t - 1] = rbar
            stop = max(head, int(np.searchsorted(neg_radius, -rbar, side="left")))
            window = order[head:stop]
            eligible = window[available[window]]
            if eligible.size < need:
                # Lower the threshold minimally: admit every candidate at or
                # above the radius of the need-th available one.
                nth = open_pos[need - 1] if open_pos.size >= need else reach + need - 1 - open_pos.size
                stop = int(np.searchsorted(neg_radius, neg_radius[nth], side="right"))
                window = order[head:stop]
                eligible = window[available[window]]
                relaxed[t - 1] = True
            eligible.sort()
            reach = max(reach, stop)
        else:
            eligible = np.flatnonzero(available)  # DC is never available
        rng = substream(cfg.seed, "degradation", t)
        picked = np.sort(rng.choice(eligible, size=need, replace=False))
        available[picked] = False
        removed_flat[picked] = t

    return DegradationTrajectory(
        grid=grid, process=cfg, counts=counts, removed_at=removed_at, thresholds=thresholds, relaxed=relaxed
    )


def corrupt(x0: np.ndarray, traj: DegradationTrajectory, t: int) -> np.ndarray:
    """Image-domain corruption at step t: inverse DFT of the masked spectrum."""
    if not 0 <= t <= traj.t_total:
        raise ValueError(f"t must be in [0, {traj.t_total}], got {t}")
    x0 = as_image(x0)
    if x0.shape != traj.grid.shape:
        raise ValueError(f"image shape {x0.shape} does not match grid {traj.grid.shape}")
    if t == 0:
        return x0.copy()
    return idft2(apply_mask(dft2(x0), traj.keep_mask(t)))


def averaging_corrupt(x0: np.ndarray, x_start: np.ndarray, t: int, t_f: int) -> np.ndarray:
    """Ablation process: linear blend (1 - t/t_f) * x0 + (t/t_f) * x_start."""
    x0 = as_image(x0)
    x_start = as_image(x_start)
    if x0.shape != x_start.shape:
        raise ValueError(f"shape mismatch: {x0.shape} vs {x_start.shape}")
    lam = t / t_f
    return (1.0 - lam) * x0 + lam * x_start


def export_trajectory(traj: DegradationTrajectory, out_dir, steps) -> dict:
    """Write KMSK1 keep-masks for the requested steps plus a JSON manifest of the trajectory and its process."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    for t in steps:
        if not 0 <= t <= traj.t_total:
            raise ValueError(f"snapshot step {t} out of range [0, {traj.t_total}]")
        name = f"mask_t{t:04d}.kmsk"
        write_kmsk(out_dir / name, traj.keep_mask(t))
        files[str(t)] = name
    process = traj.process
    manifest = {
        "seed": process.seed,
        "R_prime": process.r_prime,
        "T_f": process.t_f,
        "T_total": traj.t_total,
        "n": traj.n,
        "density": process.density,
        "step_counts": [int(c) for c in traj.counts],
        "relaxed_steps": int(traj.relaxation_count),
        "mask_files": files,
    }
    write_json(out_dir / "trajectory.json", manifest)
    return manifest
