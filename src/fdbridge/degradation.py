"""Stochastic frequency-removal forward process.

A trajectory removes a scheduled number of not-yet-removed k-space
components per step, sampled uniformly from the annulus above a shrinking
radius threshold (peripheral-to-central order).  Each component is
removed at most once, so one realization is stored as a removal-time map:
the step at which each component was removed, 0 for never.  The keep-mask
at step t (components never removed or removed after t) defines an
image-domain corruption operator: forward DFT, mask, inverse DFT.  The DC
component is never removed, so total image energy cannot vanish.  Only
this module reads the map, in one pass per question: other modules use
the trajectory's masks and ``native_trajectory``, the map in FFT-native
layout.

Sampling keeps the eligible components in a pool that the falling
threshold feeds in descending-radius order, and draws every step from
one generator per trajectory, so a step costs O(count) whatever the grid
size.  The pool's order is part of the rule: which components a seed
removes depends on it.  Which components enter the pool at each step,
and so its size, does not depend on the draws; ``_pool_plan`` holds that
admission rule once, for the sampler and for
``expected_removed_sums``, the exact mean of a step's removed values over
every trajectory of a process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, TrajectoryError
from .fileio import write_json, write_kmsk
from .grid import KSpaceGrid, as_image, dft2, idft2, to_centered, to_native
from .rng import child_seed, substream

DENSITIES = ("radius_scheduled", "uniform")
STEP_COUNT_SCHEDULES = ("constant", "log")


@dataclass(frozen=True)
class ProcessConfig:
    """Parameters of the frequency-removal process.

    ``r_prime`` is the degradation level reached at step ``t_f`` (the
    kept fraction there is 1/r_prime), analogous to an acceleration rate.
    As a training source it is the bridge.
    """

    r_prime: float
    t_f: int
    density: str = "radius_scheduled"
    step_count_schedule: str = "constant"
    seed: int = 0
    kind = "bridge"  # the source a checkpoint records, which the reverse loop must match
    loss_masks = True  # a draw returns the trajectory whose masks the weighted loss reads

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

    def draw(self, x0, grid: KSpaceGrid, t: int, seed: int, *tags):
        """(x_t, traj): x0 corrupted at step t by a t-step trajectory seeded from (seed, "train-traj", *tags)."""
        traj = sample_trajectory(grid, replace(self, seed=child_seed(seed, "train-traj", *tags)), t_total=t)
        return corrupt(x0, traj, t), traj


def radius_threshold(t: int, t_f: int, r_prime: float, r_anchor: float) -> float:
    """Scheduled radius threshold: r_anchor at t=0 down to r_anchor/sqrt(R') at t=T_f.

    ``sample_trajectory`` anchors it at the grid's inscribed radius
    min(H, W)/2, which leaves the steps of the default processes up to
    T_f unrelaxed (anchored at the corner radius, every step would relax).  The schedule
    extrapolates linearly past t_f (clamped at 0) so reconstruction-time
    trajectories can extend the same process.
    """
    if not r_prime > 1.0:
        raise ConfigError(f"R_prime must be > 1, got {r_prime}")
    if t_f < 1:
        raise ConfigError(f"T_f must be >= 1, got {t_f}")
    fade = 1.0 - (1.0 - r_prime ** -0.5) * (t / t_f)
    return max(0.0, r_anchor * fade)


def _step_thresholds(t_total: int, t_f: int, r_prime: float, r_anchor: float) -> np.ndarray:
    """``radius_threshold`` at steps 1..t_total, as one vector."""
    steps = np.arange(1, t_total + 1)
    return np.maximum(0.0, r_anchor * (1.0 - (1.0 - r_prime ** -0.5) * (steps / t_f)))


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

    The T_f-step plan is built once and cut to t_total steps; steps past
    T_f remove n each.  Constant schedule: n per step, with step T_f
    absorbing the remainder so the cumulative removal at T_f hits the
    target exactly.  Log schedule (ablation): counts proportional to
    log(1+t), largest-remainder rounded to the same target.
    """
    n = per_step_count(n_components, cfg.r_prime, cfg.t_f)
    target = removal_target(n_components, cfg.r_prime)
    if cfg.step_count_schedule == "constant":
        plan = np.full(cfg.t_f, n, dtype=np.int64)
        plan[-1] += target - n * cfg.t_f
    else:
        weights = np.log1p(np.arange(1, cfg.t_f + 1, dtype=np.float64))
        quota = weights / weights.sum() * target
        plan = np.floor(quota).astype(np.int64)
        shortfall = target - int(plan.sum())
        order = np.argsort(-(quota - plan), kind="stable")
        plan[order[:shortfall]] += 1
        if np.any(plan < 1):
            raise ConfigError("log step-count schedule yields an empty step; use a smaller T_f")
    return np.concatenate([plan[:t_total], np.full(max(0, t_total - cfg.t_f), n, dtype=np.int64)])


@dataclass
class DegradationTrajectory:
    """One realization of ``process`` over steps 1..t_total.

    Stored: ``process``, the ProcessConfig drawn from with this draw's
    seed; ``removed_at``, an (H, W) map of the step in 1..t_total at which
    each component was removed, 0 if never (DC always); and ``counts`` and
    ``relaxed``, per step.  Derived: the grid shape from ``removed_at``,
    ``t_total`` from ``counts``, and masks on demand, so a
    trajectory holds O(N + t_total) bytes.  A radius-scheduled step's
    threshold is not kept: it is ``radius_threshold(t, T_f, R', min(H, W) / 2)``.
    """

    process: ProcessConfig
    counts: np.ndarray
    removed_at: np.ndarray
    relaxed: np.ndarray

    @property
    def t_total(self) -> int:
        return self.counts.size

    @property
    def n(self) -> int:
        """The process's per-step removal count on this grid."""
        return per_step_count(self.removed_at.size, self.process.r_prime, self.process.t_f)

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


def native_trajectory(traj: DegradationTrajectory) -> DegradationTrajectory:
    """``traj`` with its removal-time map in FFT-native layout, the form ``sampler.reverse_step`` reads."""
    return replace(traj, removed_at=to_native(traj.removed_at))


def _pool_plan(grid: KSpaceGrid, cfg: ProcessConfig, t_total: int):
    """(counts, reach, relaxed) over steps 1..t_total: the pool's admission rule, which no draw changes.

    Components enter the eligible pool in ``grid.radius_order``
    (descending radius, ties in ascending flat index; DC is not in it), and
    by the draw of step t ``order[:reach[t - 1]]`` has entered.  Step t's
    window is the candidates above its radius threshold, or every
    candidate for uniform density.  If the pool would then hold fewer than
    the step's count, the step relaxes: it takes in every candidate at or
    above the radius of the count-th one, counting the pool first, and
    those stay eligible at later steps.  The pool holds what has entered
    less what earlier steps removed, so its size does not depend on the
    draws, and neither does anything here.  Both bounds fall between two
    radii, so reach[t - 1] is the running maximum over steps up to t of the
    window's end and of the end of the radius tie that holds the last
    component the step removes, ``order[removed_by_t - 1]``; step t relaxes
    exactly when that tie reaches past its window and the earlier reach.
    """
    counts = step_counts(grid.n_components, cfg, t_total)
    removed = np.cumsum(counts)  # removed by the end of each step
    if t_total and removed[-1] > grid.n_components - 1:
        raise TrajectoryError(
            f"trajectory would remove {int(removed[-1])} of {grid.n_components} components; "
            "the DC component must survive"
        )
    order = grid.radius_order
    neg_radius = -grid.radius.ravel()[order]  # ascending, for searchsorted
    if cfg.density == "radius_scheduled":
        anchor = min(grid.shape) / 2  # the inscribed radius
        thresholds = _step_thresholds(t_total, cfg.t_f, cfg.r_prime, anchor)
        stops = np.searchsorted(neg_radius, -thresholds, side="left")
    else:
        stops = np.full(t_total, order.size)
    ties = np.searchsorted(neg_radius, neg_radius[removed - 1], side="right")
    reach = np.maximum.accumulate(np.maximum(stops, ties))
    relaxed = np.maximum(stops, np.concatenate(([0], reach))[:-1]) < removed
    return counts, reach, relaxed


def sample_trajectory(grid: KSpaceGrid, cfg: ProcessConfig, t_total: int | None = None) -> DegradationTrajectory:
    """Draw a removal trajectory; deterministic given ``cfg.seed``.

    The pool takes in components as ``_pool_plan``'s admission rule says,
    in ``grid.radius_order``, and a component leaves it only when drawn.
    Step t draws its count uniformly from the pool: positions
    ``choice(pool_size, count, replace=False)`` from the trajectory's one
    ``substream(seed, "degradation")`` generator, then a swap-remove that
    fills the drawn positions below the new pool size, lowest first, with
    the undrawn entries beyond it, in pool order.  The pool order is part
    of the rule: it decides which components a seed removes.

    Cost: ``grid.radius_order`` is sorted once per grid, O(N log N); each
    component is copied into the pool at most once, and a step costs
    O(count) for its draw and swap-remove.
    """
    if t_total is None:
        t_total = cfg.t_f
    if t_total < 0:
        raise ConfigError(f"trajectory length must be >= 0, got {t_total}")
    counts, reach, relaxed = _pool_plan(grid, cfg, t_total)

    removed_at = np.zeros(grid.shape, dtype=np.int32)
    removed_flat = removed_at.reshape(-1)
    order = grid.radius_order
    pool = np.empty(order.size, dtype=order.dtype)
    size = 0  # pool[:size] holds the eligible components
    entered = 0  # order[:entered] has entered the pool
    choice = substream(cfg.seed, "degradation").choice

    for t, (need, stop) in enumerate(zip(counts.tolist(), reach.tolist()), start=1):
        pool[size : size + stop - entered] = order[entered:stop]
        size += stop - entered
        entered = stop

        pos = choice(size, need, replace=False)
        removed_flat[pool[pos]] = t
        size -= need
        pos.sort()
        low = int(pos.searchsorted(size))  # pos[:low] are the holes left below the new size
        if low:
            survives = np.ones(need, dtype=bool)  # the undrawn entries of pool[size : size + need] fill them
            survives[pos[low:] - size] = False
            pool[pos[:low]] = pool[size : size + need][survives]

    return DegradationTrajectory(process=cfg, counts=counts, removed_at=removed_at, relaxed=relaxed)


def expected_removed_sums(grid: KSpaceGrid, process: ProcessConfig, values, t_total: int | None = None) -> np.ndarray:
    """The mean over ``process``'s trajectories of each step's sum of ``values`` over its removals, steps 1..t_total.

    ``values`` holds one number per component, in the grid's (H, W)
    layout.  Step t draws count_t of the pool_t components in its pool
    uniformly, so each leaves with probability count_t / pool_t, and by
    ``_pool_plan`` neither depends on the draws.  So with A_t the values
    that enter the pool at step t, the pool's expected sum before the draw
    is P_t = P_{t-1} - R_{t-1} + A_t, and the expected sum removed is
    R_t = (count_t / pool_t) P_t, relaxed steps included.  Cost
    O(N + t_total).
    """
    if t_total is None:
        t_total = process.t_f
    if t_total < 0:
        raise ConfigError(f"trajectory length must be >= 0, got {t_total}")
    counts, reach, _ = _pool_plan(grid, process, t_total)
    entered = np.concatenate(([0.0], np.cumsum(np.ravel(values)[grid.radius_order])))[reach]
    entering = np.diff(entered, prepend=0.0)
    pool_sizes = reach - (np.cumsum(counts) - counts)
    sums = np.empty(t_total)
    pool = 0.0
    for t, (enter, share) in enumerate(zip(entering.tolist(), (counts / pool_sizes).tolist())):
        pool += enter
        sums[t] = share * pool
        pool -= sums[t]
    return sums


def corrupt(x0: np.ndarray, traj: DegradationTrajectory, t: int) -> np.ndarray:
    """Image-domain corruption at step t: inverse DFT of the masked spectrum.

    Runs in FFT-native layout: x0 and the keep-mask are shifted there once
    and the result shifted back once, which gives the same bits as the
    centered composition ``idft2(np.where(keep_mask(t), dft2(x0), 0))``.
    """
    if not 0 <= t <= traj.t_total:
        raise ValueError(f"t must be in [0, {traj.t_total}], got {t}")
    x0 = as_image(x0)
    if x0.shape != traj.removed_at.shape:
        raise ValueError(f"image shape {x0.shape} does not match grid {traj.removed_at.shape}")
    if t == 0:
        return x0.copy()
    spectrum = dft2(to_native(x0), native=True)
    np.copyto(spectrum, 0.0, where=~to_native(traj.keep_mask(t)))
    return to_centered(idft2(spectrum, native=True))


@dataclass(frozen=True)
class AveragingProcess:
    """Training source of the averaging ablation: x_t = (1 - t/T_f) x0 + (t/T_f) x_start, with no masks.

    x_start is ``process``'s draw at T_f under the same seed and tags.
    """

    process: ProcessConfig
    kind = "averaging"
    loss_masks = False

    @property
    def t_f(self) -> int:
        return self.process.t_f

    def draw(self, x0, grid: KSpaceGrid, t: int, seed: int, *tags):
        """(x_t, None): the blend at step t."""
        x0 = as_image(x0)
        x_start = self.process.draw(x0, grid, self.t_f, seed, *tags)[0]
        lam = t / self.t_f
        return (1.0 - lam) * x0 + lam * x_start, None


def export_trajectory(traj: DegradationTrajectory, out_dir, steps) -> None:
    """Write KMSK1 keep-masks for the requested steps plus a JSON manifest of the trajectory and its process."""
    out_dir = Path(out_dir)
    files = {}
    for t in steps:
        if not 0 <= t <= traj.t_total:
            raise ValueError(f"snapshot step {t} out of range [0, {traj.t_total}]")
        name = f"mask_t{t:04d}.kmsk"
        write_kmsk(out_dir / name, traj.keep_mask(t))
        files[str(t)] = name
    process = traj.process
    write_json(out_dir / "trajectory.json", {
        "seed": process.seed,
        "R_prime": process.r_prime,
        "T_f": process.t_f,
        "T_total": traj.t_total,
        "n": traj.n,
        "density": process.density,
        "step_counts": [int(c) for c in traj.counts],
        "relaxed_steps": int(traj.relaxation_count),
        "mask_files": files,
    })
