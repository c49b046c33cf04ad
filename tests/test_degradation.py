import math
from dataclasses import replace

import numpy as np
import pytest

from fdbridge import degradation
from fdbridge.degradation import (
    AveragingProcess,
    ProcessConfig,
    corrupt,
    export_trajectory,
    per_step_count,
    radius_threshold,
    sample_trajectory,
    step_counts,
)
from fdbridge.errors import ConfigError, TrajectoryError
from fdbridge.fileio import read_json, read_kmsk
from fdbridge.grid import dft2, idft2, radius_map
from fdbridge.phantoms import PhantomSpec, make_phantom
from fdbridge.rng import substream

from conftest import rand_image
from trajectory_oracle import every_trajectory


def _patch_threshold(monkeypatch, threshold):
    """Make ``threshold(t, t_f, r_prime, r_anchor)``, for one step or an array of steps, the radius threshold.

    The pool plan calls it once with every step; the oracles call it per step.
    """
    monkeypatch.setattr(degradation, "radius_threshold", threshold)


def _full_grid_oracle(grid, cfg, t_total):
    """Re-enact the pool rule with a Python list, scanning the whole grid at every step.

    Components join the pool in descending radius, ties in ascending index,
    once their radius exceeds the threshold anchored at min(H, W)/2.  A step
    draws pool positions from the trajectory's one generator, then fills the
    drawn positions that lie below the new pool size, lowest first, with the
    undrawn entries beyond it, in pool order.  Returns (removed_at,
    relaxed, counts) as a trajectory holds them.
    """
    radius = grid.radius.ravel()
    anchor = min(grid.shape) / 2
    counts = step_counts(grid.n_components, cfg, t_total)
    entered = np.zeros(grid.n_components, dtype=bool)
    entered[radius == 0] = True  # DC never enters the pool
    pool = []
    removed_at = np.zeros(grid.n_components, dtype=np.int32)
    thresholds = np.zeros(t_total)
    relaxed = np.zeros(t_total, dtype=bool)
    rng = substream(cfg.seed, "degradation")
    for t in range(1, t_total + 1):
        need = int(counts[t - 1])
        if cfg.density == "radius_scheduled":
            thresholds[t - 1] = degradation.radius_threshold(t, cfg.t_f, cfg.r_prime, anchor)
        outside = np.flatnonzero(~entered)
        joining = outside[radius[outside] > thresholds[t - 1]]
        if len(pool) + joining.size < need:
            cutoff = np.sort(radius[outside])[::-1][need - len(pool) - 1]
            joining = outside[radius[outside] >= cutoff]
            relaxed[t - 1] = True
        pool += sorted(joining.tolist(), key=lambda i: (-radius[i], i))
        entered[joining] = True
        picked = set(rng.choice(len(pool), size=need, replace=False).tolist())
        for p in picked:
            removed_at[pool[p]] = t
        left = len(pool) - need
        holes = sorted(p for p in picked if p < left)
        movers = [pool[i] for i in range(left, len(pool)) if i not in picked]
        for hole, mover in zip(holes, movers):
            pool[hole] = mover
        del pool[left:]
    return removed_at.reshape(grid.shape), relaxed, counts


class TestRadiusThreshold:
    def test_start_is_r_max(self):
        assert radius_threshold(0, 64, 4.0, 10.0) == pytest.approx(10.0)

    def test_endpoint_r_prime_4(self):
        # R'^(-1/2) = 1/2 at the training horizon
        assert radius_threshold(64, 64, 4.0, 10.0) == pytest.approx(5.0)

    def test_linear_midpoint(self):
        assert radius_threshold(32, 64, 4.0, 10.0) == pytest.approx(7.5)

    def test_extrapolates_and_clamps(self):
        assert radius_threshold(96, 64, 4.0, 10.0) == pytest.approx(2.5)
        assert radius_threshold(10_000, 64, 4.0, 10.0) == 0.0

    def test_rejects_bad_r_prime(self):
        with pytest.raises(ConfigError):
            radius_threshold(1, 64, 1.0, 10.0)

    @pytest.mark.parametrize("r_prime", [2.0, 4.0, 8.0])
    @pytest.mark.parametrize(
        "shape,t_f,t_total",
        # horizons past T_f; the last runs into the clamp at 0 for every R'
        [((64, 64), 64, 64), ((64, 64), 64, 112), ((33, 33), 16, 24), ((256, 256), 1000, 1000),
         ((256, 256), 1000, 1750), ((32, 32), 8, 40)],
    )
    def test_step_vector_matches_per_step(self, shape, t_f, t_total, r_prime):
        # the pool plan's thresholds, one call with every step, have the bytes of one call per step
        anchor = min(shape) / 2
        vector = radius_threshold(np.arange(1, t_total + 1), t_f, r_prime, anchor)
        per_step = np.array([radius_threshold(t, t_f, r_prime, anchor) for t in range(1, t_total + 1)])
        assert vector.dtype == np.float64 and vector.tobytes() == per_step.tobytes()


class TestPerStepCount:
    @pytest.mark.parametrize(
        "n_k,r_prime,t_f,expected",
        [(65536, 2.0, 1000, 32), (4096, 2.0, 64, 32), (4096, 4.0, 48, 64)],
    )
    def test_floor_expression(self, n_k, r_prime, t_f, expected):
        assert per_step_count(n_k, r_prime, t_f) == expected

    def test_zero_count_is_config_error(self):
        with pytest.raises(ConfigError, match="smaller T_f"):
            per_step_count(64, 2.0, 1000)


class TestStepCounts:
    def test_constant_with_final_adjustment(self):
        # N=100, R'=2 -> target 50, n = floor(50/7) = 7; last step absorbs the rest
        cfg = ProcessConfig(r_prime=2.0, t_f=7, seed=0)
        counts = step_counts(100, cfg, 7)
        assert counts[:-1].tolist() == [7] * 6
        assert counts.sum() == 50

    def test_log_schedule_hits_target(self):
        cfg = ProcessConfig(r_prime=2.0, t_f=16, step_count_schedule="log", seed=0)
        counts = step_counts(4096, cfg, 16)
        assert counts.sum() == 2048
        assert np.all(counts >= 1)
        assert counts[0] < counts[-1]  # log weights grow with t

    def test_extension_uses_constant_n(self):
        cfg = ProcessConfig(r_prime=2.0, t_f=8, seed=0)
        counts = step_counts(1024, cfg, 12)
        assert counts[8:].tolist() == [64] * 4

    @pytest.mark.parametrize("schedule", ["constant", "log"])
    def test_cut_and_extended_plans(self, schedule):
        # 0, T_f - 1 and T_f + 1 steps: a prefix of the T_f-step plan, then n = 7 per step past T_f
        cfg = ProcessConfig(r_prime=2.0, t_f=7, step_count_schedule=schedule, seed=0)
        plan = step_counts(100, cfg, 7).tolist()
        assert sum(plan) == 50
        for t_total in (0, 6, 8):
            counts = step_counts(100, cfg, t_total)
            assert counts.dtype == np.int64
            assert counts.tolist() == (plan + [7])[:t_total], t_total


class TestSampleTrajectory:
    def test_keep_fraction_at_t_f(self):
        # R'=2 with n * T_f = N/2 exactly
        grid = radius_map(64, 64)
        cfg = ProcessConfig(r_prime=2.0, t_f=64, seed=9)
        traj = sample_trajectory(grid, cfg)
        assert traj.keep_count(64) == 2048
        assert traj.keep_count(64) / grid.n_components == pytest.approx(0.5)

    def test_determinism(self):
        grid = radius_map(32, 32)
        cfg = ProcessConfig(r_prime=2.0, t_f=16, seed=77)
        a = sample_trajectory(grid, cfg)
        b = sample_trajectory(grid, cfg)
        assert all(
            np.array_equal(np.flatnonzero(a.removed_mask(t)), np.flatnonzero(b.removed_mask(t)))
            for t in range(1, a.t_total + 1)
        )
        assert all(np.array_equal(a.keep_mask(t), b.keep_mask(t)) for t in range(a.t_total + 1))

    def test_scripted_draw_oracle_8x8(self):
        # independent re-enactment of the pool rule in plain Python: n=1, four steps
        grid = radius_map(8, 8)
        cfg = ProcessConfig(r_prime=2.0, t_f=32, seed=5)
        traj = sample_trajectory(grid, cfg, t_total=4)
        assert traj.n == 1

        radius = {8 * y + x: math.hypot(y - 4, x - 4) for y in range(8) for x in range(8)}
        by_radius = sorted((i for i in radius if i != 8 * 4 + 4), key=lambda i: (-radius[i], i))
        rng = substream(5, "degradation")
        pool, expected_sets = [], []
        for t in range(1, 5):
            threshold = 4.0 * (1.0 - (1.0 - 2.0**-0.5) * t / 32)  # anchored at min(8, 8) / 2
            while by_radius and radius[by_radius[0]] > threshold:
                pool.append(by_radius.pop(0))
            (p,) = rng.choice(len(pool), size=1, replace=False).tolist()
            expected_sets.append(np.array([pool[p]]))
            pool[p] = pool[-1]
            pool.pop()

        sets = [np.flatnonzero(traj.removed_mask(t)) for t in range(1, traj.t_total + 1)]
        assert all(np.array_equal(a, b) for a, b in zip(sets, expected_sets))
        flat = np.concatenate(sets)
        assert len(flat) == len(set(flat.tolist()))  # disjoint singletons
        assert traj.keep_count(4) == 60

    @pytest.mark.parametrize(
        "shape,t_f,t_total,density,schedule,seed",
        [
            (shape, t_f, t_total, density, schedule, seed)
            for shape, t_f, t_total in [((64, 64), 64, 64), ((64, 64), 64, 96), ((33, 31), 16, 24)]
            for density in ("radius_scheduled", "uniform")
            for schedule in ("constant", "log")
            for seed in (1, 2)
        ]
        + [((256, 256), 1000, 1000, "radius_scheduled", "constant", 3)]
        # the R = 8 horizon past T_f, where 15 of the 112 steps relax
        + [((64, 64), 64, 112, "radius_scheduled", "constant", 3)],
    )
    def test_matches_full_grid_oracle(self, shape, t_f, t_total, density, schedule, seed):
        grid = radius_map(*shape)
        cfg = ProcessConfig(r_prime=2.0, t_f=t_f, density=density, step_count_schedule=schedule, seed=seed)
        traj = sample_trajectory(grid, cfg, t_total=t_total)
        removed_at, relaxed, counts = _full_grid_oracle(grid, cfg, t_total)
        assert np.array_equal(traj.removed_at, removed_at)
        assert np.array_equal(traj.relaxed, relaxed)
        assert np.array_equal(traj.counts, counts)

    @pytest.mark.parametrize("slack", [1.0, 1.02, 1.5, 4.0])
    def test_matches_full_grid_oracle_on_unrelaxed_steps(self, monkeypatch, slack):
        # A radial-quantile threshold holding `slack` times the cumulative
        # budget outside it: slack 1 relaxes most steps on ties, 1.02 only
        # the first and larger slack none, so the pool is checked on both.
        grid = radius_map(64, 48)
        descending = np.sort(grid.radius.ravel())[::-1]
        cfg = ProcessConfig(r_prime=2.0, t_f=32, seed=7)
        n = per_step_count(grid.n_components, cfg.r_prime, cfg.t_f)

        def quantile_threshold(t, t_f, r_prime, r_anchor):
            return descending[np.minimum(descending.size - 1, (slack * n * np.asarray(t)).astype(int))]

        _patch_threshold(monkeypatch, quantile_threshold)
        traj = sample_trajectory(grid, cfg, t_total=40)
        removed_at, relaxed, counts = _full_grid_oracle(grid, cfg, 40)
        assert not relaxed.all()
        assert np.array_equal(traj.removed_at, removed_at)
        assert np.array_equal(traj.relaxed, relaxed)

    def test_matches_full_grid_oracle_on_relaxed_steps_after_a_wide_window(self, monkeypatch):
        # Step 1 fills the pool from the wide window above radius 7; steps 2-4
        # drain it, and steps 5-8 find nothing above radius 100 and relax.  On
        # this grid a cutoff taken one candidate early leaves the pool short of
        # the count, and one taken one candidate late admits another radius.
        grid = radius_map(16, 12)
        cfg = ProcessConfig(r_prime=2.0, t_f=8, seed=5)
        _patch_threshold(monkeypatch, lambda t, t_f, r_prime, r_anchor: np.where(np.asarray(t) == 1, 7.0, 100.0))
        traj = sample_trajectory(grid, cfg)
        removed_at, relaxed, counts = _full_grid_oracle(grid, cfg, 8)
        assert relaxed.tolist() == [False] * 4 + [True] * 4
        assert np.array_equal(traj.removed_at, removed_at)
        assert np.array_equal(traj.relaxed, relaxed)

    @pytest.mark.parametrize(
        "shape,t_f,t_total", [((64, 64), 64, 64), ((64, 64), 64, 96), ((33, 31), 16, 24), ((256, 256), 1000, 1000)]
    )
    def test_default_process_never_relaxes(self, shape, t_f, t_total):
        # the inscribed-radius anchor keeps every scheduled step feasible
        traj = sample_trajectory(radius_map(*shape), ProcessConfig(r_prime=2.0, t_f=t_f, seed=1), t_total=t_total)
        assert traj.relaxation_count == 0

    def test_seeds_draw_different_trajectories(self):
        # 11,620 components differ at 256^2 (the corner-anchored process, random
        # only in ties, differed in 18)
        grid = radius_map(256, 256)
        a, b = (sample_trajectory(grid, ProcessConfig(r_prime=2.0, t_f=1000, seed=s)) for s in (0, 1))
        assert np.count_nonzero(a.keep_mask(500) != b.keep_mask(500)) > 10_000

    @pytest.mark.parametrize("t_total", [1, 17, 63, 96])
    def test_shorter_trajectory_is_a_prefix(self, t_total):
        # a t-step draw is the first t steps of the T_f-step one (96 > T_f: the first T_f steps)
        grid = radius_map(64, 64)
        cfg = ProcessConfig(r_prime=2.0, t_f=64, seed=12)
        full = sample_trajectory(grid, cfg)
        part = sample_trajectory(grid, cfg, t_total=t_total)
        t = min(t_total, cfg.t_f)
        if t_total < cfg.t_f:
            expected = np.where(full.removed_at <= t, full.removed_at, 0)
            assert np.array_equal(part.removed_at, expected)
        else:
            assert np.array_equal(np.where(part.removed_at <= t, part.removed_at, 0), full.removed_at)
        assert np.array_equal(part.relaxed[:t], full.relaxed[:t])

    def test_disjoint_and_monotone(self):
        grid = radius_map(32, 32)
        cfg = ProcessConfig(r_prime=4.0, t_f=12, seed=3)
        traj = sample_trajectory(grid, cfg)
        seen = set()
        for t in range(1, traj.t_total + 1):
            s = np.flatnonzero(traj.removed_mask(t))
            assert not (seen & set(s.tolist()))
            seen.update(s.tolist())
            prev = traj.keep_mask(t - 1)
            cur = traj.keep_mask(t)
            assert np.all(cur <= prev)
            assert prev.sum() - cur.sum() == len(s)
            assert np.array_equal(traj.removed_mask(t), prev & ~cur)

    def test_radius_discipline_on_unrelaxed_steps(self):
        grid = radius_map(48, 48)
        cfg = ProcessConfig(r_prime=8.0, t_f=12, seed=21)
        traj = sample_trajectory(grid, cfg)
        radius = grid.radius.ravel()
        assert not traj.relaxed.all()
        for t, relaxed in enumerate(traj.relaxed, start=1):
            s = np.flatnonzero(traj.removed_mask(t))
            if not relaxed:
                assert np.all(radius[s] > radius_threshold(t, cfg.t_f, cfg.r_prime, 48 / 2))

    def test_dc_never_removed(self):
        grid = radius_map(16, 16)
        cfg = ProcessConfig(r_prime=2.0, t_f=4, density="uniform", seed=1)
        traj = sample_trajectory(grid, cfg)
        dc = 8 * 16 + 8  # (H // 2, W // 2), row-major
        assert dc not in np.concatenate([np.flatnonzero(traj.removed_mask(t)) for t in range(1, traj.t_total + 1)])
        assert traj.keep_mask(traj.t_total).ravel()[dc]

    def test_storage_is_linear_in_grid_and_steps(self):
        # one removal-time map plus per-step vectors, not a mask per step
        grid = radius_map(64, 64)
        traj = sample_trajectory(grid, ProcessConfig(r_prime=2.0, t_f=64, seed=4), t_total=96)
        held = 0
        for value in vars(traj).values():
            arrays = value if isinstance(value, (list, tuple)) else [value]
            held += sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
        assert held <= 8 * grid.n_components + 64 * traj.t_total

    def test_infeasible_budget_rejected(self):
        grid = radius_map(8, 8)
        with pytest.raises(TrajectoryError):
            # would need to remove 32 * 4 = 128 > 63 components
            sample_trajectory(grid, ProcessConfig(r_prime=2.0, t_f=1, seed=0), t_total=4)

    def test_energy_decomposition(self):
        grid = radius_map(32, 32)
        cfg = ProcessConfig(r_prime=2.0, t_f=8, seed=13)
        traj = sample_trajectory(grid, cfg)
        x0 = rand_image(32, 32, seed=8)
        spec = dft2(x0)
        total = np.sum(np.abs(spec) ** 2)
        for t in (1, 4, 8):
            keep = traj.keep_mask(t)
            kept = np.sum(np.abs(spec[keep]) ** 2)
            dropped = np.sum(np.abs(spec[~keep]) ** 2)
            assert abs(total - (kept + dropped)) <= 1e-10 * total

    def test_operator_norm_bound(self):
        grid = radius_map(16, 16)
        traj = sample_trajectory(grid, ProcessConfig(r_prime=2.0, t_f=4, seed=2))
        for i in range(100):
            x = rand_image(16, 16, seed=i)
            t = 1 + i % 4
            assert np.linalg.norm(corrupt(x, traj, t)) <= np.linalg.norm(x) * (1 + 1e-12)


# small enough to list every trajectory, with a spectrum that is not flat
ORACLE_PROCESSES = {
    # counts 4, 4, 4 on pools of 7: step 2's window takes in 4 components and step 3 relaxes
    "window-and-relaxed": ((4, 4), ProcessConfig(r_prime=4.0, t_f=3), 3),
    # counts 2, 3, 3: step 3 relaxes
    "log": ((4, 4), ProcessConfig(r_prime=2.0, t_f=3, step_count_schedule="log"), 3),
    # counts 2, 3 on the whole grid
    "uniform": ((4, 4), ProcessConfig(r_prime=1.5, t_f=2, density="uniform"), 2),
}


class TestRemovedSums:
    """``expected_removed_sums``: the mean over a process's trajectories of each step's removed sum."""

    @pytest.mark.parametrize("name", ORACLE_PROCESSES)
    def test_equals_the_mean_over_every_trajectory(self, name):
        shape, cfg, t_total = ORACLE_PROCESSES[name]
        grid = radius_map(*shape)
        values = np.abs(dft2(rand_image(*shape, seed=6))) ** 2
        trajectories = every_trajectory(grid, cfg, t_total)
        assert abs(sum(p for p, _ in trajectories) - 1.0) <= 1e-12
        relaxed = sample_trajectory(grid, cfg, t_total=t_total).relaxed
        assert relaxed.tolist() == ([False] * (t_total - 1) + [True] if name != "uniform" else [False] * t_total)
        mean = sum(p * np.bincount(r, weights=values.ravel(), minlength=t_total + 1)[1:] for p, r in trajectories)
        expected = degradation.expected_removed_sums(grid, cfg, values, t_total)
        assert expected.shape == (t_total,)
        assert np.all(np.abs(expected - mean) <= 1e-12 * mean)

    @pytest.mark.parametrize(
        "shape,t_f,t_total,density,schedule",
        [
            ((64, 64), 64, 64, "radius_scheduled", "constant"),
            ((64, 64), 64, 63, "radius_scheduled", "constant"),
            ((64, 64), 64, 0, "radius_scheduled", "constant"),
            # the R = 8 horizon past T_f, where steps relax
            ((64, 64), 64, 112, "radius_scheduled", "constant"),
            ((33, 31), 16, 16, "uniform", "constant"),
            ((33, 31), 16, 15, "radius_scheduled", "log"),
            ((64, 64), 64, 64, "uniform", "log"),
        ],
    )
    def test_matches_per_step_masked_sums(self, shape, t_f, t_total, density, schedule):
        # the mean of sampled draws' per-step sums lies within 4 standard errors of the closed form at every step
        grid = radius_map(*shape)
        cfg = ProcessConfig(r_prime=2.0, t_f=t_f, density=density, step_count_schedule=schedule)
        values = np.abs(dft2(rand_image(*shape, seed=4))) ** 2
        draws = np.array([
            np.bincount(
                sample_trajectory(grid, replace(cfg, seed=seed), t_total=t_total).removed_at.ravel(),
                weights=values.ravel(), minlength=t_total + 1,
            )[1:]
            for seed in range(200)
        ])
        if t_total == 112:
            assert sample_trajectory(grid, cfg, t_total=t_total).relaxation_count > 0
        expected = degradation.expected_removed_sums(grid, cfg, values, t_total)
        assert expected.shape == (t_total,)
        error = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - expected) <= 4 * error)
        # unit values count each step's removals, which no draw changes
        counts = step_counts(grid.n_components, cfg, t_total)
        ones = degradation.expected_removed_sums(grid, cfg, np.ones(shape), t_total)
        assert np.all(np.abs(ones - counts) <= 1e-12 * counts)


class TestCorrupt:
    def test_t_zero_is_identity(self):
        grid = radius_map(32, 32)
        traj = sample_trajectory(grid, ProcessConfig(r_prime=2.0, t_f=8, seed=0))
        x0 = make_phantom(PhantomSpec(32, 32, seed=4))
        out = corrupt(x0, traj, 0)
        assert np.linalg.norm(out - x0) <= 1e-12 * np.linalg.norm(x0)

    def test_idempotence(self):
        grid = radius_map(32, 32)
        traj = sample_trajectory(grid, ProcessConfig(r_prime=2.0, t_f=8, seed=0))
        x0 = rand_image(32, 32, seed=5)
        once = corrupt(x0, traj, 5)
        twice = corrupt(once, traj, 5)
        assert np.linalg.norm(twice - once) <= 1e-12 * np.linalg.norm(once)

    def test_t_out_of_range(self):
        grid = radius_map(32, 32)
        traj = sample_trajectory(grid, ProcessConfig(r_prime=2.0, t_f=8, seed=0))
        with pytest.raises(ValueError):
            corrupt(rand_image(32, 32, 0), traj, 9)

    def test_shape_mismatch(self):
        traj = sample_trajectory(radius_map(32, 32), ProcessConfig(r_prime=2.0, t_f=8, seed=0))
        with pytest.raises(ValueError):
            corrupt(rand_image(32, 33, 0), traj, 1)

    @pytest.mark.parametrize("shape,t_f,t_total", [((64, 64), 64, 96), ((33, 31), 16, 24), ((32, 33), 16, 16)])
    def test_matches_centered_composition_bitwise(self, shape, t_f, t_total):
        # the native-layout masking gives the bytes of the centered masked round trip;
        # step 0 is the input itself, which a round trip would not give bit for bit
        traj = sample_trajectory(radius_map(*shape), ProcessConfig(r_prime=2.0, t_f=t_f, seed=6), t_total=t_total)
        x0 = rand_image(*shape, seed=9)
        before = x0.copy()
        for t in (0, 1, t_total // 2, t_total):
            expected = x0 if t == 0 else idft2(np.where(traj.keep_mask(t), dft2(x0), 0.0))
            assert corrupt(x0, traj, t).tobytes() == expected.tobytes()
        assert x0.tobytes() == before.tobytes()


class TestAveragingCorrupt:
    """``AveragingProcess.draw``: x0 blended with the bridge's draw at T_f under the same seed and tags."""

    def test_endpoints_and_midpoint(self):
        x0 = rand_image(8, 8, seed=1)
        grid = radius_map(8, 8)
        bridge = ProcessConfig(r_prime=2.0, t_f=10, seed=0)
        xs, _ = bridge.draw(x0, grid, 10, 2, 7)
        averaging = AveragingProcess(bridge)
        assert averaging.t_f == 10
        assert np.array_equal(averaging.draw(x0, grid, 0, 2, 7)[0], x0)
        end, traj = averaging.draw(x0, grid, 10, 2, 7)
        assert np.array_equal(end, xs) and traj is None
        mid = averaging.draw(x0, grid, 5, 2, 7)[0]
        assert np.allclose(mid, 0.5 * x0 + 0.5 * xs)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            AveragingProcess(ProcessConfig(r_prime=2.0, t_f=4)).draw(rand_image(8, 9, 1), radius_map(8, 8), 1, 0)


def test_export_trajectory(tmp_path):
    grid = radius_map(16, 16)
    cfg = ProcessConfig(r_prime=2.0, t_f=4, seed=10)
    traj = sample_trajectory(grid, cfg)
    export_trajectory(traj, tmp_path, steps=[0, 2, 4])
    stored = read_json(tmp_path / "trajectory.json")
    assert traj.process == cfg
    assert stored["seed"] == 10 and stored["R_prime"] == 2.0 and stored["density"] == "radius_scheduled"
    assert stored["T_f"] == 4 and stored["T_total"] == 4
    assert stored["n"] == traj.n
    assert stored["step_counts"] == [int(c) for c in traj.counts]
    for t in (0, 2, 4):
        mask = read_kmsk(tmp_path / stored["mask_files"][str(t)])
        assert np.array_equal(mask, traj.keep_mask(t))
