"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is
stated inline; expected values marked as frozen were computed once with
the independent oracles described next to them.
"""

import json
import time

import numpy as np
import pytest

import fdbridge as fb
from fdbridge.cli import main as cli_main
from fdbridge.fileio import read_csv, read_json
from fdbridge.grid import dft2, radius_map
from fdbridge.imaging import apply_forward, dc_projection, make_sampling_mask
from fdbridge.rng import child_seed

from conftest import constant_schedule, rand_image, unit_system
from gradcheck import grad_check


def _report(number: int, name: str, elapsed: float) -> None:
    print(f"\n[acceptance] criterion {number} ({name}): PASS ({elapsed:.1f}s)")


def test_criterion_1_oracle_round_trip():
    started = time.monotonic()
    grid = radius_map(64, 64)
    sched = constant_schedule(64, 0.5)
    for i in range(20):
        x0 = fb.make_phantom(fb.PhantomSpec(64, 64, seed=1000 + i))
        proc = fb.ProcessConfig(r_prime=2.0, t_f=64, seed=i)
        traj = fb.sample_trajectory(grid, proc)
        # measured on the components the process keeps, so the driver starts at C_64 x0
        system = unit_system(traj.keep_mask(64))
        y = fb.forward(system, x0)
        assert np.array_equal(fb.adjoint(system, y), fb.corrupt(x0, traj, 64))
        oracle = fb.OracleRecovery(x0)
        for correction in ("none", "learned"):
            cfg = fb.SamplerConfig(
                t_f=64, r_prime=2.0, r=2.0, correction=correction,
                ct_mode="fixed", dc_every_step=False, seed=i,
            )
            res = fb.reconstruct(y, system, oracle, proc, sched, cfg)
            rel = np.linalg.norm(res.image - x0) / np.linalg.norm(x0)
            assert rel <= 1e-10, f"phantom {i}, correction={correction}: rel err {rel:.3e}"
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s (budget 10s)"
    _report(1, "oracle round trip", elapsed)


def test_criterion_2_trajectory_laws():
    started = time.monotonic()
    grid = radius_map(64, 64)
    radius = grid.radius.ravel()
    r_prime, t_f = 2.0, 64
    # the schedule anchored at the inscribed radius, 64 / 2
    thresholds = [fb.radius_threshold(t, t_f, r_prime, 32.0) for t in range(1, t_f + 1)]
    for seed in range(50):
        traj = fb.sample_trajectory(grid, fb.ProcessConfig(r_prime=r_prime, t_f=t_f, seed=seed))
        sets = [np.flatnonzero(traj.removed_mask(t)) for t in range(1, t_f + 1)]
        flat = np.concatenate(sets)
        assert len(flat) == len(set(flat.tolist())), "removal sets overlap"
        assert all(len(s) == traj.n for s in sets), "per-step count differs from n"
        keep_fraction = traj.keep_count(t_f) / grid.n_components
        assert abs(keep_fraction - 1.0 / r_prime) <= traj.n / grid.n_components
        assert traj.relaxation_count == 0, "a scheduled step was relaxed"
        for t, (s, relaxed) in enumerate(zip(sets, traj.relaxed), start=1):
            if not relaxed:
                assert np.all(radius[s] > thresholds[t - 1])
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.1f}s (budget 5s)"
    _report(2, "trajectory laws", elapsed)


def test_criterion_3_correction_schedule():
    started = time.monotonic()
    # the learned schedule, exact over trajectories, on toy phantoms; that the energy-balance and
    # energy-difference forms of w_t agree is checked from keep masks by
    # tests/test_correction.py::TestEstimateWeights::test_ratio_paths_cross_checked_externally.
    images = [fb.make_phantom(fb.PhantomSpec(32, 32, seed=300 + i)) for i in range(8)]
    proc = fb.ProcessConfig(r_prime=2.0, t_f=16, seed=0)
    sched = fb.estimate_weights(images, proc, mc_samples=10_000, seed=42)
    assert abs(sched.weights[0] - 1.0) <= 1e-6, "w_1 must be 1"

    # flat spectra: convergence to 1/t
    flat = np.zeros((32, 32), dtype=complex)
    flat[0, 0] = 1.0
    flat_sched = fb.estimate_weights([flat], proc, mc_samples=10_000, seed=43)
    dev = np.max(np.abs(flat_sched.weights - 1.0 / np.arange(1, 17)))
    assert dev < 0.05, f"flat-spectrum deviation from 1/t: {dev:.3f}"

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s (budget 60s)"
    _report(3, "correction schedule", elapsed)


def test_criterion_4_operator_algebra():
    started = time.monotonic()
    grid = radius_map(64, 64)

    # adjoint identity <= 1e-10
    for seed in range(10):
        mask = make_sampling_mask(grid, 4.0, "normal2d", calib=4, seed=seed)
        maps = fb.synth_coil_maps(grid, 1 + seed % 4, seed=seed)
        sys_ = fb.ImagingSystem(mask=mask, coil_maps=maps, grid=grid)
        x = rand_image(64, 64, seed=seed)
        yv = np.stack([rand_image(64, 64, seed=seed ^ (c + 1)) for c in range(sys_.n_coils)])
        lhs = np.vdot(apply_forward(sys_, x), yv)
        rhs = np.vdot(x, fb.adjoint(sys_, fb.Measurement(yv, acceleration=4.0)))
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(yv)

    # single-coil DC projection: idempotent <= 1e-12, pins sampled frequencies
    mask = make_sampling_mask(grid, 4.0, "normal2d", calib=4, seed=101)
    sys1 = unit_system(mask)
    y = fb.forward(sys1, rand_image(64, 64, seed=102))
    z = rand_image(64, 64, seed=103)
    once, _ = dc_projection(sys1, z, y)
    twice, _ = dc_projection(sys1, once, y)
    assert np.linalg.norm(twice - once) <= 1e-12 * np.linalg.norm(once)
    pin_err = np.max(np.abs(dft2(once)[mask] - y.data[0][mask]))
    assert pin_err <= 1e-12 * np.linalg.norm(y.data)

    # corruption operator never expands: ||C_t x|| <= ||x|| on 100 draws
    traj = fb.sample_trajectory(grid, fb.ProcessConfig(r_prime=2.0, t_f=64, seed=7))
    for i in range(100):
        x = rand_image(64, 64, seed=200 + i)
        t = 1 + i % 64
        assert np.linalg.norm(fb.corrupt(x, traj, t)) <= np.linalg.norm(x) * (1 + 1e-12)

    # Parseval <= 1e-10 relative
    for seed in range(10):
        x = rand_image(64, 64, seed=400 + seed)
        e = np.sum(np.abs(x) ** 2)
        assert abs(np.sum(np.abs(dft2(x)) ** 2) - e) <= 1e-10 * e

    _report(4, "operator algebra", time.monotonic() - started)


def test_criterion_5_gradient_correctness():
    started = time.monotonic()
    for seed in range(5):
        model = fb.TinyRegressor(t_f=64, seed=seed)
        sample = fb.make_phantom(fb.PhantomSpec(32, 32, seed=500 + seed))
        target = fb.make_phantom(fb.PhantomSpec(32, 32, seed=600 + seed))
        err = grad_check(model, sample, t=9 + seed, target=target, n_params=50, seed=seed)
        assert err < 1e-4, f"seed {seed}: max relative error {err:.3e}"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"criterion 5 took {elapsed:.1f}s (budget 30s)"
    _report(5, "gradient correctness", elapsed)


def test_criterion_6_reconstruction_steps_formula():
    started = time.monotonic()
    assert fb.reconstruction_steps(1000, 4, 2) == 1500
    assert fb.reconstruction_steps(1000, 8, 2) == 1750

    grid = radius_map(64, 64)
    for r in (4.0, 8.0):
        t_r = fb.reconstruction_steps(64, r, 2.0)
        traj = fb.sample_trajectory(grid, fb.ProcessConfig(r_prime=2.0, t_f=64, seed=3), t_total=t_r)
        removed = sum(np.count_nonzero(traj.removed_mask(t)) for t in range(1, t_r + 1))
        target = grid.n_components * (r - 1.0) / r
        assert abs(removed - target) <= traj.n, f"R={r}: removed {removed} vs target {target}"
    _report(6, "T_r formula and extension", time.monotonic() - started)


def test_criterion_7_end_to_end_toy_reconstruction():
    started = time.monotonic()
    seed = 2026
    train_images = [
        fb.make_phantom(fb.PhantomSpec(64, 64, seed=child_seed(seed, "train", i))) for i in range(20)
    ]
    proc = fb.ProcessConfig(r_prime=2.0, t_f=64, seed=child_seed(seed, "proc"))
    # 20 images / batch 10 = 2 updates per epoch; 100 epochs = 200 optimizer steps
    tcfg = fb.TrainConfig(
        learning_rate=0.01, epochs=100, batch=10, loss_mode="upper_bound",
        seed=child_seed(seed, "traincfg"),
    )
    model = fb.TinyRegressor(t_f=64, seed=child_seed(seed, "init"))
    model, trace = fb.train(model, train_images, proc, tcfg)
    assert trace[-1] < 0.5 * trace[0], f"loss {trace[0]:.1f} -> {trace[-1]:.1f} not halved"

    schedule = fb.estimate_weights(train_images, proc, mc_samples=300, seed=child_seed(seed, "mc"))

    grid = radius_map(64, 64)
    margins, margins_plain = [], []
    for i in range(10):
        reference = fb.make_phantom(fb.PhantomSpec(64, 64, seed=child_seed(seed, "held", i)))
        mask = make_sampling_mask(grid, 4.0, "normal2d", calib=4, seed=child_seed(seed, "mask", i))
        sys_ = unit_system(mask)
        y = fb.forward(sys_, reference)
        baseline = fb.psnr(reference, fb.adjoint(sys_, y))

        full = fb.reconstruct(
            y, sys_, model, proc, schedule,
            fb.SamplerConfig(t_f=64, r_prime=2.0, r=4.0, correction="learned",
                             seed=child_seed(seed, "samp", i)),
        )
        plain = fb.reconstruct(
            y, sys_, model, proc, schedule,
            fb.SamplerConfig(t_f=64, r_prime=2.0, r=4.0, correction="none",
                             seed=child_seed(seed, "samp", i)),
        )
        margins.append(fb.psnr(reference, full.image) - baseline)
        margins_plain.append(fb.psnr(reference, plain.image) - baseline)

    mean_margin = float(np.mean(margins))
    mean_plain = float(np.mean(margins_plain))
    # frozen fixture: this configuration achieves ~+2.8 dB over least squares
    # (worst held-out image ~+0.3 dB) with float32 passes; training at 200
    # steps is chaotic (a 1e-7 relative nudge of the initial parameters moves
    # the float64 recipe from +4.3 to +5.3 or +7.3 dB), so the seed, recipe
    # and pass precision are pinned together
    assert mean_margin >= 2.0, f"mean margin {mean_margin:.2f} dB < 2 dB"
    assert mean_plain < mean_margin, "ablating the correction must score strictly below full"
    elapsed = time.monotonic() - started
    assert elapsed < 600.0, f"criterion 7 took {elapsed:.1f}s (budget 600s)"
    _report(7, f"end-to-end margin {mean_margin:.2f} dB (no-correction {mean_plain:.2f} dB)", elapsed)


def test_criterion_8_manifest_replay_determinism(tmp_path):
    started = time.monotonic()
    config = {
        "seed": 17,
        "data": {"dims": 32, "count": 3, "contrast": "t2_like"},
        "process": {"R_prime": 2.0, "T_f": 8},
        "sampler": {"R": 4.0, "correction": "linear"},
        "train": {"learning_rate": 0.02, "epochs": 2, "batch": 2},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    def replayed_pair(command, *flags):
        first = tmp_path / f"{command}-a"
        second = tmp_path / f"{command}-b"
        assert cli_main([command, "--config", str(cfg_path), "--out", str(first), *flags]) == 0
        assert cli_main(["replay", str(first / "run_manifest.json"), "--out", str(second)]) == 0
        return first, second

    a, b = replayed_pair("phantom")
    for name in read_json(a / "manifest.json")["ids"]:
        assert (a / "images" / name).read_bytes() == (b / "images" / name).read_bytes()

    a, b = replayed_pair("estimate-w", "--mc-samples", "80", "--no-plot")
    assert (a / "schedule.csv").read_bytes() == (b / "schedule.csv").read_bytes()

    a, b = replayed_pair("reconstruct")
    for name in ("recon.cimg", "zerofill.cimg", "reference.cimg", "diagnostics.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    for name in ("mask.kmsk", "coil_00.cimg"):
        assert (a / "measurement" / name).read_bytes() == (b / "measurement" / name).read_bytes()

    _report(8, "manifest replay determinism", time.monotonic() - started)
