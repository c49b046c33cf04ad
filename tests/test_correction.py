import itertools
import warnings

import numpy as np
import pytest

from fdbridge.correction import (
    CorrectionSchedule,
    estimate_weights,
    linear_weights,
    load_schedule,
    resample_weights,
    save_schedule,
)
from fdbridge.degradation import ProcessConfig
from fdbridge.errors import ScheduleError
from fdbridge.fileio import read_json, write_json
from fdbridge.grid import dft2, radius_map
from fdbridge.phantoms import PhantomSpec, make_phantom

from conftest import constant_schedule, rand_image
from trajectory_oracle import every_trajectory


def flat_spectrum_image(dims: int) -> np.ndarray:
    """Unit impulse: every DFT magnitude equal."""
    img = np.zeros((dims, dims), dtype=complex)
    img[0, 0] = 1.0
    return img


class TestEstimateWeights:
    def test_w1_is_exactly_one(self):
        images = [make_phantom(PhantomSpec(32, 32, seed=i)) for i in range(3)]
        proc = ProcessConfig(r_prime=2.0, t_f=8, seed=0)
        sched = estimate_weights(images, proc)
        assert abs(sched.weights[0] - 1.0) <= 1e-6

    def test_flat_spectrum_two_step_half(self):
        # 4x4 grid, n = 4 per step over 2 steps, flat spectrum: w_2 = 4/8
        proc = ProcessConfig(r_prime=2.0, t_f=2, density="uniform", seed=3)
        sched = estimate_weights([flat_spectrum_image(4)], proc)
        assert sched.weights[1] == pytest.approx(0.5, abs=1e-12)

    def test_flat_spectrum_brute_force_enumeration(self):
        # Independent oracle: enumerate every admissible (S_1, S_2) pair of the
        # uniform-density process (DC excluded) and average spectral energies.
        dims, n = 4, 4
        img = flat_spectrum_image(dims)
        energy = np.abs(dft2(img).ravel()) ** 2
        dc = (dims // 2) * dims + dims // 2
        components = [k for k in range(dims * dims) if k != dc]

        sum_e1 = sum_e2 = 0.0
        draws = 0
        for s1 in itertools.combinations(components, n):
            rest = [k for k in components if k not in set(s1)]
            e1 = energy[list(s1)].sum()
            for s2 in itertools.combinations(rest, n):
                sum_e1 += e1
                sum_e2 += energy[list(s2)].sum()
                draws += 1
        exp_e1, exp_e2 = sum_e1 / draws, sum_e2 / draws
        w2_oracle = exp_e2 / (exp_e1 + exp_e2)
        assert w2_oracle == pytest.approx(0.5, abs=1e-12)

        proc = ProcessConfig(r_prime=2.0, t_f=2, density="uniform", seed=3)
        sched = estimate_weights([img], proc)
        assert sched.weights[1] == pytest.approx(w2_oracle, abs=1e-12)

    def test_flat_spectrum_converges_to_reciprocal_t(self):
        proc = ProcessConfig(r_prime=2.0, t_f=8, seed=6)
        sched = estimate_weights([flat_spectrum_image(16)], proc)
        expected = 1.0 / np.arange(1, 9)  # every step removes 16 components of equal energy
        assert np.max(np.abs(sched.weights - expected)) <= 1e-12

    def test_ratio_paths_cross_checked_externally(self):
        # the one check of the ratio identity: both forms from keep masks, averaged over every trajectory
        grid = radius_map(4, 4)
        proc = ProcessConfig(r_prime=4.0, t_f=3)  # step 2's window takes in components and step 3 relaxes
        img = rand_image(4, 4, seed=9)
        spec = dft2(img).ravel()
        probability, removed_at = (np.array(a) for a in zip(*every_trajectory(grid, proc, proc.t_f)))
        # x_t_spec[t][j]: trajectory j's spectrum at step t, by its keep mask
        x_t_spec = [np.where((removed_at == 0) | (removed_at > t), spec, 0) for t in range(proc.t_f + 1)]

        def mean_energy(x):
            return probability @ np.sum(np.abs(x) ** 2, axis=1)

        sum_et = np.array([mean_energy(x) for x in x_t_spec])
        sum_diff = np.array([mean_energy(x_t_spec[t - 1] - x_t_spec[t]) for t in range(1, proc.t_f + 1)])
        sum_deficit = np.array([mean_energy(spec - x_t_spec[t]) for t in range(1, proc.t_f + 1)])
        balance = (sum_et[:-1] - sum_et[1:]) / (sum_et[0] - sum_et[1:])
        diff = sum_diff / sum_deficit
        assert np.max(np.abs(balance - diff)) <= 1e-8 * np.max(np.abs(balance))
        sched = estimate_weights([img], proc)
        assert np.max(np.abs(diff - sched.weights) / diff) <= 1e-12
        assert np.max(np.abs(sum_et / sum_et[0] - sched.energy_fraction)) <= 1e-12

    def test_each_image_counts_once(self):
        # the schedule is that of the mean spectrum: repeating the whole dataset leaves it, and
        # repeating one image weighs that image more
        a, b = (make_phantom(PhantomSpec(32, 32, seed=s)) for s in (90, 91))
        proc = ProcessConfig(r_prime=2.0, t_f=8)
        pair, twice, lopsided = (estimate_weights(images, proc) for images in ([a, b], [a, b, a, b], [a, b, a]))
        assert np.max(np.abs(pair.weights - twice.weights)) <= 1e-12
        assert np.max(np.abs(pair.energy_fraction - twice.energy_fraction)) <= 1e-12
        assert np.max(np.abs(pair.weights - lopsided.weights)) > 1e-6

    def test_dc_offset_leaves_weights_unchanged(self):
        # DC is never removed, so an offset only adds energy the weight ratio never reads; the
        # energy-balance form would subtract two energies dominated by that offset
        images = [make_phantom(PhantomSpec(32, 32, seed=80 + i)) for i in range(3)]
        proc = ProcessConfig(r_prime=2.0, t_f=16, seed=14)
        plain = estimate_weights(images, proc)
        offset = estimate_weights([x + 100.0 for x in images], proc)
        assert np.max(np.abs(offset.weights - plain.weights) / plain.weights) <= 1e-12

    def test_draw_count_and_seed_are_unread(self):
        # the benchmark's call form has the bytes of the plain call
        images = [make_phantom(PhantomSpec(32, 32, seed=60 + i)) for i in range(4)]
        proc = ProcessConfig(r_prime=2.0, t_f=8, seed=0)
        a = estimate_weights(images, proc, 100, seed=7)
        b = estimate_weights(images, proc)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.energy_fraction.tobytes() == b.energy_fraction.tobytes()

    def test_degenerate_denominator_names_step(self):
        # constant image: all removable components carry zero energy
        img = np.full((16, 16), 0.7, dtype=complex)
        proc = ProcessConfig(r_prime=2.0, t_f=4, seed=10)
        with pytest.raises(ScheduleError, match="t=1"):
            estimate_weights([img], proc)

    def test_energy_fraction_recorded(self):
        images = [make_phantom(PhantomSpec(32, 32, seed=70))]
        proc = ProcessConfig(r_prime=2.0, t_f=8, seed=12)
        sched = estimate_weights(images, proc)
        gamma = sched.energy_fraction
        assert gamma.shape == (9,)
        assert gamma[0] == pytest.approx(1.0)
        assert np.all(np.diff(gamma) <= 1e-12)


def test_non_monotone_schedule_is_reported():
    # the type invariant's reporting mechanism: an estimated schedule that rises beyond 1e-3 warns
    rising = [1.0, 0.5, 0.502, 0.2]
    with pytest.warns(UserWarning, match="monte_carlo schedule is non-monotone by 0.002"):
        CorrectionSchedule(rising, "monte_carlo")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        CorrectionSchedule([1.0, 0.5, 0.5009, 0.2], "monte_carlo")  # within the tolerance
        CorrectionSchedule(rising, "constant")  # a given schedule is not an estimate


def test_non_monotone_warning_points_at_the_caller(tmp_path):
    # the warning names the user's call, not a frame inside the package, however the schedule is made
    rising = [1.0, 0.5, 0.502, 0.2]
    save_schedule(tmp_path, CorrectionSchedule(rising, "constant"), r_prime=2.0, seed=0)
    meta_path = tmp_path / "schedule.json"
    write_json(meta_path, {**read_json(meta_path), "provenance": "monte_carlo"})
    phantoms = [make_phantom(PhantomSpec(32, 32, seed=s)) for s in (70, 71)]
    builders = {
        "direct": lambda: CorrectionSchedule(rising, "monte_carlo"),
        "estimate_weights": lambda: estimate_weights(phantoms, ProcessConfig(r_prime=2.0, t_f=8)),
        "load_schedule": lambda: load_schedule(tmp_path / "schedule.csv", ProcessConfig(r_prime=2.0, t_f=4)),
    }
    for name, build in builders.items():
        with pytest.warns(UserWarning, match="non-monotone") as record:
            build()
        assert [w.filename for w in record] == [__file__], name


class TestLinearWeights:
    def test_endpoints_and_midpoint(self):
        w = linear_weights(3).weights
        assert w[0] == 1.0 and w[-1] == 0.0 and w[1] == pytest.approx(0.5)

    def test_single_entry(self):
        assert linear_weights(1).weights.tolist() == [1.0]


class TestResampleWeights:
    def test_identity_resampling_bitwise(self):
        sched = linear_weights(16)
        out = resample_weights(sched, 16)
        assert np.array_equal(out, sched.weights)

    def test_linear_inputs_stay_linear(self):
        sched = linear_weights(9)
        out = resample_weights(sched, 17)
        diffs = np.diff(out)
        assert np.allclose(diffs, diffs[0], atol=1e-12)
        assert out[0] == 1.0 and out[-1] == 0.0

    def test_double_length_endpoints(self):
        w = np.linspace(1.0, 0.25, 12)
        out = resample_weights(CorrectionSchedule(w, "constant"), 24)
        assert out[0] == w[0] and out[-1] == w[-1]

    def test_empty_schedule_rejected(self):
        # an empty schedule cannot be built, so there is none to resample
        with pytest.raises(ScheduleError, match="non-empty"):
            CorrectionSchedule(np.array([]), "constant")


def test_schedule_csv_round_trip(tmp_path):
    sched = constant_schedule(6, 0.75)
    save_schedule(tmp_path, sched, r_prime=2.0, seed=5)
    loaded = load_schedule(tmp_path / "schedule.csv", ProcessConfig(r_prime=2.0, t_f=6))
    assert np.array_equal(loaded.weights, sched.weights)
    assert loaded.provenance == "constant"

    text = (tmp_path / "schedule.csv").read_text().splitlines()
    assert text[0] == "t,w"
    assert text[1].startswith("1,")


@pytest.mark.parametrize("ts,bad_row", [((2, 1, 4), 1), ((1, 2, 4), 3), ((1, 1, 2), 2)])
def test_schedule_csv_steps_must_count_from_one(tmp_path, ts, bad_row):
    path = tmp_path / "schedule.csv"
    path.write_text("t,w\n" + "".join(f"{t},0.5\n" for t in ts))
    with pytest.raises(ValueError, match=f"row {bad_row} has t={ts[bad_row - 1]}, expected t={bad_row}"):
        load_schedule(path, ProcessConfig(r_prime=2.0, t_f=3))
