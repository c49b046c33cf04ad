import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdbridge.errors import ConfigError
from fdbridge.fileio import read_cimg, read_json, read_kmsk
from fdbridge.grid import dft2, idft2, radius_map, to_native
from fdbridge.imaging import (
    MASK_DENSITIES,
    ImagingSystem,
    adjoint,
    apply_forward,
    dc_projection,
    forward,
    make_sampling_mask,
    residual_norm,
    save_measurement,
    synth_coil_maps,
)

from conftest import rand_image, unit_system
from mask_oracle import reference_sampling_mask


class TestSamplingMask:
    def test_near_unity_rate_keeps_almost_everything(self):
        grid = radius_map(64, 64)
        mask = make_sampling_mask(grid, 1.01, "uniform", calib=4, seed=0)
        assert mask.sum() >= 0.98 * grid.n_components

    def test_kept_count_band_over_seeds(self):
        # 64x64 at R=4: kept count within [983, 1085] for every seed
        grid = radius_map(64, 64)
        for seed in range(20):
            kept = int(make_sampling_mask(grid, 4.0, "normal2d", calib=4, seed=seed).sum())
            assert 983 <= kept <= 1085

    def test_normal1d_keeps_full_columns(self):
        grid = radius_map(64, 64)
        mask = make_sampling_mask(grid, 4.0, "normal1d", calib=4, seed=3)
        cols = mask[0]
        assert np.array_equal(mask, np.repeat(cols[None, :], 64, axis=0))
        assert cols.sum() == 16

    def test_calibration_block_fully_kept(self):
        grid = radius_map(64, 64)
        mask = make_sampling_mask(grid, 4.0, "normal2d", calib=6, seed=1)
        assert np.all(mask[29:35, 29:35])

    def test_variable_density_concentrates_centrally(self):
        grid = radius_map(64, 64)
        mask = make_sampling_mask(grid, 4.0, "normal2d", calib=0, seed=2)
        r = grid.radius
        inner = mask[r <= 16].mean()
        outer = mask[r > 32].mean()
        assert inner > 2 * outer

    def test_budget_smaller_than_calib_rejected(self):
        grid = radius_map(64, 64)
        with pytest.raises(ConfigError):
            make_sampling_mask(grid, 64.0, "normal2d", calib=16, seed=0)

    def test_determinism(self):
        grid = radius_map(32, 32)
        a = make_sampling_mask(grid, 4.0, "normal2d", calib=2, seed=5)
        b = make_sampling_mask(grid, 4.0, "normal2d", calib=2, seed=5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("density", MASK_DENSITIES)
    def test_matches_two_branch_reference(self, density):
        # bit-equal masks, or a ConfigError from both, over odd, non-square and 2x2 grids,
        # R from 1.01 to 64, calib None/0/odd/even, three seeds
        drawn = rejected = 0
        for shape in [(2, 2), (7, 5), (9, 16), (16, 9), (33, 31), (32, 32)]:
            grid = radius_map(*shape)
            for r in (1.01, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0, 64.0):
                for calib in (None, 0, 1, 2, 3, 4):
                    for seed in range(3):
                        outcomes = []
                        for build in (reference_sampling_mask, make_sampling_mask):
                            try:
                                outcomes.append(build(grid, r, density, calib, seed=seed))
                            except ConfigError:
                                outcomes.append(None)
                        want, got = outcomes
                        assert (want is None) == (got is None), (shape, r, calib, seed)
                        if want is None:
                            rejected += 1
                            continue
                        assert np.array_equal(want, got), (shape, r, calib, seed)
                        drawn += not want.all()
        assert drawn >= 200 and rejected >= 100  # both outcomes are exercised


class TestCoilMaps:
    def test_single_coil_unit_modulus(self):
        maps = synth_coil_maps(radius_map(32, 32), 1, seed=0)
        assert np.max(np.abs(np.abs(maps[0]) - 1.0)) <= 1e-10

    def test_sum_of_squares_normalized(self):
        maps = synth_coil_maps(radius_map(32, 32), 5, seed=1)
        sos = np.sum(np.abs(maps) ** 2, axis=0)
        assert np.max(np.abs(sos - 1.0)) <= 1e-10

    def test_determinism(self):
        a = synth_coil_maps(radius_map(32, 32), 3, seed=2)
        b = synth_coil_maps(radius_map(32, 32), 3, seed=2)
        assert np.array_equal(a, b)


class TestForwardAdjoint:
    def test_identity_system(self):
        x = rand_image(32, 32, seed=0)
        sys_ = unit_system(np.ones((32, 32), dtype=bool))
        y = forward(sys_, x)
        assert np.allclose(y.data[0], dft2(x), atol=1e-12)

    def test_zero_image_noise_only_on_support(self):
        mask = make_sampling_mask(radius_map(32, 32), 4.0, "normal2d", calib=2, seed=3)
        sys_ = unit_system(mask)
        y = forward(sys_, np.zeros((32, 32), complex), noise_sigma=0.5, seed=7)
        assert np.all(y.data[0][~mask] == 0)
        assert np.any(y.data[0][mask] != 0)

    def test_triangle_inequality(self):
        mask = make_sampling_mask(radius_map(32, 32), 2.0, "normal2d", calib=2, seed=4)
        sys_ = unit_system(mask)
        x = rand_image(32, 32, seed=5)
        clean = forward(sys_, x)
        noisy = forward(sys_, x, noise_sigma=0.3, seed=8)
        eps = noisy.data - clean.data
        assert np.linalg.norm(noisy.data) <= np.linalg.norm(x) + np.linalg.norm(eps) + 1e-9

    def test_round_trip_all_true_mask(self):
        x = rand_image(32, 32, seed=6)
        sys_ = unit_system(np.ones((32, 32), dtype=bool))
        back = adjoint(sys_, forward(sys_, x))
        assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)

    def test_zero_measurement(self):
        sys_ = unit_system(np.ones((16, 16), dtype=bool))
        assert np.all(adjoint(sys_, np.zeros((1, 16, 16), complex)) == 0)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31 - 1), coils=st.integers(1, 5))
    def test_adjoint_identity_property(self, seed, coils):
        grid = radius_map(24, 24)
        mask = make_sampling_mask(grid, 3.0, "normal2d", calib=2, seed=seed)
        sys_ = ImagingSystem(mask=mask, coil_maps=synth_coil_maps(grid, coils, seed=seed), grid=grid)
        x = rand_image(24, 24, seed=seed ^ 0x1)
        y = rand_image(24, 24, seed=seed ^ 0x2)
        yv = np.stack([y * (c + 1) for c in range(coils)])
        lhs = np.vdot(apply_forward(sys_, x), yv)
        rhs = np.vdot(x, adjoint(sys_, yv))
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(yv)


class TestDcProjection:
    def _single_coil(self, seed=0):
        mask = make_sampling_mask(radius_map(32, 32), 4.0, "normal2d", calib=2, seed=seed)
        return unit_system(mask)

    def test_consistent_point_is_fixed(self):
        sys_ = self._single_coil()
        x = rand_image(32, 32, seed=1)
        y = forward(sys_, x)
        # x is consistent with its own measurements
        out, _ = dc_projection(sys_, x, y)
        assert np.linalg.norm(out - x) <= 1e-12 * np.linalg.norm(x)

    def test_single_coil_idempotence(self):
        sys_ = self._single_coil(seed=2)
        x_true = rand_image(32, 32, seed=3)
        y = forward(sys_, x_true)
        z = rand_image(32, 32, seed=4)
        once, _ = dc_projection(sys_, z, y)
        twice, _ = dc_projection(sys_, once, y)
        assert np.linalg.norm(twice - once) <= 1e-12 * np.linalg.norm(once)

    def test_single_coil_pins_sampled_frequencies(self):
        sys_ = self._single_coil(seed=5)
        y = forward(sys_, rand_image(32, 32, seed=6))
        out, _ = dc_projection(sys_, rand_image(32, 32, seed=7), y)
        spec = dft2(out)
        mask = sys_.mask
        assert np.max(np.abs(spec[mask] - y.data[0][mask])) <= 1e-12 * np.linalg.norm(y.data)

    def test_multi_coil_residual_non_increase(self):
        grid = radius_map(32, 32)
        mask = make_sampling_mask(grid, 4.0, "normal2d", calib=2, seed=8)
        sys_ = ImagingSystem(mask=mask, coil_maps=synth_coil_maps(grid, 4, seed=9), grid=grid)
        y = forward(sys_, rand_image(32, 32, seed=10))
        x = rand_image(32, 32, seed=11)
        for _ in range(4):
            nxt, before = dc_projection(sys_, x, y)
            assert before == pytest.approx(residual_norm(sys_, x, y), rel=1e-12)
            assert residual_norm(sys_, nxt, y) <= before * (1 + 1e-12)
            x = nxt


def _per_coil_forward(system, x):
    """Oracle: the forward operator as one centered DFT per coil."""
    data = np.empty((system.n_coils, *system.grid.shape), dtype=np.complex128)
    for c in range(system.n_coils):
        data[c] = np.where(system.mask, dft2(system.coil_maps[c] * x), 0.0)
    return data


def _per_coil_adjoint(system, data):
    """Oracle: the adjoint as one centered inverse DFT per coil, summed in coil order."""
    out = np.zeros(system.grid.shape, dtype=np.complex128)
    for c in range(system.n_coils):
        out += np.conj(system.coil_maps[c]) * idft2(np.where(system.mask, data[c], 0.0))
    return out


class TestCoilBatchedOperators:
    """The coil-batched FFT-native operators equal the per-coil centered loop bit for bit."""

    @staticmethod
    def _case(shape, coils):
        grid = radius_map(*shape)
        mask = make_sampling_mask(grid, 4.0, "normal2d", seed=coils)
        system = ImagingSystem(mask=mask, coil_maps=synth_coil_maps(grid, coils, seed=coils + 1), grid=grid)
        y = forward(system, rand_image(*shape, seed=2), noise_sigma=0.1, seed=3)
        return system, y, rand_image(*shape, seed=4)

    @pytest.mark.parametrize("shape", [(64, 64), (33, 31)])
    @pytest.mark.parametrize("coils", [1, 4])
    def test_forward_and_adjoint(self, shape, coils):
        system, y, x = self._case(shape, coils)
        assert apply_forward(system, x).tobytes() == _per_coil_forward(system, x).tobytes()
        assert adjoint(system, y).tobytes() == _per_coil_adjoint(system, y.data).tobytes()

    @pytest.mark.parametrize("shape", [(64, 64), (33, 31)])
    @pytest.mark.parametrize("coils", [1, 4])
    def test_dc_projection_image_and_residual(self, shape, coils):
        system, y, x = self._case(shape, coils)
        residual = y.data - _per_coil_forward(system, x)
        image, norm = dc_projection(system, x, y)
        assert image.tobytes() == (x + _per_coil_adjoint(system, residual)).tobytes()
        # both norms sum the residual in FFT-native order, so the oracle's is shifted there first
        assert norm == float(np.linalg.norm(to_native(residual)))
        assert residual_norm(system, x, y) == float(np.linalg.norm(to_native(_per_coil_forward(system, x) - y.data)))

    @pytest.mark.parametrize("bad", ["one coil", "extra coil"])
    def test_measurement_of_the_wrong_shape_is_rejected(self, bad):
        system, y, x = self._case((32, 32), 4)
        data = y.data[0] if bad == "one coil" else np.concatenate([y.data, y.data[:1]])
        for call in (lambda: adjoint(system, data), lambda: dc_projection(system, x, data),
                     lambda: residual_norm(system, x, data)):
            with pytest.raises(ValueError, match="measurement shape"):
                call()

    def test_inputs_left_unchanged(self):
        system, y, x = self._case((33, 31), 4)
        before = (system.coil_maps.copy(), system.mask.copy(), y.data.copy(), x.copy())
        apply_forward(system, x)
        adjoint(system, y)
        dc_projection(system, x, y)
        for kept, now in zip(before, (system.coil_maps, system.mask, y.data, x)):
            assert kept.tobytes() == now.tobytes()


def test_measurement_serialization_round_trip(tmp_path):
    grid = radius_map(32, 32)
    mask = make_sampling_mask(grid, 4.0, "normal2d", calib=2, seed=12)
    sys_ = ImagingSystem(mask=mask, coil_maps=synth_coil_maps(grid, 3, seed=13), grid=grid)
    y = forward(sys_, rand_image(32, 32, seed=14), noise_sigma=0.1, seed=15, acceleration=4.0)
    names = save_measurement(tmp_path, sys_, y, seed=15, density="normal2d")
    assert sorted(names) == sorted(
        [f"coil_{c:02d}.cimg" for c in range(3)] + [f"sens_{c:02d}.cimg" for c in range(3)]
        + ["mask.kmsk", "measurement.json"]
    )
    assert np.array_equal(read_kmsk(tmp_path / "mask.kmsk"), sys_.mask)
    for c in range(3):
        assert np.array_equal(read_cimg(tmp_path / f"coil_{c:02d}.cimg"), y.data[c])
        assert np.array_equal(read_cimg(tmp_path / f"sens_{c:02d}.cimg"), sys_.coil_maps[c])
    meta = read_json(tmp_path / "measurement.json")
    assert meta == {"R": 4.0, "C": 3, "noise_sigma": 0.1, "seed": 15, "density": "normal2d"}
