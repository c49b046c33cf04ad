import numpy as np
import pytest

from fdbridge import degradation, parallel
from fdbridge.correction import CorrectionSchedule, linear_weights, resample_weights
from fdbridge.degradation import ProcessConfig, corrupt, native_trajectory, sample_trajectory
from fdbridge.errors import ConfigError, SamplingError, ScheduleError
from fdbridge.grid import dft2, idft2, radius_map, to_centered, to_native
from fdbridge.imaging import (
    ImagingSystem,
    adjoint,
    dc_projection,
    forward,
    make_sampling_mask,
    residual_norm,
    synth_coil_maps,
)
from fdbridge.metrics import psnr
from fdbridge.phantoms import PhantomSpec, make_phantom
from fdbridge.recovery import OracleRecovery, TinyRegressor, ZeroFillRecovery
from fdbridge.sampler import (
    DdpmSchedule,
    SamplerConfig,
    ddpm_reconstruct,
    ddpm_schedule,
    reconstruct,
    reconstruction_steps,
    reverse_step,
)

from conftest import constant_schedule, rand_image, unit_system
from gradcheck import float64_forward
from loop_oracle import reference_ddpm_reconstruct, reference_reconstruct


class TestReconstructionSteps:
    @pytest.mark.parametrize(
        "t_f,r,r_prime,expected",
        [(1000, 4, 2, 1500), (1000, 8, 2, 1750), (1000, 2, 2, 1000)],
    )
    def test_quoted_values(self, t_f, r, r_prime, expected):
        assert reconstruction_steps(t_f, r, r_prime) == expected

    def test_extended_trajectory_removal_total(self):
        # n * T_r matches the R-fold missing count within one step's rounding
        grid = radius_map(64, 64)
        for r in (4.0, 8.0):
            cfg = ProcessConfig(r_prime=2.0, t_f=64, seed=0)
            t_r = reconstruction_steps(64, r, 2.0)
            traj = sample_trajectory(grid, cfg, t_total=t_r)
            removed = sum(np.count_nonzero(traj.removed_mask(t)) for t in range(1, t_r + 1))
            target = grid.n_components * (r - 1.0) / r
            assert abs(removed - target) <= traj.n


def _matched_setup(dims=32, t_f=8, seed=0):
    grid = radius_map(dims, dims)
    proc = ProcessConfig(r_prime=2.0, t_f=t_f, seed=seed)
    traj = sample_trajectory(grid, proc)
    x0 = make_phantom(PhantomSpec(dims, dims, seed=seed + 500))
    return grid, proc, traj, x0


def _three_transform_reverse_step(x_t, t, traj, x0_est, weight, corrected):
    """Oracle: the reverse step with one centered DFT per image and centered masks.

    ``corrected=False`` is the standard step; ``True`` adds the correction
    term, even at weight 0.
    """
    est_spec = dft2(x0_est)
    update = np.where(traj.removed_mask(t), est_spec, 0.0)
    if corrected:
        update = update + weight * np.where(traj.keep_mask(t), est_spec - dft2(x_t), 0.0)
    return x_t + idft2(update)


def _centered_step(x_t, t, traj, x0_est, weight=0.0):
    """``reverse_step`` on centered images: its native inputs and output shifted at this boundary."""
    return to_centered(reverse_step(to_native(x_t), t, native_trajectory(traj), to_native(x0_est), weight=weight))


class TestReverseStep:
    def test_oracle_telescoping(self):
        _, _, traj, x0 = _matched_setup()
        for t in (1, 4, 8):
            x_t = corrupt(x0, traj, t)
            out = _centered_step(x_t, t, traj, x0)
            expected = corrupt(x0, traj, t - 1)
            assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(x0)

    def test_oracle_correction_term_vanishes(self):
        _, _, traj, x0 = _matched_setup(seed=1)
        for t in (2, 6):
            x_t = corrupt(x0, traj, t)
            plain = _centered_step(x_t, t, traj, x0)
            corr = _centered_step(x_t, t, traj, x0, weight=0.8)
            assert np.linalg.norm(corr - plain) <= 1e-12 * np.linalg.norm(x0)

    def test_uncorrected_update_only_touches_step_set(self):
        _, _, traj, x0 = _matched_setup(seed=5)
        x_t = rand_image(32, 32, seed=6)
        est = rand_image(32, 32, seed=7)
        t = 4
        out = _centered_step(x_t, t, traj, est)
        delta_spec = dft2(out) - dft2(x_t)
        step_set = traj.keep_mask(t - 1) & ~traj.keep_mask(t)
        assert np.max(np.abs(delta_spec[~step_set])) <= 1e-12 * np.linalg.norm(est)

    @pytest.mark.parametrize("shape", [(64, 64), (33, 31)])
    # weight 0 is the standard step, and has the bits of the corrected form at weight 0
    @pytest.mark.parametrize("weight,corrected", [(0.37, True), (0.0, True), (0.0, False)])
    def test_matches_three_transform_form(self, shape, weight, corrected):
        grid = radius_map(*shape)
        traj = sample_trajectory(grid, ProcessConfig(r_prime=2.0, t_f=16, seed=9), t_total=24)
        x_t = rand_image(*shape, seed=10)
        est = rand_image(*shape, seed=11)
        for t in (1, 9, 24):
            got = _centered_step(x_t, t, traj, est, weight=weight)
            ref = _three_transform_reverse_step(x_t, t, traj, est, weight, corrected)
            assert got.tobytes() == ref.tobytes()

    def test_t_zero_rejected(self):
        _, _, traj, x0 = _matched_setup(seed=8)
        with pytest.raises(ValueError):
            reverse_step(x0, 0, traj, x0)


class _NeverCalled:
    def recover(self, x, t):
        raise AssertionError("reconstruct sampled before rejecting its config")


class _FixedEstimate:
    def __init__(self, est):
        self.est = est

    def recover(self, x, t):
        return self.est


class TestReconstruct:
    def test_estimate_is_validated_as_an_image(self):
        # reconstruct takes any object with recover: a single-precision estimate is widened
        # to complex128 before the step, and an estimate that is not 2D is rejected
        _, proc, traj, x0 = _matched_setup(seed=9)
        sys_ = unit_system(traj.keep_mask(proc.t_f))
        y = forward(sys_, x0)
        cfg = SamplerConfig(t_f=proc.t_f, r_prime=2.0, r=2.0, correction="none", ct_mode="fixed", seed=0)
        sched = constant_schedule(proc.t_f, 0.5)
        narrow = x0.astype(np.complex64)
        got = reconstruct(y, sys_, _FixedEstimate(narrow), proc, sched, cfg).image
        wide = reconstruct(y, sys_, _FixedEstimate(narrow.astype(np.complex128)), proc, sched, cfg).image
        assert got.dtype == np.complex128
        assert np.array_equal(got, wide)
        with pytest.raises(ValueError, match="must be 2D"):
            reconstruct(y, sys_, _FixedEstimate(narrow[None]), proc, sched, cfg)

    def test_oracle_round_trip_both_modes(self):
        # measured on the components the process keeps, the driver starts at C_{T_f} x0
        _, proc, traj, x0 = _matched_setup(seed=9)
        sys_ = unit_system(traj.keep_mask(proc.t_f))
        y = forward(sys_, x0)
        assert np.array_equal(adjoint(sys_, y), corrupt(x0, traj, proc.t_f))
        oracle = OracleRecovery(x0)
        sched = constant_schedule(proc.t_f, 0.5)
        for correction in ("none", "learned"):
            for dc in (False, True):
                cfg = SamplerConfig(
                    t_f=proc.t_f, r_prime=2.0, r=2.0, correction=correction,
                    ct_mode="fixed", dc_every_step=dc, seed=0,
                )
                res = reconstruct(y, sys_, oracle, proc, sched, cfg)
                rel = np.linalg.norm(res.image - x0) / np.linalg.norm(x0)
                assert rel <= 1e-10
                assert res.t_r == proc.t_f

    def test_zero_fill_passthrough_pins_sampled_frequencies(self):
        grid, proc, _, x0 = _matched_setup(seed=10)
        mask = make_sampling_mask(grid, 4.0, "normal2d", calib=2, seed=11)
        sys_ = unit_system(mask)
        y = forward(sys_, x0)
        cfg = SamplerConfig(t_f=proc.t_f, r_prime=2.0, r=4.0, correction="learned", seed=12)
        res = reconstruct(y, sys_, ZeroFillRecovery(), proc, constant_schedule(proc.t_f, 0.9), cfg)
        spec = dft2(res.image)
        assert np.max(np.abs(spec[mask] - y.data[0][mask])) <= 1e-12 * np.linalg.norm(y.data)

    def test_every_iterate_pinned_with_dc(self):
        # manual loop mirroring the driver so each iterate can be inspected
        grid, proc, _, x0 = _matched_setup(seed=13)
        mask = make_sampling_mask(grid, 4.0, "normal2d", calib=2, seed=14)
        sys_ = unit_system(mask)
        y = forward(sys_, x0)
        traj = sample_trajectory(grid, proc, t_total=reconstruction_steps(proc.t_f, 4.0, 2.0))
        x = adjoint(sys_, y)
        op = ZeroFillRecovery()
        for t in range(traj.t_total, 0, -1):
            x = _centered_step(x, t, traj, op.recover(x, t), weight=0.3)
            x, _ = dc_projection(sys_, x, y)
            spec = dft2(x)
            assert np.max(np.abs(spec[mask] - y.data[0][mask])) <= 1e-12 * np.linalg.norm(y.data)

    def test_determinism(self):
        grid, proc, _, x0 = _matched_setup(seed=15)
        mask = make_sampling_mask(grid, 4.0, "normal2d", calib=2, seed=16)
        sys_ = unit_system(mask)
        y = forward(sys_, x0)
        cfg = SamplerConfig(t_f=proc.t_f, r_prime=2.0, r=4.0, correction="linear", seed=17)
        a = reconstruct(y, sys_, ZeroFillRecovery(), proc, None, cfg)
        b = reconstruct(y, sys_, ZeroFillRecovery(), proc, None, cfg)
        assert np.array_equal(a.image, b.image)
        np.testing.assert_array_equal(np.array(a.diagnostics), np.array(b.diagnostics))

    def test_diagnostics_rows(self):
        grid, proc, _, x0 = _matched_setup(seed=18)
        mask = make_sampling_mask(grid, 4.0, "normal2d", calib=2, seed=19)
        sys_ = unit_system(mask)
        y = forward(sys_, x0)
        cfg = SamplerConfig(t_f=proc.t_f, r_prime=2.0, r=4.0, correction="none", seed=20)
        res = reconstruct(y, sys_, ZeroFillRecovery(), proc, None, cfg, reference=x0)
        assert len(res.diagnostics) == res.t_r
        ts = [row[0] for row in res.diagnostics]
        assert ts == list(range(res.t_r, 0, -1))
        assert all(np.isfinite(row[1]) and np.isfinite(row[2]) for row in res.diagnostics)

    def test_single_coil_residual_is_taken_before_dc(self):
        # a single-coil iterate fits its data exactly after DC, so only the pre-DC residual is informative
        grid, proc, _, x0 = _matched_setup(seed=27)
        mask = make_sampling_mask(grid, 4.0, "normal2d", calib=2, seed=28)
        sys_ = unit_system(mask)
        y = forward(sys_, x0)
        t_r = reconstruction_steps(proc.t_f, 4.0, 2.0)
        traj = sample_trajectory(grid, proc, t_total=t_r)
        cfg = SamplerConfig(t_f=proc.t_f, r_prime=2.0, r=4.0, correction="none", ct_mode="fixed", seed=29)
        res = reconstruct(y, sys_, ZeroFillRecovery(), proc, None, cfg)
        x_start = adjoint(sys_, y)
        first_update = _centered_step(x_start, t_r, traj, ZeroFillRecovery().recover(x_start, t_r))
        assert res.diagnostics[0][1] == pytest.approx(residual_norm(sys_, first_update, y), rel=1e-12)
        assert max(row[1] for row in res.diagnostics) > 1e-12
        ddpm = ddpm_reconstruct(y, sys_, ZeroFillRecovery(), ddpm_schedule(30), seed=30)
        assert max(row[1] for row in ddpm.diagnostics) > 1e-12

    @pytest.mark.parametrize("field,t_f,r_prime", [("T_f", 16, 2.0), ("R_prime", 8, 4.0)])
    def test_sampler_must_match_its_process(self, field, t_f, r_prime):
        # the process has T_f = 8 and R' = 2; a mismatch stops before the first reverse step
        grid, proc, _, x0 = _matched_setup(seed=21)
        mask = make_sampling_mask(grid, 4.0, "normal2d", calib=2, seed=22)
        sys_ = unit_system(mask)
        y = forward(sys_, x0)
        cfg = SamplerConfig(t_f=t_f, r_prime=r_prime, r=4.0, correction="none", seed=23)
        with pytest.raises(ConfigError, match=f"sampler {field}="):
            reconstruct(y, sys_, _NeverCalled(), proc, None, cfg)

    def test_fixed_mode_draws_the_process_trajectory(self):
        # "fixed" walks the process's own T_r-step trajectory whatever cfg.seed is
        grid, proc, _, x0 = _matched_setup(seed=31)
        mask = make_sampling_mask(grid, 4.0, "normal2d", calib=2, seed=32)
        sys_ = unit_system(mask)
        y = forward(sys_, x0)
        runs = {}
        for mode in ("fixed", "independent"):
            for seed in (33, 34):
                cfg = SamplerConfig(t_f=proc.t_f, r_prime=2.0, r=4.0, correction="linear", ct_mode=mode,
                                    seed=seed)
                runs[mode, seed] = reconstruct(y, sys_, ZeroFillRecovery(), proc, None, cfg)
        # the driver's loop written out over the stored trajectory
        t_r = reconstruction_steps(proc.t_f, 4.0, 2.0)
        stored = sample_trajectory(grid, proc, t_total=t_r)
        weights = resample_weights(linear_weights(proc.t_f), t_r)
        x = adjoint(sys_, y)
        for t in range(t_r, 0, -1):
            x = _centered_step(x, t, stored, ZeroFillRecovery().recover(x, t), weight=float(weights[t - 1]))
            x, _ = dc_projection(sys_, x, y)
        for seed in (33, 34):
            assert np.array_equal(runs["fixed", seed].image, x)
        assert not np.array_equal(runs["independent", 33].image, runs["independent", 34].image)

    def test_result_counts_the_relaxed_steps(self, monkeypatch):
        grid, proc, _, x0 = _matched_setup(seed=35)
        sys_ = unit_system(make_sampling_mask(grid, 4.0, "normal2d", calib=2, seed=36))
        y = forward(sys_, x0)
        cfg = SamplerConfig(t_f=proc.t_f, r_prime=2.0, r=4.0, correction="none", seed=37)
        assert reconstruct(y, sys_, ZeroFillRecovery(), proc, None, cfg).relaxed_steps == 0
        # a threshold above every radius relaxes each of the T_r steps
        monkeypatch.setattr(degradation, "radius_threshold", lambda t, t_f, r_prime, r_anchor: np.full(np.shape(t), 1e9))
        result = reconstruct(y, sys_, ZeroFillRecovery(), proc, None, cfg)
        assert result.relaxed_steps == result.t_r == 12

    def test_learned_correction_requires_schedule(self):
        grid, proc, _, x0 = _matched_setup(seed=24)
        mask = make_sampling_mask(grid, 4.0, "normal2d", calib=2, seed=25)
        sys_ = unit_system(mask)
        y = forward(sys_, x0)
        cfg = SamplerConfig(t_f=proc.t_f, r_prime=2.0, r=4.0, correction="learned", seed=26)
        with pytest.raises(ConfigError):
            reconstruct(y, sys_, ZeroFillRecovery(), proc, None, cfg)


def _oracle_case(shape, coils, seed):
    """A noisy multi-coil measurement of a phantom, with an untrained regressor as the operator."""
    grid = radius_map(*shape)
    mask = make_sampling_mask(grid, 4.0, "normal2d", seed=seed)
    system = ImagingSystem(mask=mask, coil_maps=synth_coil_maps(grid, coils, seed=seed + 1), grid=grid)
    side = max(32, *shape)  # a phantom is at least 32 wide, so an odd 33 x 31 case is cropped from one
    reference = make_phantom(PhantomSpec(side, side, seed=seed + 2))[: shape[0], : shape[1]]
    y = forward(system, reference, noise_sigma=0.05, seed=seed + 3)
    return system, y, reference


def _held(system) -> dict:
    return {name: (value, value.tobytes()) for name, value in vars(system).items() if isinstance(value, np.ndarray)}


def _assert_same_run(result, image, diagnostics):
    assert result.image.tobytes() == image.tobytes()
    assert [row[0] for row in result.diagnostics] == [row[0] for row in diagnostics]
    assert [row[2] for row in result.diagnostics] == [row[2] for row in diagnostics]
    # the residual norms sum in FFT-native order, so only their rounding may differ
    assert [row[1] for row in result.diagnostics] == pytest.approx([row[1] for row in diagnostics], rel=1e-12)


@pytest.mark.skipif(parallel.blas_thread_calls() is None, reason="needs a settable OpenBLAS thread count")
def test_residuals_do_not_follow_the_blas_thread_count():
    # OpenBLAS splits a long dot product across its threads; at 4 coils of 64^2 the residual is long enough
    system, y, reference = _oracle_case((64, 64), 4, seed=52)
    proc = ProcessConfig(r_prime=2.0, t_f=8, seed=53)
    cfg = SamplerConfig(t_f=8, r_prime=2.0, r=4.0, correction="none", seed=54)
    get, put = parallel.blas_thread_calls()
    before = get()
    residuals = []
    try:
        for threads in (1, 2):
            put(threads)
            result = reconstruct(y, system, TinyRegressor(t_f=8, seed=55), proc, None, cfg, reference=reference)
            residuals.append([row[1] for row in result.diagnostics])
    finally:
        put(before)
    assert residuals[0] == residuals[1]


class TestNativeLoopMatchesCenteredLoop:
    """The FFT-native loop gives the centered loop's images and PSNRs bit for bit (tests/loop_oracle.py)."""

    @pytest.mark.parametrize("shape", [(64, 64), (33, 31)])
    @pytest.mark.parametrize("coils", [1, 4])
    @pytest.mark.parametrize("correction", ["learned", "linear", "none"])
    @pytest.mark.parametrize("dc", [True, False])
    def test_reconstruct(self, shape, coils, correction, dc):
        system, y, reference = _oracle_case(shape, coils, seed=40 + coils)
        proc = ProcessConfig(r_prime=2.0, t_f=8, seed=45)
        cfg = SamplerConfig(t_f=8, r_prime=2.0, r=4.0, correction=correction, ct_mode="fixed",
                            dc_every_step=dc, seed=46)
        sched = CorrectionSchedule(weights=[1.0, 0.9, 0.7, 0.6, 0.4, 0.3, 0.3, 0.1], provenance="constant")
        model = TinyRegressor(t_f=8, seed=47)
        held = _held(system)
        result = reconstruct(y, system, model, proc, sched, cfg, reference=reference)
        _assert_same_run(result, *reference_reconstruct(y, system, model, proc, sched, cfg, reference=reference))
        assert result.t_r == 12
        assert _held(system).keys() == held.keys()
        for name, (array, data) in held.items():
            assert getattr(system, name) is array and array.tobytes() == data

    def test_ddpm_reconstruct(self):
        system, y, reference = _oracle_case((33, 31), 2, seed=48)
        model = TinyRegressor(t_f=30, seed=49)
        result = ddpm_reconstruct(y, system, model, ddpm_schedule(30), seed=50, reference=reference)
        _assert_same_run(result, *reference_ddpm_reconstruct(y, system, model, ddpm_schedule(30), seed=50,
                                                             reference=reference))


class _Float64Recover:
    """Tests-only operator: the model's pass body in float64, the estimate ``recover`` computes in float32."""

    def __init__(self, model):
        self.model = model

    def recover(self, x, t):
        return float64_forward(self.model, x, t)[0]


class TestFloat32Recover:
    """TinyRegressor.recover runs in float32; reconstruct drifts from the float64 pass by float32 rounding only."""

    # largest drift measured over these four cases: image 2.4e-7 relative, PSNR 1.1e-7 dB
    IMAGE_RTOL = 1e-6
    PSNR_ATOL_DB = 1e-6

    @staticmethod
    def _case(coils, correction):
        system, y, reference = _oracle_case((64, 64), coils, seed=60 + coils)
        proc = ProcessConfig(r_prime=2.0, t_f=8, seed=65)
        cfg = SamplerConfig(t_f=8, r_prime=2.0, r=4.0, correction=correction, seed=66)
        sched = CorrectionSchedule(weights=[1.0, 0.9, 0.7, 0.6, 0.4, 0.3, 0.3, 0.1], provenance="constant")
        return (y, system), (proc, sched, cfg), reference

    @pytest.mark.parametrize("coils", [1, 4])
    @pytest.mark.parametrize("correction", ["learned", "linear"])
    def test_reconstruct_drift_from_float64(self, coils, correction):
        data, setup, reference = self._case(coils, correction)
        model = TinyRegressor(t_f=8, seed=67)
        got = reconstruct(*data, model, *setup, reference=reference).image
        wide = reconstruct(*data, _Float64Recover(model), *setup, reference=reference).image
        assert np.max(np.abs(got - wide)) <= self.IMAGE_RTOL * np.max(np.abs(wide))
        assert abs(psnr(reference, got) - psnr(reference, wide)) <= self.PSNR_ATOL_DB

    @staticmethod
    def _overflowing(t_f: int) -> TinyRegressor:
        model = TinyRegressor(t_f=t_f, seed=67)
        for name in ("conv1_w", "conv2_w", "conv3_w"):  # a gain of 1e45 overflows float32, not float64
            model.params[name] *= 1e15
        return model

    def test_float32_overflow_fails_the_step(self):
        """Float32 overflow in the reverse loop fails as a SamplingError, not as a RuntimeWarning (an error here)."""
        data, setup, reference = self._case(1, "learned")
        model = self._overflowing(8)
        assert np.all(np.isfinite(_Float64Recover(model).recover(reference, 12)))
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(model.recover(reference, 12)))
        with pytest.raises(SamplingError, match="non-finite estimate at step 12$"):
            reconstruct(*data, model, *setup, reference=reference)
        # the DDPM baseline runs the same loop, so its first step fails the same way, on a model of its horizon
        ddpm_model = self._overflowing(30)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(ddpm_model.recover(reference, 30)))
        with pytest.raises(SamplingError, match="non-finite estimate at step 30$"):
            ddpm_reconstruct(*data, ddpm_model, ddpm_schedule(30), seed=68, reference=reference)

    def test_operator_of_another_horizon_is_a_config_error(self):
        data, setup, reference = self._case(1, "learned")
        with pytest.raises(ConfigError, match="trained with T_f=16, but this run queries it on 8 steps"):
            reconstruct(*data, TinyRegressor(t_f=16, seed=67), *setup, reference=reference)
        with pytest.raises(ConfigError, match="trained with T_f=8, but this run queries it on 30 steps"):
            ddpm_reconstruct(*data, TinyRegressor(t_f=8, seed=67), ddpm_schedule(30), seed=68, reference=reference)
        # reference operators state no horizon and run on any
        assert reconstruct(*data, ZeroFillRecovery(), *setup, reference=reference).t_r == 12


class TestDdpmSchedule:
    def test_quoted_endpoints(self):
        sched = ddpm_schedule(1000)
        assert sched.beta[0] == pytest.approx(1e-4, rel=1e-12)
        assert sched.beta[-1] == pytest.approx(0.02, rel=1e-12)

    def test_gamma_bar_final_value_pinned(self):
        # computed once from the geometric schedule and frozen
        sched = ddpm_schedule(1000)
        assert sched.gamma_bar[-1] == pytest.approx(0.022792177278457577, rel=1e-12)

    def test_gamma_bar_strictly_decreasing(self):
        sched = ddpm_schedule(200)
        assert np.all(np.diff(sched.gamma_bar) < 0)

    def test_beta_at_or_above_one_rejected(self):
        with pytest.raises(ConfigError, match="beta_max"):
            ddpm_schedule(20)  # beta_T = 20/20 = 1
        assert ddpm_schedule(21).beta[-1] < 1.0  # T > beta_max = 20 suffices
        ddpm_schedule(25)

    def test_direct_beta_of_one_rejected(self):
        with pytest.raises(ScheduleError):
            DdpmSchedule(beta=[0.5, 1.0])


class TestDdpmForwardSample:
    """``DdpmSchedule.draw``, training's closed-form forward sample."""

    def test_tiny_t_close_to_x0(self):
        x0 = make_phantom(PhantomSpec(32, 32, seed=30))
        sched = ddpm_schedule(5000)
        out, traj = sched.draw(x0, radius_map(32, 32), 1, 0)
        assert traj is None
        assert np.linalg.norm(out - x0) / np.linalg.norm(x0) < 0.02

    def test_two_step_composition_matches_closed_form_moments(self):
        # draw x_t by composing single steps t-1 -> t and compare moments
        sched = ddpm_schedule(50)
        t = 20
        x0 = np.full((8, 8), 0.5 + 0.25j)
        rng = np.random.default_rng(42)
        n_draws = 10_000

        def single_step(x_prev, beta):
            z = rng.standard_normal(x_prev.shape) + 1j * rng.standard_normal(x_prev.shape)
            return np.sqrt(1 - beta) * x_prev + np.sqrt(beta) * z

        composed = np.empty((n_draws, 8, 8), dtype=complex)
        gb_prev = sched.gamma_bar[t - 2]
        for i in range(n_draws):
            z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            x_prev = np.sqrt(gb_prev) * x0 + np.sqrt(1 - gb_prev) * z
            composed[i] = single_step(x_prev, sched.beta[t - 1])

        gb_t = sched.gamma_bar[t - 1]
        mean_expected = np.sqrt(gb_t) * x0[0, 0]
        var_expected = 1 - gb_t  # per real component
        mean_got = composed.mean()
        var_got = 0.5 * (composed.real.var() + composed.imag.var())
        assert abs(mean_got - mean_expected) <= 0.02 * abs(mean_expected) + 0.01
        assert abs(var_got - var_expected) <= 0.02 * var_expected

    def test_pure_noise_variance(self):
        sched = ddpm_schedule(100)
        t = 60
        draws = [sched.draw(np.zeros((16, 16), complex), radius_map(16, 16), t, s)[0] for s in range(40)]
        stack = np.stack(draws)
        var = 0.5 * (stack.real.var() + stack.imag.var())
        expected = 1 - sched.gamma_bar[t - 1]
        assert abs(var - expected) <= 0.05 * expected

    def test_out_of_range_t(self):
        sched = ddpm_schedule(30)
        for t in (0, 31):
            with pytest.raises(ValueError):
                sched.draw(np.zeros((8, 8), complex), radius_map(8, 8), t, 0)


class TestDdpmReconstruct:
    def test_oracle_full_mask_is_exact_enough(self):
        x0 = make_phantom(PhantomSpec(32, 32, seed=31))
        sys_ = unit_system(np.ones((32, 32), dtype=bool))
        y = forward(sys_, x0)
        res = ddpm_reconstruct(y, sys_, OracleRecovery(x0), ddpm_schedule(50), seed=32)
        assert psnr(x0, res.image) >= 40.0

    def test_reverse_coefficients_sum_to_one_as_beta_vanishes(self):
        sched = DdpmSchedule(beta=np.array([1e-9, 1e-9, 1e-9]))
        t = 3
        beta = sched.beta[t - 1]
        gb_t = sched.gamma_bar[t - 1]
        gb_prev = sched.gamma_bar_prev(t)
        coef_x = np.sqrt(1 - beta) * (1 - gb_prev) / (1 - gb_t)
        coef_est = beta * np.sqrt(gb_prev) / (1 - gb_t)
        assert coef_x + coef_est == pytest.approx(1.0, abs=1e-7)

    def test_fixed_seed_bit_identical(self):
        x0 = make_phantom(PhantomSpec(32, 32, seed=33))
        mask = make_sampling_mask(radius_map(32, 32), 4.0, "normal2d", calib=2, seed=34)
        sys_ = unit_system(mask)
        y = forward(sys_, x0)
        a = ddpm_reconstruct(y, sys_, ZeroFillRecovery(), ddpm_schedule(40), seed=35)
        b = ddpm_reconstruct(y, sys_, ZeroFillRecovery(), ddpm_schedule(40), seed=35)
        assert np.array_equal(a.image, b.image)
