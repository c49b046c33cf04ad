"""Reverse-diffusion sampling and the reconstruction driver.

The standard reverse step imputes the frequency components removed at
forward step t from the operator's clean-image estimate; the corrected
step additionally blends previously recovered components between the
estimate and the current iterate with weight w_t (soft dealiasing); a
zero weight is the standard step.  The driver starts from the
least-squares reconstruction of a measurement, draws a T_r-step
trajectory from the bridge's process, runs T_r corrected steps
interleaved with data-consistency updates x + A^H (y - A x), and records
per-step diagnostics.  The update is a projection onto the measured data
only at one coil; at C > 1 it is one Landweber step, which leaves part of
the residual (12.8-16.3% at 2-8 coils, measured at 64² under an R = 4
normal2d mask).  The DDPM baseline ``ddpm_reconstruct`` starts from
noise and takes ancestral steps (``DdpmSchedule.reverse``) instead.

Both run one loop, ``_reverse_loop``, in FFT-native layout (``grid``).
They shift the system, the measurement, the start and (``reconstruct``,
through ``degradation.native_trajectory``) the trajectory once; the
steps and the data-consistency update then take native arrays.  Each
step shifts the iterate to centered layout, for the recovery operator
and the PSNR, and the operator's estimate back.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .correction import CorrectionSchedule, linear_weights, resample_weights
from .degradation import DegradationTrajectory, ProcessConfig, native_trajectory, sample_trajectory
from .errors import ConfigError, SamplingError, ScheduleError, TrajectoryError
from .grid import as_image, dft2, idft2, to_centered, to_native
from .imaging import (
    ImagingSystem,
    Measurement,
    native_adjoint,
    native_dc,
    native_measurement,
    native_residual,
    native_system,
)
from .metrics import psnr
from .rng import child_seed, substream

CORRECTIONS = ("learned", "linear", "none")
CT_MODES = ("independent", "fixed")


@dataclass(frozen=True)
class SamplerConfig:
    t_f: int
    r_prime: float
    r: float
    correction: str = "learned"
    ct_mode: str = "independent"
    dc_every_step: bool = True
    seed: int = 0

    def __post_init__(self):
        if not self.r > 1.0:
            raise ConfigError(f"R must be > 1, got {self.r}")
        if not self.r_prime > 1.0:
            raise ConfigError(f"R_prime must be > 1, got {self.r_prime}")
        if self.t_f < 1:
            raise ConfigError(f"T_f must be >= 1, got {self.t_f}")
        if self.correction not in CORRECTIONS:
            raise ConfigError(f"correction must be one of {CORRECTIONS}, got {self.correction!r}")
        if self.ct_mode not in CT_MODES:
            raise ConfigError(f"ct_mode must be one of {CT_MODES}, got {self.ct_mode!r}")


def reconstruction_steps(t_f: int, r: float, r_prime: float) -> int:
    """Number of reverse steps: floor(T_f * (R-1) * R' / ((R'-1) * R)).

    Scales the training horizon by the ratio of missing-frequency
    fractions at rates R and R', so total imputations match the R-fold
    missing count.
    """
    return math.floor(t_f * (r - 1.0) * r_prime / ((r_prime - 1.0) * r))


def reverse_step(
    x_t: np.ndarray,
    t: int,
    traj: DegradationTrajectory,
    x0_est: np.ndarray,
    weight: float = 0.0,
) -> np.ndarray:
    """One reverse step from t to t-1, in FFT-native layout.

    standard (weight 0): x_{t-1} = x_t + (C_{t-1} - C_t) x0_est;
    corrected adds weight * C_t (x0_est - x_t).  ``x_t``, ``x0_est``, the
    result and ``traj`` are in FFT-native layout, the trajectory as
    ``degradation.native_trajectory`` gives it, so its masks are read
    unshifted.  All operator applications go through DFT, mask, inverse
    DFT; the corrected step transforms x0_est and x_t in one stacked call.
    """
    if t < 1:
        raise ValueError(f"reverse step needs t >= 1, got {t}")
    if t > traj.t_total:
        raise TrajectoryError(f"step {t} exceeds trajectory length {traj.t_total}")
    x_t = as_image(x_t)
    x0_est = as_image(x0_est)
    both = weight != 0.0
    spec = dft2(np.stack([x0_est, x_t]) if both else x0_est, native=True)
    est_spec = spec[0] if both else spec
    update = np.where(traj.removed_mask(t), est_spec, 0.0)
    if both:
        update = update + weight * np.where(traj.keep_mask(t), est_spec - spec[1], 0.0)
    return x_t + idft2(update, native=True)


def _check_horizon(operator, horizon: int) -> None:
    """ConfigError when ``operator`` states a training horizon ``t_f`` other than the ``horizon`` it is queried on."""
    t_f = getattr(operator, "t_f", None)  # reference operators (oracle, zero-fill) have none
    if t_f is not None and t_f != horizon:
        raise ConfigError(f"the operator was trained with T_f={t_f}, but this run queries it on {horizon} steps")


def _resolve_schedule(cfg: SamplerConfig, schedule: CorrectionSchedule | None, t_r: int) -> np.ndarray:
    if cfg.correction == "none":
        return np.zeros(t_r)
    if cfg.correction == "linear":
        return resample_weights(linear_weights(cfg.t_f), t_r)
    if schedule is None:
        raise ConfigError("correction='learned' requires a CorrectionSchedule")
    if schedule.t_f != cfg.t_f:
        raise ScheduleError(f"schedule length {schedule.t_f} differs from T_f={cfg.t_f}")
    return resample_weights(schedule, t_r)


@dataclass
class ReconstructionResult:
    """The final image, one diagnostics row per reverse step, and the reverse trajectory's relaxed steps."""

    image: np.ndarray
    # rows (t, residual, psnr_db): residual is ||y - A x|| of the step's update before its DC
    # update (a projection at one coil, one Landweber step at more); psnr_db is that of the
    # step's final iterate
    diagnostics: list[tuple]
    # steps of the reverse trajectory whose threshold was relaxed; None without a trajectory (DDPM)
    relaxed_steps: int | None = None

    @property
    def t_r(self) -> int:
        """The number of reverse steps run: each writes one diagnostics row."""
        return len(self.diagnostics)


def reconstruct(
    y: Measurement,
    system: ImagingSystem,
    operator,
    process: ProcessConfig,
    schedule: CorrectionSchedule | None,
    cfg: SamplerConfig,
    reference: np.ndarray | None = None,
) -> ReconstructionResult:
    """Full reverse-sampling driver.

    Initializes at the least-squares reconstruction of ``y``, resamples
    the correction schedule, which must hold T_f weights, to T_r steps,
    and per step estimates the clean image, applies the corrected reverse
    step, then (optionally) the data-consistency update x + A^H (y - A x):
    a projection onto the measured data at one coil, one Landweber step at
    C > 1, which leaves part of the residual.  The trajectory of T_r steps is
    drawn from ``process``, whose T_f and R' must be the sampler's: ct_mode
    "fixed" draws the process's own trajectory, so every call with that
    process walks the same one; "independent" draws a fresh one from
    ``cfg.seed``.  The native forms of the system, ``y`` and the
    trajectory are locals of this call, so ``system`` is left as it was.
    A non-finite estimate or iterate raises SamplingError naming the step.
    An operator trained on another horizon than ``process.t_f`` is a
    ConfigError.
    """
    for name, ours, theirs in (("T_f", cfg.t_f, process.t_f), ("R_prime", cfg.r_prime, process.r_prime)):
        if ours != theirs:
            raise ConfigError(f"sampler {name}={ours} differs from its process's {name}={theirs}")
    t_r = reconstruction_steps(cfg.t_f, cfg.r, cfg.r_prime)
    if t_r < 1:
        raise ConfigError(f"T_r={t_r}; R={cfg.r} leaves nothing to reconstruct")
    _check_horizon(operator, process.t_f)
    weights = _resolve_schedule(cfg, schedule, t_r)

    native = native_system(system)
    y = native_measurement(system, y)
    x = native_adjoint(native, y.copy())  # the zero-filled start; the adjoint overwrites its data
    traj_seed = process.seed if cfg.ct_mode == "fixed" else child_seed(cfg.seed, "test-trajectory")
    traj = sample_trajectory(system.grid, replace(process, seed=traj_seed), t_total=t_r)
    traj_native = native_trajectory(traj)

    def step(x, t, x0_est):
        return reverse_step(x, t, traj_native, x0_est, weight=float(weights[t - 1]))

    image, diagnostics = _reverse_loop(x, t_r, operator, step, native, y, cfg.dc_every_step, reference)
    return ReconstructionResult(image=image, diagnostics=diagnostics, relaxed_steps=traj.relaxation_count)


def _reverse_loop(x, t_total: int, operator, step, native, y, dc: bool, reference) -> tuple[np.ndarray, list]:
    """Steps t_total..1 from the native ``x``: (final centered image, diagnostics rows).

    Step t recovers from the centered iterate, takes ``step(x, t, x0_est)``
    natively, then data consistency (or only its residual) against ``y``.
    """
    centered = to_centered(x)
    diagnostics: list[tuple] = []
    for t in range(t_total, 0, -1):
        x0_est = operator.recover(centered, t)
        if not np.all(np.isfinite(x0_est)):  # a network pass that overflowed; a step would raise ValueError
            raise SamplingError(f"non-finite estimate at step {t}")
        x = step(x, t, to_native(x0_est))
        if dc:
            x, res = native_dc(native, x, y)
        else:
            res = native_residual(native, x, y)
        if not np.all(np.isfinite(x)):
            raise SamplingError(f"non-finite iterate at step {t}")
        centered = to_centered(x)
        quality = psnr(reference, centered) if reference is not None else float("nan")
        diagnostics.append((t, res, quality))
    return centered, diagnostics


# ---------------------------------------------------------------------------
# DDPM baseline


@dataclass
class DdpmSchedule:
    """Noise schedule: beta_t in (0, 1), gamma = 1 - beta, gamma_bar running products; a training source."""

    beta: np.ndarray
    gamma: np.ndarray = field(init=False)
    gamma_bar: np.ndarray = field(init=False)
    kind = "ddpm"
    loss_masks = False

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=np.float64)
        if self.beta.ndim != 1 or self.beta.size == 0:
            raise ValueError(f"beta must be a non-empty 1-D array, got shape {self.beta.shape}")
        if np.any(self.beta <= 0) or np.any(self.beta >= 1):
            raise ScheduleError("all beta_t must lie in (0, 1)")
        self.gamma = 1.0 - self.beta
        self.gamma_bar = np.cumprod(self.gamma)
        if np.any(np.diff(self.gamma_bar) >= 0):
            raise ScheduleError("gamma_bar must be strictly decreasing")

    @property
    def t_f(self) -> int:
        """The horizon, under the name a ProcessConfig gives it: one beta per step."""
        return self.beta.size

    def gamma_bar_prev(self, t: int) -> float:
        return 1.0 if t == 1 else float(self.gamma_bar[t - 2])

    def draw(self, x0, grid, t: int, seed: int, *tags):
        """(x_t, None): sqrt(gamma_bar_t) x0 + sqrt(1 - gamma_bar_t) z, z from (seed, "train-noise", *tags)."""
        x0 = as_image(x0)
        if not 1 <= t <= self.t_f:
            raise ValueError(f"t must be in [1, {self.t_f}], got {t}")
        gb = float(self.gamma_bar[t - 1])
        z = _complex_noise(x0.shape, substream(child_seed(seed, "train-noise", *tags), "ddpm-forward", t))
        return math.sqrt(gb) * x0 + math.sqrt(1.0 - gb) * z, None

    def reverse(self, x: np.ndarray, t: int, x0_est: np.ndarray, seed: int) -> np.ndarray:
        """Ancestral step t -> t-1 in native layout; its noise is drawn centered from (seed, "ddpm-reverse", t)."""
        beta = float(self.beta[t - 1])
        gb_t = float(self.gamma_bar[t - 1])
        gb_prev = self.gamma_bar_prev(t)
        coef_x = math.sqrt(float(self.gamma[t - 1])) * (1.0 - gb_prev) / (1.0 - gb_t)
        coef_est = beta * math.sqrt(gb_prev) / (1.0 - gb_t)
        noise_sd = math.sqrt((1.0 - gb_prev) / (1.0 - gb_t) * beta)
        z = to_native(_complex_noise(x.shape, substream(seed, "ddpm-reverse", t))) if t > 1 else 0.0
        return coef_x * x + coef_est * x0_est + noise_sd * z


BETA_MIN = 0.1  # continuous noise rate at t = 0
BETA_MAX = 20.0  # continuous noise rate at t = T


def ddpm_schedule(t_steps: int) -> DdpmSchedule:
    """Geometric interpolation of the continuous noise rate, discretized by 1/T.

    beta_t = (BETA_MIN / T) * (BETA_MAX / BETA_MIN)^((t-1)/(T-1)); the
    endpoints are BETA_MIN/T and BETA_MAX/T.  All beta_t < 1 requires
    T > BETA_MAX.
    """
    if t_steps <= BETA_MAX:
        raise ConfigError(f"T must exceed beta_max={BETA_MAX} so that every beta_t < 1, got {t_steps}")
    expo = (np.arange(1, t_steps + 1, dtype=np.float64) - 1.0) / (t_steps - 1.0)
    return DdpmSchedule(beta=(BETA_MIN / t_steps) * (BETA_MAX / BETA_MIN) ** expo)


def _complex_noise(shape, rng) -> np.ndarray:
    # unit variance per real component
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def ddpm_reconstruct(
    y: Measurement,
    system: ImagingSystem,
    operator,
    schedule: DdpmSchedule,
    seed: int = 0,
    reference: np.ndarray | None = None,
) -> ReconstructionResult:
    """Noise-diffusion baseline: from noise, ancestral steps interleaved with data consistency.

    An operator trained on another horizon than ``schedule.t_f`` is a ConfigError.
    """
    _check_horizon(operator, schedule.t_f)
    native = native_system(system)
    y = native_measurement(system, y)
    x = to_native(_complex_noise(system.grid.shape, substream(seed, "ddpm-init")))
    step = functools.partial(schedule.reverse, seed=seed)
    image, diagnostics = _reverse_loop(x, schedule.t_f, operator, step, native, y, True, reference)
    return ReconstructionResult(image=image, diagnostics=diagnostics)
