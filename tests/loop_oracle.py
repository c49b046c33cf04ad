"""The reverse loop in centered layout, kept as the reference for ``sampler.reconstruct``.

Every function here takes and returns centered arrays and shifts to
FFT-native layout around each transform, as the loop did before it ran
in native layout: A, A^H, the data-consistency update and the residual
norm each shift their coil stack in and out, and the reverse step shifts
its masks.  The package's native loop must give the same images bit for
bit, since a layout shift is an exact permutation; only the residual
norms may differ in rounding, because their sums run in another order.
"""

import math
from dataclasses import replace

import numpy as np

from fdbridge.degradation import sample_trajectory
from fdbridge.errors import SamplingError
from fdbridge.grid import as_image, dft2, idft2, to_centered, to_native
from fdbridge.imaging import Measurement
from fdbridge.metrics import psnr
from fdbridge.rng import child_seed, substream
from fdbridge.sampler import _complex_noise, _resolve_schedule, reconstruction_steps


def _data(y) -> np.ndarray:
    return y.data if isinstance(y, Measurement) else np.asarray(y, dtype=np.complex128)


def apply_forward(system, x):
    spec = dft2(to_native(system.coil_maps * as_image(x)), native=True)
    np.copyto(spec, 0.0, where=~to_native(system.mask))
    return to_centered(spec)


def adjoint(system, y):
    data = to_native(_data(y))
    np.copyto(data, 0.0, where=~to_native(system.mask))
    data = to_centered(idft2(data, native=True))
    np.multiply(np.conj(system.coil_maps), data, out=data)
    out = np.zeros(system.grid.shape, dtype=np.complex128)
    for image in data:
        out += image
    return out


def dc_projection(system, x, y):
    x = as_image(x)
    residual = _data(y) - apply_forward(system, x)
    return x + adjoint(system, residual), float(np.linalg.norm(residual))


def residual_norm(system, x, y):
    return float(np.linalg.norm(apply_forward(system, x) - _data(y)))


def reverse_step(x_t, t, traj, x0_est, weight=0.0):
    x_t = as_image(x_t)
    x0_est = as_image(x0_est)
    both = weight != 0.0
    spec = dft2(to_native(np.stack([x0_est, x_t]) if both else x0_est), native=True)
    est_spec = spec[0] if both else spec
    update = np.where(to_native(traj.removed_mask(t)), est_spec, 0.0)
    if both:
        update = update + weight * np.where(to_native(traj.keep_mask(t)), est_spec - spec[1], 0.0)
    return x_t + to_centered(idft2(update, native=True))


def _finish_step(x, t, system, y, dc, reference, diagnostics):
    if dc:
        x, res = dc_projection(system, x, y)
    else:
        res = residual_norm(system, x, y)
    if not np.all(np.isfinite(x)):
        raise SamplingError(f"non-finite iterate at step {t}")
    quality = psnr(reference, x) if reference is not None else float("nan")
    diagnostics.append((t, res, quality))
    return x


def reference_reconstruct(y, system, operator, process, schedule, cfg, reference=None):
    """``sampler.reconstruct``'s loop in centered layout: (image, diagnostics rows)."""
    t_r = reconstruction_steps(cfg.t_f, cfg.r, cfg.r_prime)
    weights = _resolve_schedule(cfg, schedule, t_r)
    x = adjoint(system, y)
    traj_seed = process.seed if cfg.ct_mode == "fixed" else child_seed(cfg.seed, "test-trajectory")
    traj = sample_trajectory(system.grid, replace(process, seed=traj_seed), t_total=t_r)
    diagnostics = []
    for t in range(t_r, 0, -1):
        x0_est = operator.recover(x, t)
        x = reverse_step(x, t, traj, x0_est, weight=float(weights[t - 1]))
        x = _finish_step(x, t, system, y, cfg.dc_every_step, reference, diagnostics)
    return x, diagnostics


def reference_ddpm_reconstruct(y, system, operator, schedule, seed=0, reference=None):
    """``sampler.ddpm_reconstruct``'s loop in centered layout: (image, diagnostics rows)."""
    x = _complex_noise(system.grid.shape, substream(seed, "ddpm-init"))
    diagnostics = []
    for t in range(schedule.t_f, 0, -1):
        x0_est = operator.recover(x, t)
        beta = float(schedule.beta[t - 1])
        gamma = float(schedule.gamma[t - 1])
        gb_t = float(schedule.gamma_bar[t - 1])
        gb_prev = schedule.gamma_bar_prev(t)
        coef_x = math.sqrt(gamma) * (1.0 - gb_prev) / (1.0 - gb_t)
        coef_est = beta * math.sqrt(gb_prev) / (1.0 - gb_t)
        noise_sd = math.sqrt((1.0 - gb_prev) / (1.0 - gb_t) * beta)
        z = _complex_noise(x.shape, substream(seed, "ddpm-reverse", t)) if t > 1 else 0.0
        x = coef_x * x + coef_est * x0_est + noise_sd * z
        x = _finish_step(x, t, system, y, True, reference, diagnostics)
    return x, diagnostics
