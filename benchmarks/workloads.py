"""The benchmark's workloads, each driving the public ``fdbridge`` API.

A workload builds its inputs from the run seed in ``setup`` and then
runs operations ``op(0), op(1), ...`` back to back in one process.  Each
operation uses its own derived seeds, so no two operations of a run
repeat the same computation.  ``check`` raises ``CheckFailed`` when an
output breaks an invariant; ``digest`` gives the bytes fingerprinted for
drift detection (recorded, not gated).  ``reference`` is the
workload's fixed kernel from ``refkernels``, timed after each operation.

Constructor defaults are the benchmark sizes; the benchmark's tests pass
tiny ones.
"""

from __future__ import annotations

import hashlib

import numpy as np

import fdbridge as fb
import refkernels
from fdbridge.imaging import make_sampling_mask, synth_coil_maps
from fdbridge.rng import child_seed

R_PRIME = 2.0
R = 4.0  # recon64's acceleration
LEARNING_RATE = 0.01
BATCH = 10


class CheckFailed(Exception):
    """An operation's output broke one of the workload's invariants."""


def _phantoms(seed: int, group: str, count: int, size: int) -> list[np.ndarray]:
    return [fb.make_phantom(fb.PhantomSpec(size, size, seed=child_seed(seed, group, i))) for i in range(count)]


def _train(images, process, t_f: int, epochs: int, seed: int, k: int):
    """One training run on the train64 recipe (criterion 7's lr, batch and loss)."""
    model = fb.TinyRegressor(t_f=t_f, seed=child_seed(seed, "model-init", k))
    cfg = fb.TrainConfig(
        learning_rate=LEARNING_RATE, epochs=epochs, batch=BATCH, loss_mode="upper_bound",
        seed=child_seed(seed, "train", k),
    )
    return fb.train(model, images, process, cfg)


def _check_training(model, trace) -> None:
    if not all(np.isfinite(trace)):
        raise CheckFailed(f"non-finite training loss: {trace}")
    if not trace[-1] < trace[0]:
        raise CheckFailed(f"last epoch loss {trace[-1]:.6g} not below first {trace[0]:.6g}")
    if not np.all(np.isfinite(model.flat_params())):
        raise CheckFailed("non-finite model parameters")


def _check_schedule(schedule) -> None:
    w = schedule.weights
    if abs(w[0] - 1.0) > 1e-6:
        raise CheckFailed(f"w_1 = {w[0]!r}, expected 1")
    if np.any(w < 0.0) or np.any(w > 1.0):
        raise CheckFailed("a weight lies outside [0, 1]")
    if np.any(np.diff(schedule.energy_fraction) > 0.0):
        raise CheckFailed("energy_fraction increases")


class Train64:
    """``fb.train`` on t1_like phantoms, as ``fdb train`` runs it."""

    name = "train64"
    item = "training samples"
    reference = staticmethod(refkernels.train_kernel)

    def __init__(self, seed: int, size: int = 64, count: int = 20, t_f: int = 64, epochs: int = 4):
        self.seed, self.size, self.count, self.t_f, self.epochs = seed, size, count, t_f, epochs
        self.items_per_op = count * epochs
        self.fingerprint_ops = 2

    def setup(self) -> None:
        self.images = _phantoms(self.seed, "train-image", self.count, self.size)
        self.process = fb.ProcessConfig(r_prime=R_PRIME, t_f=self.t_f, seed=child_seed(self.seed, "process"))

    def op(self, k: int):
        return _train(self.images, self.process, self.t_f, self.epochs, self.seed, k)

    def check(self, out) -> None:
        _check_training(*out)

    def digest(self, out) -> bytes:
        return out[0].flat_params().tobytes()

    def outputs(self) -> dict:
        return {}


class Recon64:
    """``fb.reconstruct`` of held-out phantoms, as ``fdb reconstruct`` runs it.

    Set-up trains a model on the train64 recipe and estimates the
    learned schedule by Monte-Carlo; both count as set-up time.
    """

    name = "recon64"
    item = "reconstructions"
    reference = staticmethod(refkernels.recon_kernel)

    def __init__(
        self, seed: int, size: int = 64, t_f: int = 64, train_count: int = 20, train_epochs: int = 4,
        mc_draws: int = 100, cases: int = 16, coils: int = 4,
    ):
        self.seed, self.size, self.t_f = seed, size, t_f
        self.train_count, self.train_epochs, self.mc_draws = train_count, train_epochs, mc_draws
        self.n_cases, self.coils = cases, coils
        self.items_per_op = 1
        self.fingerprint_ops = 4
        self.psnr: dict[int, float] = {}

    def setup(self) -> None:
        images = _phantoms(self.seed, "train-image", self.train_count, self.size)
        self.process = fb.ProcessConfig(r_prime=R_PRIME, t_f=self.t_f, seed=child_seed(self.seed, "process"))
        self.model, trace = _train(images, self.process, self.t_f, self.train_epochs, self.seed, 0)
        _check_training(self.model, trace)
        self.schedule = fb.estimate_weights(images, self.process, self.mc_draws, seed=child_seed(self.seed, "mc"))
        _check_schedule(self.schedule)
        grid = fb.radius_map(self.size, self.size)
        self.cases = []
        for i, reference in enumerate(_phantoms(self.seed, "eval-image", self.n_cases, self.size)):
            mask = make_sampling_mask(grid, R, "normal2d", seed=child_seed(self.seed, "mask", i))
            maps = synth_coil_maps(grid, self.coils, seed=child_seed(self.seed, "coils", i))
            system = fb.ImagingSystem(mask=mask, coil_maps=maps, grid=grid)
            self.cases.append((reference, system, fb.forward(system, reference, acceleration=R)))

    def op(self, k: int):
        reference, system, y = self.cases[k % len(self.cases)]
        cfg = fb.SamplerConfig(
            t_f=self.t_f, r_prime=R_PRIME, r=R, correction="learned", ct_mode="independent",
            dc_every_step=True, seed=child_seed(self.seed, "sampling", k),
        )
        return k, fb.reconstruct(y, system, self.model, self.process, self.schedule, cfg, reference=reference)

    def check(self, out) -> None:
        k, result = out
        reference = self.cases[k % len(self.cases)][0]
        if result.image.shape != reference.shape:
            raise CheckFailed(f"reconstruction shape {result.image.shape} != {reference.shape}")
        if not np.all(np.isfinite(result.image)):
            raise CheckFailed("non-finite reconstruction")
        if k < self.fingerprint_ops:
            self.psnr[k] = result.diagnostics[-1][2]  # PSNR of the final iterate

    def digest(self, out) -> bytes:
        return out[1].image.tobytes()

    def outputs(self) -> dict:
        return {
            "params_sha256": _sha256(self.model.flat_params().tobytes()),
            "schedule_sha256": _sha256(self.schedule.weights.tobytes()),
            "psnr_db": float(np.mean(list(self.psnr.values()))) if self.psnr else None,
        }


class Forward256:
    """``fb.sample_trajectory`` and ``fb.corrupt`` at paper scale, as ``fdb forward`` runs them.

    Each operation draws a fresh 1000-step trajectory on a 256^2 grid and
    corrupts one phantom at the quartile steps (file export left out).
    """

    name = "forward256"
    item = "trajectories"
    reference = staticmethod(refkernels.trajectory_kernel)

    def __init__(self, seed: int, size: int = 256, count: int = 4, t_f: int = 1000):
        self.seed, self.size, self.count, self.t_f = seed, size, count, t_f
        self.items_per_op = 1
        self.fingerprint_ops = 2
        self.steps = sorted({0, t_f // 4, t_f // 2, (3 * t_f) // 4, t_f})

    def setup(self) -> None:
        self.images = _phantoms(self.seed, "forward-image", self.count, self.size)
        self.grid = fb.radius_map(self.size, self.size)

    def op(self, k: int):
        process = fb.ProcessConfig(r_prime=R_PRIME, t_f=self.t_f, seed=child_seed(self.seed, "trajectory", k))
        traj = fb.sample_trajectory(self.grid, process)
        x0 = self.images[k % len(self.images)]
        return traj, [fb.corrupt(x0, traj, t) for t in self.steps]

    def check(self, out) -> None:
        traj, snapshots = out
        kept = traj.keep_count(self.t_f) / self.grid.n_components
        if abs(kept - 1.0 / R_PRIME) > traj.n / self.grid.n_components:
            raise CheckFailed(f"kept fraction {kept:.6f} at T_f, expected 1/R' = {1.0 / R_PRIME}")
        if any(x.shape != self.grid.shape or not np.all(np.isfinite(x)) for x in snapshots):
            raise CheckFailed("corrupted image has the wrong shape or non-finite values")
        # Not np.vdot: a threaded BLAS call here would slow the reference kernel timed next.
        energy = [float(np.sum(x.real**2 + x.imag**2)) for x in snapshots]
        if any(b > a * (1.0 + 1e-9) for a, b in zip(energy, energy[1:])):
            raise CheckFailed(f"image energy grows along the trajectory: {energy}")

    def digest(self, out) -> bytes:
        return b"".join(x.tobytes() for x in out[1])

    def outputs(self) -> dict:
        return {}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


WORKLOADS = {w.name: w for w in (Train64, Recon64, Forward256)}
