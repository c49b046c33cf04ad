"""Training's draw of x_t from each corruption source, written out once per source, kept as the reference for ``draw``.

``draw_corrupted`` is the one function that training drew with before
each source drew its own x_t: one branch per source, each building x_t
from the package's primitives (``sample_trajectory``, ``corrupt`` and the
seeded streams) with the averaging blend and the DDPM closed form
inlined.  Each source's ``draw`` must give its x_t, and the bridge its
trajectory, bit for bit.
"""

import math
from dataclasses import replace

from fdbridge.degradation import AveragingProcess, ProcessConfig, corrupt, sample_trajectory
from fdbridge.grid import as_image
from fdbridge.rng import child_seed, substream
from fdbridge.sampler import DdpmSchedule, _complex_noise


def step_draw(seed_tags, t_f):
    """The step t in 1..t_f that training draws for the sample ``seed_tags`` = (seed, epoch, step, i)."""
    return int(substream(seed_tags[0], "step-draw", *seed_tags[1:]).integers(1, t_f + 1))


def draw_corrupted(x0, grid, process, t, seed_tags):
    """(x_t, traj) of the sample ``seed_tags`` at step t; traj, x_t's removal trajectory, may be None."""
    x0 = as_image(x0)
    if isinstance(process, (ProcessConfig, AveragingProcess)):
        bridge = process.process if isinstance(process, AveragingProcess) else process
        traj_cfg = replace(bridge, seed=child_seed(seed_tags[0], "train-traj", *seed_tags[1:]))
        if isinstance(process, AveragingProcess):
            x_start = corrupt(x0, sample_trajectory(grid, traj_cfg, t_total=bridge.t_f), bridge.t_f)
            lam = t / bridge.t_f
            return (1.0 - lam) * x0 + lam * x_start, None
        traj = sample_trajectory(grid, traj_cfg, t_total=t)
        return corrupt(x0, traj, t), traj
    if isinstance(process, DdpmSchedule):
        noise_seed = child_seed(seed_tags[0], "train-noise", *seed_tags[1:])
        gb = float(process.gamma_bar[t - 1])
        z = _complex_noise(x0.shape, substream(noise_seed, "ddpm-forward", t))
        return math.sqrt(gb) * x0 + math.sqrt(1.0 - gb) * z, None
    raise TypeError(f"unsupported corruption source: {type(process).__name__}")
