"""Fourier-constrained diffusion-bridge reconstruction toolkit."""

from .correction import (
    CorrectionSchedule,
    estimate_weights,
    linear_weights,
    resample_weights,
)
from .degradation import (
    AveragingProcess,
    DegradationTrajectory,
    ProcessConfig,
    corrupt,
    per_step_count,
    radius_threshold,
    sample_trajectory,
    step_counts,
)
from .errors import (
    ConfigError,
    SamplingError,
    ScheduleError,
    TrainingError,
    TrajectoryError,
)
from .grid import KSpaceGrid, as_image, dft2, idft2, radius_map
from .imaging import (
    ImagingSystem,
    Measurement,
    adjoint,
    dc_projection,
    forward,
    make_sampling_mask,
    synth_coil_maps,
)
from .metrics import psnr, ssim
from .phantoms import PhantomSpec, generate_dataset, make_phantom
from .recovery import (
    OracleRecovery,
    TinyRegressor,
    TrainConfig,
    ZeroFillRecovery,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .sampler import (
    DdpmSchedule,
    ReconstructionResult,
    SamplerConfig,
    ddpm_reconstruct,
    ddpm_schedule,
    reconstruct,
    reconstruction_steps,
    reverse_step,
)

__version__ = "0.1.0"
