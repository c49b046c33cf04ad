"""Exception types shared across the package.

ConfigError maps to CLI exit code 1; everything else that escapes a
subcommand maps to exit code 2.
"""


class ConfigError(ValueError):
    """Invalid user-facing configuration (bad parameter ranges, unknown keys)."""


class TrajectoryError(RuntimeError):
    """The frequency-removal process cannot be realized as requested."""


class ScheduleError(RuntimeError):
    """A correction or noise schedule is degenerate or inconsistent."""


class TrainingError(RuntimeError):
    """Optimization produced a non-finite loss (learning rate too high)."""


class SamplingError(RuntimeError):
    """Reverse sampling produced a non-finite iterate."""


class WorkerError(RuntimeError):
    """A forked worker died, or failed with an exception that cannot be sent back."""
