"""Score distillation laboratory over closed-form Gaussian-mixture oracles."""

from .distill import (
    AdamOptimizer,
    DistillConfig,
    OptimConfig,
    RunLog,
    nearest_mode_distance,
    run_distillation,
)
from .errors import ConfigError, NumericalError, UnknownLabelError
from .generators import (
    IdentityLatent,
    SplatGenerator,
    View,
    ViewJitterSpec,
    canonical_view,
    sample_view,
)
from .objectives import (
    GradientReport,
    decomposition_check,
    ism_gradient,
    multistep_bias,
    naive_gradient,
    sds_gradient,
)
from .oracle import SIGMA_MIN, GuidanceSpec, MixtureOracle
from .schedule import NoiseSchedule, make_schedule
from .trajectory import Trajectory, add_noise, ddim_denoise, ddim_invert, pseudo_gt_single

__all__ = [
    "AdamOptimizer", "ConfigError", "DistillConfig", "GradientReport",
    "GuidanceSpec", "IdentityLatent", "MixtureOracle", "NoiseSchedule",
    "NumericalError", "OptimConfig", "RunLog", "SIGMA_MIN", "SplatGenerator",
    "Trajectory", "UnknownLabelError", "View", "ViewJitterSpec", "add_noise",
    "canonical_view", "ddim_denoise", "ddim_invert", "decomposition_check",
    "ism_gradient", "make_schedule", "multistep_bias", "naive_gradient",
    "nearest_mode_distance", "pseudo_gt_single", "run_distillation",
    "sample_view", "sds_gradient",
]

__version__ = "0.1.0"
