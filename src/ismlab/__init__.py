"""Score distillation laboratory over closed-form Gaussian-mixture oracles."""

from .distill import (
    AdamOptimizer,
    DistillConfig,
    OptimConfig,
    RunLog,
    nearest_mode_distance,
    run_distillation,
)
from .errors import ConfigError, NumericalError
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
    interval_pieces,
    ism_gradient,
    naive_gradient,
    sds_gradient,
)
from .oracle import SIGMA_MIN, GuidanceSpec, MixtureOracle
from .schedule import NoiseSchedule, make_schedule
from .trajectory import Trajectory, hop

__version__ = "0.1.0"
