"""Random infinite planar triangulations, one peeled triangle at a time."""

from .boltzmann import BoltzmannFiller
from .counting import count_decomposition, count_triangulations
from .errors import (
    BudgetExceededError,
    DomainError,
    InvariantViolationError,
    MisuseError,
    TableOverflowError,
    TripeelError,
)
from .experiments import (
    EXPERIMENTS,
    constants_report,
    growth_targets,
    report_from_csv,
    report_from_json,
    report_to_csv,
    report_to_json,
    run_experiment,
)
from .params import (
    KAPPA_MAX,
    PeelParams,
    alpha_from_kappa,
    build_params,
    kappa_from_alpha,
    mean_hole_volume,
    q_step,
    z_partition,
)
from .peeling import (
    HullRecord,
    LayerChain,
    LayerEngine,
    PeelEngine,
    PeelTrace,
    StepRecord,
    StepSampler,
    complete_ball,
    replay_trace,
    run_algorithm,
    run_layers,
)
from .planarmap import TriMap
from .rng import RngStream
from .walk import WalkTrace, run_walk_peeling, speed_estimate

__version__ = "0.1.0"

__all__ = [
    "EXPERIMENTS",
    "KAPPA_MAX",
    "BoltzmannFiller",
    "HullRecord",
    "LayerChain",
    "LayerEngine",
    "PeelEngine",
    "PeelParams",
    "PeelTrace",
    "RngStream",
    "StepRecord",
    "StepSampler",
    "TriMap",
    "WalkTrace",
    "alpha_from_kappa",
    "build_params",
    "complete_ball",
    "constants_report",
    "count_decomposition",
    "count_triangulations",
    "growth_targets",
    "kappa_from_alpha",
    "mean_hole_volume",
    "q_step",
    "replay_trace",
    "report_from_csv",
    "report_from_json",
    "report_to_csv",
    "report_to_json",
    "run_algorithm",
    "run_experiment",
    "run_layers",
    "run_walk_peeling",
    "speed_estimate",
    "z_partition",
    "TripeelError",
    "DomainError",
    "MisuseError",
    "BudgetExceededError",
    "TableOverflowError",
    "InvariantViolationError",
]
