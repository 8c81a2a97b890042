"""stochrec: particle-measure machinery for stochastic recurrence equations.

Builds noise-conditional particle measures for recurrences
``x_next = apply(x, xi)``, verifies the characteristic-functional identity
linking consecutive coordinates, checks adaptedness, translation
equivariance, and stationarity of the resulting random measures, and ships
the reference diagnostics (circle-map statistics, rotation-invariant
Gaussian mass, closed-form Gaussian conditional laws) behind a reproducible
seeded CLI.
"""

__version__ = "0.1.0"

from .diagnostics import (
    DiagnosticsConfig,
    RotationState,
    conditional_char_statistic,
    conditional_law_demo,
    default_cylinder_family,
    gaussian_pair_sampler,
    rotation_flow,
    rotation_invariance_demo,
    stationarity_suite,
    tsirelson_samples,
    tsirelson_statistic,
)
from .errors import CoverageError
from .measure_solution import (
    CharSpec,
    MeasureBuilder,
    char_spec_grid,
    conditional_measure,
    conditional_measure_sampler,
    consistency_check,
    hopf_lhs,
    hopf_residual,
    hopf_rhs,
    perturb_last_coordinate,
    random_char_specs,
    shift_equivariance_check,
)
from .path_space import (
    SampledFunction,
    Window,
    shift_path,
    traj_metric,
)
from .random_measure import (
    CylinderSet,
    ParticleMeasure,
    StatReport,
    cylinder_prob,
    distributions_equal,
    integrate,
    ks_critical,
    ks_one_sample_threshold,
    ks_two_sample_threshold,
)
from .recurrence import (
    NoiseModel,
    UpdateMap,
    advance,
    contraction_map,
    fractional_map,
    iterate_forward,
    update_map_from_name,
)

__all__ = [
    "__version__",
    "CharSpec",
    "CoverageError",
    "CylinderSet",
    "DiagnosticsConfig",
    "MeasureBuilder",
    "NoiseModel",
    "ParticleMeasure",
    "RotationState",
    "SampledFunction",
    "StatReport",
    "UpdateMap",
    "Window",
    "advance",
    "char_spec_grid",
    "conditional_char_statistic",
    "conditional_law_demo",
    "conditional_measure",
    "conditional_measure_sampler",
    "consistency_check",
    "contraction_map",
    "cylinder_prob",
    "default_cylinder_family",
    "distributions_equal",
    "fractional_map",
    "gaussian_pair_sampler",
    "hopf_lhs",
    "hopf_residual",
    "hopf_rhs",
    "integrate",
    "iterate_forward",
    "ks_critical",
    "ks_one_sample_threshold",
    "ks_two_sample_threshold",
    "perturb_last_coordinate",
    "random_char_specs",
    "rotation_flow",
    "rotation_invariance_demo",
    "shift_equivariance_check",
    "shift_path",
    "stationarity_suite",
    "traj_metric",
    "tsirelson_samples",
    "tsirelson_statistic",
    "update_map_from_name",
]
