"""Moment-based covariance matching for diffuse vertical scatterers.

Estimates the power, mean height and vertical spread of a diffuse scatterer
from the interferometric covariance of a tomographic acquisition stack,
without assuming a particular profile shape.  Ships a parametric
assumed-shape baseline, Slepian-Bangs Cramer-Rao bounds and a reproducible
Monte Carlo benchmark CLI.
"""

from .crb import (
    PARAMETERS,
    SingularFimError,
    covariance_derivatives,
    crb_stddev,
    fisher_information,
)
from .experiments import (
    EstimatorSpec,
    ExperimentError,
    ExperimentResult,
    ExperimentSpec,
    default_estimators,
    default_spec,
    run_asymptotic_bias_vs_sigma,
    run_experiment,
    run_rmse_vs_N,
    run_spectrum_dump,
    wrap_height_error,
)
from .fitting import DegenerateCovarianceError, PreparedCovariance
from .geometry import (
    ArrayConfig,
    baseline_differences,
    fourier_resolution,
    make_uniform_array,
    steering_vector,
)
from .moments import (
    MomentDiagnostics,
    MomentEstimate,
    MomentEstimatorConfig,
    estimate,
    model_power_spectrum,
    moment_orders,
)
from .parametric import (
    ParametricEstimate,
    ParametricEstimatorConfig,
    SigmaGrid,
    estimate_parametric,
)
from .profiles import (
    CovarianceModel,
    SourceProfile,
    central_moment,
    characteristic_function,
    density,
    shape_characteristic,
    shape_matrix,
    true_covariance,
)
from .sampling import (
    covariance_factor,
    derive_seed,
    sample_covariance,
    sample_snapshots,
)

__version__ = "0.1.0"
