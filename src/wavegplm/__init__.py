"""Penalized maximum-likelihood estimation of generalized partially linear
models with wavelet-based functional components."""

from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    FitDivergenceError,
    FitError,
    NumericError,
    RankError,
    WavegplmError,
)
from .estimator import (
    Dataset,
    FitConfig,
    GplmFit,
    PenaltyConfig,
    backfit,
    backfit_rows,
    criterion_value,
    default_coarse_level,
    functional_step,
    initialize,
    linear_step,
    penalty_value,
    per_coefficient_thresholds,
    soft_threshold,
    universal_lambda,
)
from .families import Binomial, Family, Gaussian, Poisson, make_family
from .simulate import (
    SimulationConfig,
    SimulationReport,
    TestFunction,
    ThresholdCurve,
    calibrate_threshold,
    calibration_regression,
    covariate_design,
    quartic_trend,
    rmise,
    run_monte_carlo,
    snr,
    test_function,
)
from .wavelet import (
    SUPPORTED_FILTERS,
    CoefficientLayout,
    WaveletCoefficients,
    WaveletFilter,
    coefficient_layout,
    dwt,
    idwt,
    make_filter,
    transform_matrix,
)

__version__ = "0.1.0"
