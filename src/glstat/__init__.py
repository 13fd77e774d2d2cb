"""Generalized L-statistics for dependent time series.

U-statistics and U-quantiles over symmetric kernels, GL-statistic scale
estimators (Gini's mean difference, Q, C, LMS), long-run variance
estimation with CLT confidence intervals, EGARCH/AR process simulation,
and a reproducible Monte Carlo experiment harness.
"""

from .errors import (
    CapacityError,
    DegenerateDensityError,
    DegenerateVarianceError,
    GlstatError,
    InsufficientDataError,
    StationarityError,
)
from .gl import (
    GLSpec,
    WeightFunctionJ,
    estimator_c,
    estimator_gini,
    estimator_lms,
    estimator_q,
    gini_gl_spec,
    gl_statistic,
    lms_constant,
    q_gl_spec,
)
from .kernels import KernelSpec, builtin_kernel, custom_kernel, eval_kernel
from .lrv import (
    BandwidthPolicy,
    GLVarianceReport,
    LrvConfig,
    PluginContext,
    a1_hat_all,
    build_plugin,
    default_bandwidth,
    density_at_uquantile,
    gl_confidence_interval,
    lrv_gl,
    lrv_ustat,
)
from .mc import (
    EstimatorConfig,
    ExperimentConfig,
    ExperimentReport,
    NormalitySummary,
    ProcessConfig,
    egarch_scenario,
    load_config,
    normality_summary,
    q_subsampled,
    qq_points,
    run_experiment,
    simulate_path,
    write_report,
)
from .processes import GAUSSIAN_MEAN_ABS, EgarchParams, make_rng
from .ustat import (
    KernelValueSet,
    MinPairwiseCounts,
    g1_hat_all,
    kernel_values,
    u_distribution,
    u_statistic,
)

__version__ = "0.1.0"
