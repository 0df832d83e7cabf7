"""Causal effect estimation for small non-randomized binary-outcome studies.

Nine risk-difference estimators (crude and covariate-adjusted linear models,
propensity-score covariate adjustment, caliper matching, inverse-probability
weighting, three g-computation variants and augmented IPW), their odds-ratio
counterparts, and a reproducible Monte Carlo harness with three benchmark
scenarios, an effect-calibration oracle and metric aggregation.
"""

from .bootstrap import bootstrap_percentile_ci
from .data import Dataset
from .errors import (
    BootstrapCollapseError,
    DegenerateStrataError,
    DegenerateVarianceError,
    EstimationError,
    ExtremeOrError,
    LeverageOneError,
    NoPairsError,
    NotBracketedError,
    NotConvergedError,
    RankDeficientError,
    ReplicateError,
    SeparationError,
)
from .estimators import (
    ESTIMAND_LOG_OR,
    ESTIMAND_RD,
    OR_METHODS,
    RD_METHODS,
    EffectEstimate,
    estimate_effect,
    estimate_effects,
)
from .glm import (
    LinearFit,
    LogisticFit,
    fit_logistic,
    fit_ols,
    hc3_covariance,
    wald_ci,
)
from .propensity import (
    MatchedSample,
    PropensityScores,
    estimate_ps,
    iptw_weights,
    match_caliper,
)
from .simulation import (
    CounterfactualTruth,
    MethodMetrics,
    ScenarioSpec,
    calibrate_beta_trt,
    generate,
    make_scenario,
    run_replicate,
    run_study,
    summarize,
    true_marginal_effect,
)
from .streams import derive_substream

__version__ = "0.1.0"
