"""The treatment-effect estimators.

Nine risk-difference methods and the matching odds-ratio family, each
returning a uniform :class:`EffectEstimate`.  A method never raises for a
statistical failure: rank problems, non-convergence, empty matchings and the
like are caught and recorded as a failed estimate with a reason tag, so a
simulation replicate always yields one estimate per requested method.

Each method is one row of the registry ``METHODS``: its id, its estimand,
whether it needs a propensity score or a matched sample, its body and, for
g-computation, its Q-model.  ``RD_METHODS``, ``OR_METHODS``,
:func:`shared_inputs`, :func:`estimate_effect`, :func:`estimate_effects` and
the command line all read that table, so adding a method means adding one
row (and the body it calls).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.special import expit

from .bootstrap import BootstrapConfig, bootstrap_percentile_ci
from .data import Dataset
from .errors import (
    DegenerateStrataError,
    DegenerateVarianceError,
    EstimationError,
    ExtremeOrError,
    NotConvergedError,
    RankDeficientError,
    SeparationError,
)
from .glm import (
    NON_FINITE,
    NOT_CONVERGED,
    PLATEAU,
    RANK_DEFICIENT,
    fit_logistic,
    fit_logistic_batch,
    fit_ols,
    hc3_covariance,
    linear_predictors,
    wald_ci,
)
from .propensity import (
    MatchedSample,
    PropensityScores,
    estimate_ps,
    iptw_weights,
    match_caliper,
    quintile_strata,
    signed_inverse_probability,
)

#: estimand ids, as the command line and the CSVs spell them
ESTIMAND_RD = "rd"
ESTIMAND_LOG_OR = "or"

#: a back-transformed odds ratio at/above this is recorded as a failure
OR_FAILURE_THRESHOLD = 3000.0
_LOG_OR_FAILURE = math.log(OR_FAILURE_THRESHOLD)


@dataclass(frozen=True)
class Method:
    """One registry row.

    ``fn(data, ps, matched)`` is the method's body, run by
    :func:`estimate_effect`: it returns ``(point, se, ci)``, or raises an
    EstimationError for a statistical failure, for both estimands.  A
    g-computation row names its Q-model in ``q_spec``; its body returns no
    interval, which comes from the bootstrap pass it shares with the other
    g-computation rows (:func:`_with_gcomp_cis`).  A row looks its helpers
    up by module-level name at call time, so rebinding one (to inject a
    fault, say) reaches every dispatch.
    """

    id: str
    estimand: str
    needs_ps: bool  # matching is built on the score, so matched rows need it
    needs_match: bool
    fn: Callable
    q_spec: str | None = None


_RD, _OR = ESTIMAND_RD, ESTIMAND_LOG_OR
_ROWS = (
    Method("crude", _RD, False, False,
           lambda d, ps, m: _ols_rd(_intercept_design(d.treatment), d.outcome)),
    Method("cov_adjusted", _RD, False, False,
           lambda d, ps, m: _ols_rd(
               _intercept_design(d.treatment, *d.covariates.T), d.outcome)),
    Method("ps_covariate", _RD, True, False,
           lambda d, ps, m: _ols_rd(
               _intercept_design(d.treatment, ps.probabilities), d.outcome)),
    Method("matched", _RD, True, True, lambda d, ps, m: _matched_rd(d, m)),
    Method("iptw", _RD, True, False,
           lambda d, ps, m: _iptw_rd(d, iptw_weights(ps, d.treatment).weights)),
    Method("gcomp", _RD, False, False, lambda d, ps, m: _gcomp_rd(d, "plain", None),
           "plain"),
    Method("gcomp_simple_dr", _RD, True, False,
           lambda d, ps, m: _gcomp_rd(d, "simple_dr", ps), "simple_dr"),
    Method("gcomp_dr_quintiles", _RD, True, False,
           lambda d, ps, m: _gcomp_rd(d, "dr_quintiles", ps), "dr_quintiles"),
    Method("aipw", _RD, True, False, lambda d, ps, m: _aipw_rd(d, ps)),
    Method("crude", _OR, False, False,
           lambda d, ps, m: _logistic_or(_intercept_design(d.treatment), d.outcome)),
    Method("cov_adjusted", _OR, False, False,
           lambda d, ps, m: _logistic_or(
               _intercept_design(d.treatment, *d.covariates.T), d.outcome)),
    Method("ps_covariate", _OR, True, False,
           lambda d, ps, m: _logistic_or(
               _intercept_design(d.treatment, ps.probabilities), d.outcome)),
    Method("match_unadjusted", _OR, True, True,
           lambda d, ps, m: _match_unadjusted_or(d, m)),
    Method("match_conditional", _OR, True, True,
           lambda d, ps, m: _match_conditional_or(d, m)),
    Method("iptw", _OR, True, False,
           lambda d, ps, m: _logistic_or(
               _intercept_design(d.treatment), d.outcome,
               iptw_weights(ps, d.treatment).weights)),
    Method("gcomp", _OR, False, False, lambda d, ps, m: _gcomp_or(d, "plain", None),
           "plain"),
    Method("gcomp_simple_dr", _OR, True, False,
           lambda d, ps, m: _gcomp_or(d, "simple_dr", ps), "simple_dr"),
    Method("gcomp_dr_quintiles", _OR, True, False,
           lambda d, ps, m: _gcomp_or(d, "dr_quintiles", ps), "dr_quintiles"),
)

#: the registry: estimand -> method id -> row; CSV rows follow this order
METHODS = {
    estimand: {row.id: row for row in _ROWS if row.estimand == estimand}
    for estimand in (ESTIMAND_RD, ESTIMAND_LOG_OR)
}
#: fixed registry ids used in every CSV/JSON output
RD_METHODS = tuple(METHODS[ESTIMAND_RD])
OR_METHODS = tuple(METHODS[ESTIMAND_LOG_OR])


@dataclass(frozen=True)
class EffectEstimate:
    """One method's answer on one dataset."""

    estimand: str
    method: str
    point: float | None
    se: float | None = None
    ci: tuple[float, float] | None = None
    failed: bool = False
    failure_reason: str | None = None

    def __post_init__(self):
        if self.failed:
            if self.point is not None or self.se is not None or self.ci is not None:
                raise ValueError("failed estimates carry no numbers")
            if not self.failure_reason:
                raise ValueError("failed estimates need a reason")
        elif self.point is None:
            raise ValueError("successful estimates need a point value")


@dataclass(frozen=True)
class MatchedCounts:
    b_discordant: int  # treated event, control non-event
    c_discordant: int  # control event, treated non-event
    n_pairs: int


def _failed(estimand: str, method: str, exc: EstimationError) -> EffectEstimate:
    return EffectEstimate(
        estimand, method, None, failed=True, failure_reason=exc.reason
    )


def _intercept_design(*columns: np.ndarray) -> np.ndarray:
    n = len(columns[0])
    return np.column_stack([np.ones(n)] + [np.asarray(c, float) for c in columns])


# ---------------------------------------------------------------------------
# risk-difference family
# ---------------------------------------------------------------------------


def _ols_rd(X: np.ndarray, y: np.ndarray) -> tuple[float, float, tuple[float, float]]:
    """OLS treatment coefficient with an HC3 Wald interval: the body of the
    linear-model rows (``crude``, ``cov_adjusted``, ``ps_covariate``)."""
    fit = fit_ols(X, y)
    variance = float(hc3_covariance(fit, X)[1, 1])
    # a design that only just passes the pivot check (a column nearly the
    # treatment) can round this below zero
    if not 0.0 <= variance < math.inf:
        raise DegenerateVarianceError("HC3 variance is negative or not finite")
    point = float(fit.coefficients[1])
    se = math.sqrt(variance)
    return point, se, wald_ci(point, se)


def matched_counts(data: Dataset, matched: MatchedSample) -> MatchedCounts:
    y = data.outcome
    b = sum(1 for t, c in matched.pairs if y[t] == 1.0 and y[c] == 0.0)
    c = sum(1 for t, c_ in matched.pairs if y[t] == 0.0 and y[c_] == 1.0)
    return MatchedCounts(b, c, matched.n_pairs)


def _matched_rd(data: Dataset, matched: MatchedSample):
    """Discordant-pair risk difference with the paired-proportions variance."""
    counts = matched_counts(data, matched)
    b, c, n = counts.b_discordant, counts.c_discordant, counts.n_pairs
    if b + c == 0:
        raise DegenerateVarianceError("no discordant pairs")
    point = (b - c) / n
    variance = (b + c) / n**2 - (b - c) ** 2 / n**3
    se = math.sqrt(max(variance, 0.0))
    return point, se, wald_ci(point, se)


def _iptw_rd(data: Dataset, w: np.ndarray):
    """Weighted linear model of the outcome on treatment, with the
    inverse-probability weights ``w``.

    The point estimate is the difference of inverse-probability-weighted arm
    means.  The interval is a Wald interval around a binomial-variance
    heuristic that uses the squared-weight total as the effective sample
    size,

        var = (m1*(1 - m1) + m0*(1 - m0)) / sum(w_i^2),

    which is the (anti-conservative) construction the benchmark tables this
    harness reproduces are built on; its severe undercoverage under
    confounding is part of what the simulation study measures.  Callers who
    want a conventional robust interval instead can read the fixed-weights
    sandwich off the weighted fit: the ``covariance`` of :func:`fit_ols`
    with ``weights``.
    """
    fit = fit_ols(_intercept_design(data.treatment), data.outcome, weights=w)
    point = float(fit.coefficients[1])
    mu1 = float(fit.coefficients[0] + fit.coefficients[1])
    mu0 = float(fit.coefficients[0])
    var = (mu1 * (1.0 - mu1) + mu0 * (1.0 - mu0)) / float(w @ w)
    if var < 0:
        raise DegenerateVarianceError("negative variance heuristic")
    se = math.sqrt(var)
    return point, se, wald_ci(point, se)


def _q_means(
    data: Dataset,
    q_spec: str,
    counts: np.ndarray,
    logits: np.ndarray | None,
    strata: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Q-model of ``q_spec`` fitted per row of the ``(b, n)`` counts,
    and its counterfactual outcome means.

    The design is the treatment and covariates plus the signed
    inverse-probability covariate of the ``(b, n)`` ``logits``, recomputed
    under the counterfactual treatment (``simple_dr``), or the dummies of
    the ``(b, n)`` stratum index ``strata`` (``dr_quintiles``).  Returns
    ``(m1, m0, status)`` per row, ``status`` from :func:`fit_logistic_batch`.
    An overflowed counterfactual covariate keeps its limit 0 or 1.
    """
    if q_spec not in ("plain", "simple_dr", "dr_quintiles"):
        raise ValueError(f"unknown Q-model spec: {q_spec!r}")

    def resample_part(treatment: np.ndarray) -> dict:
        # the Q design's per-resample part under the treatment; the shared
        # block is the plain design
        if q_spec == "simple_dr":
            return {"column": signed_inverse_probability(treatment, logits)}
        if q_spec == "dr_quintiles":
            return {"strata": strata}
        return {}

    n = counts.shape[1]
    X = _intercept_design(data.treatment, *data.covariates.T)
    beta, status, _ = fit_logistic_batch(
        X, data.outcome, counts, **resample_part(data.treatment)
    )
    means = []
    for a in (np.ones(n), np.zeros(n)):
        X_a = _intercept_design(a, *data.covariates.T)
        with np.errstate(over="ignore", invalid="ignore"):
            eta = linear_predictors(X_a, beta, **resample_part(a))
        means.append((counts * expit(eta)).sum(axis=1) / n)
    return means[0], means[1], status


def _gcomp_means(
    data: Dataset, q_spec: str, ps: PropensityScores | None
) -> tuple[float, float]:
    """Counterfactual outcome means from a Q-model fitted on the given PS:
    the one-row call of :func:`_q_means`, every count 1.

    Fewer than 5 distinct logits (``dr_quintiles``) raise
    DegenerateStrataError; a Q fit that fails raises RankDeficientError or
    NotConvergedError; a fitted design that is not finite, or a mean that
    is NaN, raises SeparationError (a separated propensity or Q-model fit).
    """
    logits = strata = None
    if q_spec != "plain":
        logits = ps.logits[None]
    if q_spec == "dr_quintiles":
        strata, (n_distinct,) = quintile_strata(logits, logits)
        if n_distinct < 5:
            raise DegenerateStrataError("fewer than 5 distinct logit values")
    (m1,), (m0,), (status,) = _q_means(
        data, q_spec, np.ones((1, data.n_subjects)), logits, strata
    )
    if status == NON_FINITE:
        raise SeparationError("outcome-model design is not finite")
    if status == RANK_DEFICIENT:
        raise RankDeficientError("outcome-model design is rank deficient")
    if status == NOT_CONVERGED:
        raise NotConvergedError("outcome-model IRLS did not converge")
    if math.isnan(m1) or math.isnan(m0):
        raise SeparationError("counterfactual mean is not finite")
    return float(m1), float(m0)


def _gcomp_batch_means(
    data: Dataset, q_specs: tuple[str, ...], indices: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """:func:`_gcomp_means` for every resample of a ``(b, n)`` index block,
    for each Q-model spec in ``q_specs``.

    A resample is its row counts, so the propensity and Q-models are
    count-weighted fits on the original rows.  The counts, the propensity
    fit and the quintile strata are built once per block and shared by the
    specs that use them, so each spec gets exactly what it would get alone.
    Returns ``(m1, m0)`` per spec, NaN for a dropped resample: one that is
    single-arm, has fewer than 5 distinct logits (``dr_quintiles``), has a
    propensity or Q fit that fails (a non-finite fitted design among them;
    see :func:`fit_logistic_batch`) or a NaN counterfactual mean.
    """
    b, n = indices.shape
    offsets = n * np.arange(b)[:, None]
    counts = np.bincount((indices + offsets).ravel(), minlength=b * n)
    counts = counts.reshape(b, n).astype(float)
    n_treated = counts @ data.treatment
    both_arms = (n_treated > 0) & (n_treated < n)
    logits = strata = None
    if any(q_spec != "plain" for q_spec in q_specs):
        X_ps = _intercept_design(*data.covariates.T)
        gamma, ps_status, _ = fit_logistic_batch(X_ps, data.treatment, counts)
        logits = gamma @ X_ps.T
    if "dr_quintiles" in q_specs:
        expanded = np.take_along_axis(logits, indices, axis=1)
        strata, n_distinct = quintile_strata(logits, expanded)

    means = []
    for q_spec in q_specs:
        kept = both_arms
        if q_spec != "plain":
            kept = kept & (ps_status <= PLATEAU)
        if q_spec == "dr_quintiles":
            kept = kept & (n_distinct >= 5)
        m1, m0, status = _q_means(data, q_spec, counts, logits, strata)
        kept = kept & (status <= PLATEAU)
        means.append((np.where(kept, m1, np.nan), np.where(kept, m0, np.nan)))
    return means


def _gcomp_cis(
    data: Dataset,
    q_specs: tuple[str, ...],
    contrast: Callable[[np.ndarray, np.ndarray], np.ndarray],
    bootstrap: BootstrapConfig,
    rng: np.random.Generator | None,
) -> list:
    """Percentile intervals of ``contrast(m1, m0)`` for each Q-model spec,
    from one bootstrap pass over one index draw from ``rng``.

    Every resample refits the whole pipeline, propensity model included, a
    block at a time by :func:`_gcomp_batch_means`; a NaN contrast drops the
    resample for its spec.  One entry per spec: ``(lo, hi)``, or the
    BootstrapCollapseError of that spec alone.
    """
    if rng is None:
        raise ValueError("bootstrap interval needs a random stream")

    def estimator(indices: np.ndarray) -> np.ndarray:
        return np.stack(
            [contrast(m1, m0) for m1, m0 in _gcomp_batch_means(data, q_specs, indices)],
            axis=1,
        )

    return bootstrap_percentile_ci(data, estimator, bootstrap, rng)


def _with_gcomp_cis(
    data: Dataset,
    estimates: list[EffectEstimate],
    bootstrap: BootstrapConfig | None,
    rng: np.random.Generator | None,
) -> list[EffectEstimate]:
    """The successful g-computation estimates of one estimand, each with its
    percentile interval from the one bootstrap pass they share.

    A collapsed interval fails its own method only.  Without bootstrap or
    without estimates nothing is drawn from ``rng``.
    """
    if bootstrap is None or not estimates:
        return estimates
    estimand = estimates[0].estimand
    q_specs = tuple(METHODS[estimand][est.method].q_spec for est in estimates)
    contrast = operator.sub if estimand == ESTIMAND_RD else _log_or
    cis = _gcomp_cis(data, q_specs, contrast, bootstrap, rng)
    return [
        _failed(estimand, est.method, ci) if isinstance(ci, EstimationError)
        else replace(est, ci=ci)
        for est, ci in zip(estimates, cis)
    ]


def _gcomp_rd(data: Dataset, q_spec: str, ps: PropensityScores | None):
    """Outcome-model standardization: predict both potential outcomes for
    every subject and contrast the averages.

    ``q_spec`` selects the Q-model: ``plain`` (treatment + covariates),
    ``simple_dr`` (adds the signed inverse-probability covariate) or
    ``dr_quintiles`` (adds four score-quintile dummies).  The interval is a
    percentile bootstrap that refits the whole pipeline (propensity model
    included) inside each resample (:func:`_with_gcomp_cis`).
    """
    m1, m0 = _gcomp_means(data, q_spec, ps)
    return m1 - m0, None, None


def _aipw_rd(data: Dataset, ps: PropensityScores):
    """Augmented inverse-probability weighting.

    Arm-specific outcome models of the outcome on the covariates feed the
    augmentation term; the standard error is the empirical SD of the
    per-subject influence contributions over sqrt(n).  An arm model whose
    observed information is numerically singular at the optimum (the
    signature of separation) fails the method, and so does an
    inverse-probability weight that overflows (a propensity logit beyond
    about 709 in the subject's own arm).
    """
    m1, m0 = _aipw_arm_predictions(data)
    w = iptw_weights(ps, data.treatment).weights
    y = data.outcome
    treated = data.treatment == 1
    term1 = np.where(treated, y * w - (w - 1.0) * m1, m1)
    term0 = np.where(treated, m0, y * w + (1.0 - w) * m0)
    phi = term1 - term0
    point = float(phi.mean())
    se = float(phi.std(ddof=1) / math.sqrt(len(phi)))
    return point, se, wald_ci(point, se)


def _aipw_arm_predictions(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Predictions for everyone from outcome models fitted within each arm."""
    out = []
    X_all = _intercept_design(*data.covariates.T)
    for arm in (1.0, 0.0):
        rows = data.treatment == arm
        if not rows.any():
            raise RankDeficientError("empty treatment arm")
        fit = fit_logistic(X_all[rows], data.outcome[rows])
        if fit.covariance is None:
            raise SeparationError(
                "arm outcome model has singular observed information"
            )
        out.append(expit(X_all @ fit.coefficients))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# odds-ratio family: a point at an odds ratio of 3000 or more fails as
# ExtremeOR before any interval is built
# ---------------------------------------------------------------------------


def _or_point_guard(point: float) -> float:
    """Apply the extreme-OR failure rule to a log-odds-ratio point."""
    if not math.isfinite(point):
        if point > 0:
            raise ExtremeOrError("infinite odds ratio")
        raise DegenerateVarianceError("log odds ratio is not finite")
    if point >= _LOG_OR_FAILURE:
        # stated as a log: exp overflows beyond a log odds ratio of ~709.8
        raise ExtremeOrError(
            f"log odds ratio {point:.6g} at or above log({OR_FAILURE_THRESHOLD:g})"
        )
    return point


def _logistic_or(
    X: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None
) -> tuple[float, float, tuple[float, float]]:
    fit = fit_logistic(X, y, weights=weights)
    point = _or_point_guard(float(fit.coefficients[1]))
    if fit.covariance is None:
        raise DegenerateVarianceError("singular information at the optimum")
    se = float(np.sqrt(fit.covariance[1, 1]))
    return point, se, wald_ci(point, se)


def _match_unadjusted_or(data: Dataset, matched: MatchedSample):
    rows = np.array([i for pair in matched.pairs for i in pair])
    return _logistic_or(_intercept_design(data.treatment[rows]), data.outcome[rows])


def _match_conditional_or(data: Dataset, matched: MatchedSample):
    """Closed-form 1:1 conditional-likelihood estimate from discordant pairs."""
    counts = matched_counts(data, matched)
    b, c = counts.b_discordant, counts.c_discordant
    if b == 0 or c == 0:
        raise DegenerateVarianceError("a discordant-pair count is zero")
    point = _or_point_guard(math.log(b / c))
    se = math.sqrt(1.0 / b + 1.0 / c)
    return point, se, wald_ci(point, se)


def _log_or(m1, m0):
    """Log odds ratio of two counterfactual means (or arrays of them); NaN
    when a mean is on the boundary 0 or 1, or NaN itself."""
    inside = (np.minimum(m1, m0) > 0.0) & (np.maximum(m1, m0) < 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_or = np.log(m1) - np.log1p(-m1) - np.log(m0) + np.log1p(-m0)
    return np.where(inside, log_or, np.nan)


def _gcomp_or(data: Dataset, q_spec: str, ps: PropensityScores | None):
    # the extreme-OR rule applies to the point only, so a method it fails
    # never enters the bootstrap pass; resamples drop on the boundary check
    point = float(_log_or(*_gcomp_means(data, q_spec, ps)))
    if math.isnan(point):  # the means are never NaN here
        raise ExtremeOrError("counterfactual mean on the boundary")
    return _or_point_guard(point), None, None


# ---------------------------------------------------------------------------
# one-dataset drivers
# ---------------------------------------------------------------------------


def shared_inputs(
    data: Dataset, methods: tuple[str, ...], estimand: str
) -> tuple[PropensityScores | None, EstimationError | None, MatchedSample | None, EstimationError | None]:
    """Fit the propensity model and the matching once for a method set.

    Returns (ps, ps_error, matched, match_error); a propensity failure
    cascades to matching.
    """
    rows = [METHODS[estimand][m] for m in methods]
    ps = ps_error = matched = match_error = None
    if any(row.needs_ps for row in rows):
        try:
            if data.n_treated == 0 or data.n_controls == 0:
                raise RankDeficientError("single-arm data")
            ps = estimate_ps(data)
        except EstimationError as exc:
            ps_error = exc
    if any(row.needs_match for row in rows):
        if ps is not None:
            try:
                matched = match_caliper(ps, data.treatment)
            except EstimationError as exc:
                match_error = exc
        else:
            match_error = ps_error
    return ps, ps_error, matched, match_error


def estimate_effect(
    data: Dataset,
    method: str,
    estimand: str,
    ps: PropensityScores | None = None,
    matched: MatchedSample | None = None,
    bootstrap: BootstrapConfig | None = None,
    rng: np.random.Generator | None = None,
) -> EffectEstimate:
    """Run one registry method of ``estimand`` on one dataset.

    A statistical failure comes back as a failed estimate with its reason
    tag.  An unknown method id raises ValueError, and so does a row called
    without the matched sample or propensity score its body reads.  A
    g-computation method's bootstrap interval, when ``bootstrap`` is given,
    is the one :func:`estimate_effects` gives it with an equal ``rng``.
    """
    row = METHODS.get(estimand, {}).get(method)
    if row is None:
        raise ValueError(f"unknown method for estimand {estimand!r}: {method!r}")
    if row.needs_match:  # its body reads the pairs, not the score
        if matched is None:
            raise ValueError(f"{method} requires a matched sample")
    elif row.needs_ps and ps is None:
        raise ValueError(f"{method} requires propensity scores")
    try:
        point, se, ci = row.fn(data, ps, matched)
    except EstimationError as exc:
        return _failed(estimand, method, exc)
    estimate = EffectEstimate(estimand, method, point, se, ci)
    if row.q_spec is None:
        return estimate
    return _with_gcomp_cis(data, [estimate], bootstrap, rng)[0]


def estimate_effects(
    data: Dataset,
    methods: tuple[str, ...],
    estimand: str,
    bootstrap: BootstrapConfig | None = None,
    rng: np.random.Generator | None = None,
) -> dict[str, EffectEstimate]:
    """Run every requested method on one dataset, in the requested order.

    A method whose propensity score or matched sample could not be built
    fails with that reason.  Every point comes first; then the g-computation
    methods whose point succeeded share one bootstrap pass over one index
    draw from ``rng``, so each interval is the one the method gets alone.  A
    successful estimate with a non-finite point, SE or CI endpoint raises
    ArithmeticError.
    """
    registry = METHODS.get(estimand, {})
    unknown = set(methods) - set(registry)
    if unknown:
        raise ValueError(f"unknown methods for {estimand}: {sorted(unknown)}")
    if len(set(methods)) != len(methods):
        raise ValueError(f"repeated method ids: {list(methods)}")

    ps, ps_error, matched, match_error = shared_inputs(data, methods, estimand)
    results: dict[str, EffectEstimate] = {}
    for method in methods:
        row = registry[method]
        if row.needs_match and matched is None:
            results[method] = _failed(estimand, method, match_error)
        elif row.needs_ps and ps is None:
            results[method] = _failed(estimand, method, ps_error)
        else:
            results[method] = estimate_effect(data, method, estimand, ps, matched)
    pending = [
        est for est in results.values()
        if registry[est.method].q_spec is not None and not est.failed
    ]
    for est in _with_gcomp_cis(data, pending, bootstrap, rng):
        results[est.method] = est
    for est in results.values():
        _check_finite(est)
    return results


def _check_finite(estimate: EffectEstimate) -> None:
    """A successful estimate has a finite point, and a finite SE and CI when
    present.  A method that breaks this is a program bug, not a statistical
    failure, so it raises."""
    numbers = (estimate.point, estimate.se, *(estimate.ci or ()))
    if not all(x is None or math.isfinite(x) for x in numbers):
        raise ArithmeticError(f"method {estimate.method!r} returned {estimate}")
