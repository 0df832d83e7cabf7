"""Benchmark data-generating processes, the effect-calibration oracle,
replicate execution and metric aggregation.

Three scenarios are built in:

* ``covid``      - four mixed-type covariates sized like a small open-label
                   treatment study;
* ``unmeasured`` - the same plus a strong standard-normal confounder that the
                   estimators never see;
* ``austin``     - nine Bernoulli(1/2) covariates whose treatment/outcome
                   association strengths form a 3x3 grid (strong log 5,
                   moderate log 2, none).

Treatment follows Bernoulli(expit(b0 + b.x)); the outcome follows
Bernoulli(expit(a0 + beta_trt*A + a.x)).  Both potential-outcome
probabilities are retained for every generated subject.  Every scenario's
covariate law is known in closed form, so the true marginal effect, and the
treatment coefficient that calibration picks for a target effect, are exact
weighted sums over that law: no Monte Carlo noise enters either.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, ndtr, roots_hermitenorm

from .blas import cap_blas_threads
from .bootstrap import BootstrapConfig
from .data import Dataset
from .errors import EstimationError, NotBracketedError, ReplicateError
from .estimators import EffectEstimate, estimate_effects
from .streams import derive_substream

SCENARIO_IDS = ("covid", "unmeasured", "austin")

LOG5 = math.log(5.0)
LOG2 = math.log(2.0)

_COVID_BETA = (-2.3, 0.31, 0.03, 1.099, -0.1054, 0.1031)
_COVID_ALPHA = (-1.06, 0.619, 0.0077, 0.9461, -1.3499, 0.0896)
_COVID_KINDS = (
    "binary",
    "continuous",
    "categorical-dummy",
    "categorical-dummy",
    "continuous",
)

_AUSTIN_BETA = (-3.5, LOG5, LOG2, 0.0, LOG5, LOG2, 0.0, LOG5, LOG2, 0.0)
_AUSTIN_ALPHA = (-5.0, LOG5, LOG5, LOG5, LOG2, LOG2, LOG2, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to draw one dataset and its counterfactual truth."""

    scenario_id: str
    beta: tuple[float, ...]  # treatment model, intercept first
    alpha: tuple[float, ...]  # outcome model, intercept first (no A term)
    beta_trt: float
    n_subjects: int
    analysis_covariate_mask: tuple[bool, ...]
    covariate_kinds: tuple[str, ...]  # kinds of the generated columns

    def __post_init__(self):
        k = len(self.beta) - 1
        if len(self.alpha) - 1 != k or len(self.analysis_covariate_mask) != k:
            raise ValueError("coefficient/mask lengths are inconsistent")
        if len(self.covariate_kinds) != k:
            raise ValueError("one covariate kind per generated column")


@dataclass(frozen=True)
class CounterfactualTruth:
    """Per-subject outcome probabilities under forced treatment and control."""

    p_treated: np.ndarray
    p_control: np.ndarray

    @property
    def marginal_rd(self) -> float:
        return float(self.p_treated.mean() - self.p_control.mean())


def make_scenario(
    scenario_id: str,
    n_subjects: int,
    beta_trt: float,
    beta0_override: float | None = None,
) -> ScenarioSpec:
    if scenario_id == "covid":
        beta, alpha, kinds = _COVID_BETA, _COVID_ALPHA, _COVID_KINDS
        mask = (True,) * 5
    elif scenario_id == "unmeasured":
        beta = _COVID_BETA + (LOG5,)
        alpha = _COVID_ALPHA + (LOG5,)
        kinds = _COVID_KINDS + ("continuous",)
        mask = (True,) * 5 + (False,)
    elif scenario_id == "austin":
        beta, alpha = _AUSTIN_BETA, _AUSTIN_ALPHA
        kinds = ("binary",) * 9
        mask = (True,) * 9
    else:
        raise ValueError(f"unknown scenario: {scenario_id!r}")
    if beta0_override is not None:
        beta = (beta0_override,) + beta[1:]
    return ScenarioSpec(
        scenario_id, beta, alpha, beta_trt, n_subjects, mask, kinds
    )


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _draw_covariates(
    scenario_id: str, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Generated covariate matrix, categorical columns already dummy-coded.

    Draw order (one block per covariate, subjects vectorized) is part of the
    reproducibility contract.
    """
    if scenario_id in ("covid", "unmeasured"):
        x1 = (rng.random(n) < 0.5).astype(float)
        x2 = _round_half_away(rng.normal(45.0, 15.0, n))
        x3 = rng.binomial(2, 0.5, n)
        x4 = _round_half_away(rng.uniform(0.0, 10.0, n))
        cols = [
            x1,
            x2,
            (x3 == 1).astype(float),
            (x3 == 2).astype(float),
            x4,
        ]
        if scenario_id == "unmeasured":
            cols.append(rng.normal(0.0, 1.0, n))
        return np.column_stack(cols)
    if scenario_id == "austin":
        return (rng.random((n, 9)) < 0.5).astype(float)
    raise ValueError(f"unknown scenario: {scenario_id!r}")


def generate(
    spec: ScenarioSpec, rng: np.random.Generator
) -> tuple[Dataset, CounterfactualTruth]:
    """One dataset plus per-subject potential-outcome probabilities.

    The returned dataset contains only the columns selected by the analysis
    mask; the truth is always computed from the full generative model.
    """
    n = spec.n_subjects
    X = _draw_covariates(spec.scenario_id, n, rng)
    beta = np.asarray(spec.beta)
    alpha = np.asarray(spec.alpha)
    p_trt = expit(beta[0] + X @ beta[1:])
    a = (rng.random(n) < p_trt).astype(float)
    eta_out = alpha[0] + X @ alpha[1:]
    p1 = expit(eta_out + spec.beta_trt)
    p0 = expit(eta_out)
    y = (rng.random(n) < np.where(a == 1.0, p1, p0)).astype(float)
    mask = np.asarray(spec.analysis_covariate_mask)
    kinds = tuple(
        k for k, keep in zip(spec.covariate_kinds, spec.analysis_covariate_mask) if keep
    )
    dataset = Dataset(X[:, mask], a, y, kinds)
    return dataset, CounterfactualTruth(p1, p0)


# ---------------------------------------------------------------------------
# truth oracle and calibration
# ---------------------------------------------------------------------------

#: Gauss-Hermite nodes integrating the unmeasured scenario's N(0, 1) confounder
HERMITE_NODES = 40

_BERNOULLI_HALF = (np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))


def _covariate_factors(scenario_id: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """The law ``_draw_covariates`` samples from, as independent factors.

    Each factor is a ``(k, c)`` array of the values its ``c`` generated
    columns take together and their ``k`` probabilities, in column order.
    Age keeps the integers within 12 SD of its mean; the unmeasured
    confounder is integrated by Gauss-Hermite nodes.
    """
    if scenario_id in ("covid", "unmeasured"):
        age = np.arange(45.0 - 180.0, 45.0 + 181.0)
        # mass of [k - 1/2, k + 1/2] from its edge nearer the mean, by symmetry
        # about 45, so the upper tail does not cancel against ndtr's 1
        near = (np.abs(age - 45.0) - 0.5) / 15.0
        factors = [
            _BERNOULLI_HALF,
            (age[:, None], ndtr(-near) - ndtr(-near - 1.0 / 15.0)),
            (np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
             np.array([0.25, 0.5, 0.25])),
            (np.arange(11.0)[:, None], np.r_[0.05, np.full(9, 0.1), 0.05]),
        ]
        if scenario_id == "unmeasured":
            nodes, weights = roots_hermitenorm(HERMITE_NODES)
            factors.append((nodes[:, None], weights / weights.sum()))
        return factors
    if scenario_id == "austin":
        return [_BERNOULLI_HALF] * 9
    raise ValueError(f"unknown scenario: {scenario_id!r}")


def _outcome_law(spec: ScenarioSpec) -> tuple[np.ndarray, np.ndarray]:
    """Untreated outcome linear predictor at every covariate pattern, and the
    pattern probabilities.

    The predictor is additive over the factors, so it is built as an outer
    sum of their contributions and no design matrix is formed.
    """
    alpha = np.asarray(spec.alpha)
    eta, prob = alpha[:1], np.ones(1)
    column = 1
    for values, probabilities in _covariate_factors(spec.scenario_id):
        width = values.shape[1]
        eta = np.add.outer(eta, values @ alpha[column : column + width]).ravel()
        prob = np.outer(prob, probabilities).ravel()
        column += width
    return eta, prob


def _effect_curve(spec: ScenarioSpec, estimand: str) -> Callable[[float], float]:
    """Marginal effect of ``spec``'s outcome model as a function of the
    treatment coefficient, summed exactly over the covariate law."""
    eta, prob = _outcome_law(spec)
    m0 = float(prob @ expit(eta))
    return lambda beta_trt: _contrast(float(prob @ expit(eta + beta_trt)), m0, estimand)


def true_marginal_effect(spec: ScenarioSpec, estimand: str = "rd") -> float:
    """Marginal effect implied by the generative model.

    Sums both counterfactual outcome probabilities over the covariate law,
    so no Monte Carlo noise enters.  ``estimand`` "rd" returns the
    difference of the two marginal probabilities, "or" their odds ratio.
    Only the outcome model matters: the treatment model does not move it.
    """
    return _effect_curve(spec, estimand)(spec.beta_trt)


def _contrast(m1: float, m0: float, estimand: str) -> float:
    """Effect of the marginal probabilities ``m1`` (treated), ``m0`` (control)."""
    if estimand == "rd":
        return m1 - m0
    if estimand == "or":
        return (m1 / (1.0 - m1)) / (m0 / (1.0 - m0))
    raise ValueError(f"unknown estimand: {estimand!r}")


def calibrate_beta_trt(
    scenario_id: str,
    target: float,
    estimand: str = "rd",
    tolerance: float = 0.002,
    upper: float = 6.0,
    max_iterations: int = 80,
) -> float:
    """Treatment coefficient achieving a target marginal effect, by bisection.

    The objective is the exact marginal effect, a deterministic, strictly
    increasing function of the coefficient, so bisection is well posed.
    """
    null_value = 0.0 if estimand == "rd" else 1.0
    if target == null_value:
        return 0.0
    if target < null_value:
        raise NotBracketedError("targets below the null effect are not searched")

    objective = _effect_curve(make_scenario(scenario_id, 1, 0.0), estimand)
    if objective(upper) < target - tolerance:
        raise NotBracketedError(
            f"target {target} not reachable with coefficient at most {upper}"
        )
    lo, hi = 0.0, upper
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        value = objective(mid)
        if abs(value - target) <= tolerance:
            return mid
        if value < target:
            lo = mid
        else:
            hi = mid
    raise NotBracketedError(
        "bisection exhausted its iteration budget; the tolerance is likely "
        "below the precision of the effect"
    )


# ---------------------------------------------------------------------------
# replicates and metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplicateResult:
    replicate_index: int
    estimates: dict[str, EffectEstimate]
    true_effect: float


@dataclass(frozen=True)
class MethodMetrics:
    mean_bias: float | None
    rmse: float | None
    mae: float | None
    coverage: float | None
    median_ci_length: float | None
    n_failures: int
    n_used: int


@dataclass(frozen=True)
class MetricsSummary:
    true_effect: float
    n_replicates: int
    per_method: dict[str, MethodMetrics]


def run_replicate(
    spec: ScenarioSpec,
    methods: tuple[str, ...],
    estimand: str,
    bootstrap: BootstrapConfig | None,
    master_seed: int,
    replicate_index: int,
    true_effect: float,
) -> ReplicateResult:
    """Generate one dataset and run every requested method on it.

    All randomness comes from substreams keyed by (master seed, scenario,
    replicate index, purpose), so results are independent of scheduling.
    Statistical failures come back recorded in the estimates; any other
    exception is re-raised as a ``ReplicateError`` naming the replicate.
    """
    try:
        data_rng = derive_substream(
            master_seed, spec.scenario_id, replicate_index, "data"
        )
        data, _ = generate(spec, data_rng)
        boot_rng = derive_substream(
            master_seed, spec.scenario_id, replicate_index, "bootstrap"
        )
        estimates = estimate_effects(
            data, tuple(methods), estimand, bootstrap=bootstrap, rng=boot_rng
        )
    except EstimationError:
        raise
    except Exception as exc:
        # the message carries the cause: a process pool pickles only the args
        raise ReplicateError(
            f"replicate {replicate_index} of scenario {spec.scenario_id!r} at "
            f"master seed {master_seed} raised {type(exc).__name__}: {exc}"
        ) from exc
    return ReplicateResult(replicate_index, estimates, true_effect)


def summarize(
    results: list[ReplicateResult], true_effect: float
) -> MetricsSummary:
    """Bias/RMSE/MAE/coverage/CI-length/failure table over replicates.

    Failed estimates are excluded from every metric and only counted; CI
    metrics additionally require an interval to be present.
    """
    per_method = {}
    for m in dict.fromkeys(name for res in results for name in res.estimates):
        errors = []
        lengths = []
        covered = []
        n_fail = 0
        n_used = 0
        for res in results:
            est = res.estimates.get(m)
            if est is None:
                continue
            if est.failed:
                n_fail += 1
                continue
            n_used += 1
            errors.append(est.point - true_effect)
            if est.ci is not None:
                lo, hi = est.ci
                lengths.append(hi - lo)
                covered.append(1.0 if lo <= true_effect <= hi else 0.0)
        errors_arr = np.asarray(errors)
        per_method[m] = MethodMetrics(
            mean_bias=float(errors_arr.mean()) if n_used else None,
            rmse=float(np.sqrt((errors_arr**2).mean())) if n_used else None,
            mae=float(np.median(np.abs(errors_arr))) if n_used else None,
            coverage=float(np.mean(covered)) if covered else None,
            median_ci_length=float(np.median(lengths)) if lengths else None,
            n_failures=n_fail,
            n_used=n_used,
        )
    return MetricsSummary(true_effect, len(results), per_method)


def _replicate_task(args) -> ReplicateResult:
    spec, methods, estimand, bootstrap, master_seed, index, true_effect = args
    return run_replicate(
        spec, methods, estimand, bootstrap, master_seed, index, true_effect
    )


def run_study(
    spec: ScenarioSpec,
    methods: tuple[str, ...],
    estimand: str,
    n_replicates: int,
    bootstrap: BootstrapConfig | None,
    master_seed: int,
    true_effect: float,
    workers: int = 1,
) -> tuple[list[ReplicateResult], MetricsSummary]:
    """Run ``n_replicates`` independent replicates, optionally in parallel.

    Results are collected in replicate order, so output is identical for any
    worker count.  Each worker process runs its BLAS on one thread, under
    any start method, so the workers are the only parallelism.
    """
    tasks = [
        (spec, methods, estimand, bootstrap, master_seed, i, true_effect)
        for i in range(n_replicates)
    ]
    if workers <= 1:
        results = [_replicate_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(workers, initializer=cap_blas_threads) as pool:
            chunk = max(1, n_replicates // (workers * 8))
            results = list(pool.map(_replicate_task, tasks, chunksize=chunk))
    results.sort(key=lambda r: r.replicate_index)
    return results, summarize(results, true_effect)

