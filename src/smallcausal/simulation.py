"""Benchmark data-generating processes, the effect-calibration oracle,
replicate execution and metric aggregation.

Three scenarios are built in, one ``SCENARIOS`` row each:

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
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .blas import cap_blas_threads
from .data import Dataset
from .errors import NotBracketedError, ReplicateError
from .estimators import ESTIMANDS, EffectEstimate, Estimand, estimate_effects
from .glm import expit
from .streams import derive_substream

LOG5 = math.log(5.0)
LOG2 = math.log(2.0)

#: Gauss-Hermite nodes integrating the unmeasured scenario's N(0, 1) confounder
HERMITE_NODES = 40

_BERNOULLI_HALF = (np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _ndtr(x: np.ndarray) -> np.ndarray:
    """The standard normal CDF of each entry, through the C library's erfc."""
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])


def _draw_covid(n: int, rng: np.random.Generator) -> np.ndarray:
    x1 = (rng.random(n) < 0.5).astype(float)
    x2 = _round_half_away(rng.normal(45.0, 15.0, n))
    x3 = rng.binomial(2, 0.5, n)
    x4 = _round_half_away(rng.uniform(0.0, 10.0, n))
    return np.column_stack([x1, x2, (x3 == 1).astype(float), (x3 == 2).astype(float), x4])


def _covid_law() -> list[tuple[np.ndarray, np.ndarray]]:
    """Age keeps the integers within 12 SD of its mean."""
    age = np.arange(45.0 - 180.0, 45.0 + 181.0)
    # mass of [k - 1/2, k + 1/2] from its edge nearer the mean, by symmetry
    # about 45, so the upper tail does not cancel against ndtr's 1
    near = (np.abs(age - 45.0) - 0.5) / 15.0
    return [
        _BERNOULLI_HALF,
        (age[:, None], _ndtr(-near) - _ndtr(-near - 1.0 / 15.0)),
        (np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([0.25, 0.5, 0.25])),
        (np.arange(11.0)[:, None], np.r_[0.05, np.full(9, 0.1), 0.05]),
    ]


def _unmeasured_law() -> list[tuple[np.ndarray, np.ndarray]]:
    """The confounder is integrated by ``HERMITE_NODES`` Gauss-Hermite nodes,
    by Golub-Welsch: the eigenvalues of the Jacobi matrix of the probabilists'
    Hermite polynomials, weighted by the squared first eigenvector entries."""
    off_diagonal = np.sqrt(np.arange(1.0, HERMITE_NODES))
    nodes, vectors = np.linalg.eigh(np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1))
    weights = vectors[0] ** 2
    return _covid_law() + [(nodes[:, None], weights / weights.sum())]


@dataclass(frozen=True)
class Scenario:
    """One built-in scenario, stated once.  ``draw(n, rng)`` samples the
    covariate matrix, categorical columns dummy-coded; its draw order is part
    of the reproducibility contract.  ``law()`` is the exact law it samples,
    as independent factors: each a ``(k, c)`` array of the values its ``c``
    columns take together and their ``k`` probabilities, in column order."""

    beta: tuple[float, ...]  # treatment model, intercept first
    alpha: tuple[float, ...]  # outcome model, intercept first (no A term)
    mask: tuple[bool, ...]  # the columns the estimators see
    draw: Callable[[int, np.random.Generator], np.ndarray]
    law: Callable[[], list[tuple[np.ndarray, np.ndarray]]]


_COVID_BETA = (-2.3, 0.31, 0.03, 1.099, -0.1054, 0.1031)
_COVID_ALPHA = (-1.06, 0.619, 0.0077, 0.9461, -1.3499, 0.0896)

SCENARIOS = {
    "covid": Scenario(_COVID_BETA, _COVID_ALPHA, (True,) * 5, _draw_covid, _covid_law),
    "unmeasured": Scenario(
        _COVID_BETA + (LOG5,), _COVID_ALPHA + (LOG5,), (True,) * 5 + (False,),
        lambda n, rng: np.column_stack([_draw_covid(n, rng), rng.normal(0.0, 1.0, n)]),
        _unmeasured_law,
    ),
    "austin": Scenario(
        (-3.5, LOG5, LOG2, 0.0, LOG5, LOG2, 0.0, LOG5, LOG2, 0.0),
        (-5.0, LOG5, LOG5, LOG5, LOG2, LOG2, LOG2, 0.0, 0.0, 0.0),
        (True,) * 9,
        lambda n, rng: (rng.random((n, 9)) < 0.5).astype(float),
        lambda: [_BERNOULLI_HALF] * 9,
    ),
}
SCENARIO_IDS = tuple(SCENARIOS)


def _scenario(scenario_id: str) -> Scenario:
    """The ``SCENARIOS`` row of ``scenario_id``; ValueError for an unknown id."""
    if scenario_id not in SCENARIOS:
        raise ValueError(f"unknown scenario: {scenario_id!r}")
    return SCENARIOS[scenario_id]


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to draw one dataset and its counterfactual truth."""

    scenario_id: str
    beta: tuple[float, ...]  # treatment model, intercept first
    alpha: tuple[float, ...]  # outcome model, intercept first (no A term)
    beta_trt: float
    n_subjects: int
    analysis_covariate_mask: tuple[bool, ...]

    def __post_init__(self):
        k = len(self.beta) - 1
        if len(self.alpha) - 1 != k or len(self.analysis_covariate_mask) != k:
            raise ValueError("coefficient/mask lengths are inconsistent")


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
    row = _scenario(scenario_id)
    beta = row.beta if beta0_override is None else (beta0_override,) + row.beta[1:]
    return ScenarioSpec(scenario_id, beta, row.alpha, beta_trt, n_subjects, row.mask)


def generate(
    spec: ScenarioSpec, rng: np.random.Generator
) -> tuple[Dataset, CounterfactualTruth]:
    """One dataset plus per-subject potential-outcome probabilities.

    The returned dataset contains only the columns selected by the analysis
    mask; the truth is always computed from the full generative model.
    """
    n = spec.n_subjects
    X = _scenario(spec.scenario_id).draw(n, rng)
    beta = np.asarray(spec.beta)
    alpha = np.asarray(spec.alpha)
    p_trt = expit(beta[0] + X @ beta[1:])
    a = (rng.random(n) < p_trt).astype(float)
    eta_out = alpha[0] + X @ alpha[1:]
    p1 = expit(eta_out + spec.beta_trt)
    p0 = expit(eta_out)
    y = (rng.random(n) < np.where(a == 1.0, p1, p0)).astype(float)
    mask = np.asarray(spec.analysis_covariate_mask)
    return Dataset(X[:, mask], a, y), CounterfactualTruth(p1, p0)


# ---------------------------------------------------------------------------
# truth oracle and calibration
# ---------------------------------------------------------------------------

#: calibration bisects the treatment coefficient on [0, CALIBRATION_UPPER]
CALIBRATION_UPPER = 6.0
CALIBRATION_MAX_ITERATIONS = 80


def _outcome_law(spec: ScenarioSpec) -> tuple[np.ndarray, np.ndarray]:
    """Untreated outcome linear predictor at every covariate pattern, and the
    pattern probabilities.

    The predictor is additive over the factors, so it is built as an outer
    sum of their contributions and no design matrix is formed.
    """
    alpha = np.asarray(spec.alpha)
    eta, prob = alpha[:1], np.ones(1)
    column = 1
    for values, probabilities in _scenario(spec.scenario_id).law():
        width = values.shape[1]
        eta = np.add.outer(eta, values @ alpha[column : column + width]).ravel()
        prob = np.outer(prob, probabilities).ravel()
        column += width
    return eta, prob


def _estimand(estimand: str) -> Estimand:
    """The ``ESTIMANDS`` row of ``estimand``; ValueError for an unknown id."""
    if estimand not in ESTIMANDS:
        raise ValueError(f"unknown estimand: {estimand!r}")
    return ESTIMANDS[estimand]


def _effect_curve(spec: ScenarioSpec, estimand: str) -> Callable[[float], float]:
    """Marginal effect of ``spec``'s outcome model as a function of the
    treatment coefficient, summed exactly over the covariate law and
    contrasted as the estimators contrast their means.

    numpy's pairwise ``np.sum`` calls no BLAS, so the bits do not depend on
    the BLAS thread count (a ``ddot`` splits its sum across threads)."""
    eta, prob = _outcome_law(spec)
    m0 = float(np.sum(prob * expit(eta)))
    contrast = _estimand(estimand).contrast
    return lambda beta_trt: float(contrast(float(np.sum(prob * expit(eta + beta_trt))), m0))


def true_marginal_effect(spec: ScenarioSpec, estimand: str = "rd") -> float:
    """Marginal effect implied by the generative model, on the estimand's
    reported scale (a risk difference, or a log odds ratio for "or").

    Sums both counterfactual outcome probabilities over the covariate law,
    so no Monte Carlo noise enters.  Only the outcome model matters: the
    treatment model does not move it.
    """
    return _effect_curve(spec, estimand)(spec.beta_trt)


def calibrate_beta_trt(
    scenario_id: str,
    target: float,
    estimand: str = "rd",
    tolerance: float | None = None,
) -> float:
    """Treatment coefficient achieving a target marginal effect, by bisection
    on ``[0, CALIBRATION_UPPER]`` in at most ``CALIBRATION_MAX_ITERATIONS``
    halvings.

    ``target`` and ``tolerance`` (by default the estimand's) are on the
    estimand's target scale: a risk difference, or an odds ratio for "or".
    The objective is the exact marginal effect, a deterministic, strictly
    increasing function of the coefficient, so bisection is well posed.
    """
    row = _estimand(estimand)
    if tolerance is None:
        tolerance = row.tolerance
    null_value = row.to_target(0.0)
    if target == null_value:
        return 0.0
    if target < null_value:
        raise NotBracketedError("targets below the null effect are not searched")

    curve = _effect_curve(make_scenario(scenario_id, 1, 0.0), estimand)

    def objective(beta_trt: float) -> float:
        return row.to_target(curve(beta_trt))

    if objective(CALIBRATION_UPPER) < target - tolerance:
        raise NotBracketedError(
            f"target {target} not reachable with coefficient at most "
            f"{CALIBRATION_UPPER}"
        )
    lo, hi = 0.0, CALIBRATION_UPPER
    for _ in range(CALIBRATION_MAX_ITERATIONS):
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
class MethodMetrics:
    mean_bias: float | None
    rmse: float | None
    mae: float | None
    coverage: float | None
    median_ci_length: float | None
    n_failures: int


def run_replicate(
    spec: ScenarioSpec,
    methods: tuple[str, ...],
    estimand: str,
    bootstrap: int,
    master_seed: int,
    replicate_index: int,
) -> dict[str, EffectEstimate]:
    """Generate one dataset and run every requested method on it, with
    ``bootstrap`` resamples for the g-computation intervals (none at 0).

    All randomness comes from substreams keyed by (master seed, scenario,
    replicate index, purpose), so results are independent of scheduling.
    Statistical failures come back recorded in the estimates, so any
    exception, an ``EstimationError`` that escaped among them, is re-raised
    as a ``ReplicateError`` naming the replicate.
    """
    try:
        data_rng = derive_substream(
            master_seed, spec.scenario_id, replicate_index, "data"
        )
        data, _ = generate(spec, data_rng)
        boot_rng = derive_substream(
            master_seed, spec.scenario_id, replicate_index, "bootstrap"
        )
        return estimate_effects(
            data, tuple(methods), estimand, bootstrap=bootstrap, rng=boot_rng
        )
    except Exception as exc:
        # the message carries the cause: a process pool pickles only the args
        raise ReplicateError(
            f"replicate {replicate_index} of scenario {spec.scenario_id!r} at "
            f"master seed {master_seed} raised {type(exc).__name__}: {exc}"
        ) from exc


def summarize(
    results: list[dict[str, EffectEstimate]], true_effect: float
) -> dict[str, MethodMetrics]:
    """Bias/RMSE/MAE/coverage/CI-length/failure table over replicates, one
    entry per method in first-seen order.

    Failed estimates are excluded from every metric and only counted; CI
    metrics additionally require an interval to be present.
    """
    metrics = {}
    for m in dict.fromkeys(name for estimates in results for name in estimates):
        errors = []
        lengths = []
        covered = []
        n_fail = 0
        for estimates in results:
            est = estimates.get(m)
            if est is None:
                continue
            if est.failed:
                n_fail += 1
                continue
            errors.append(est.point - true_effect)
            if est.ci is not None:
                lo, hi = est.ci
                lengths.append(hi - lo)
                covered.append(1.0 if lo <= true_effect <= hi else 0.0)
        errors_arr = np.asarray(errors)
        metrics[m] = MethodMetrics(
            mean_bias=float(errors_arr.mean()) if errors else None,
            rmse=float(np.sqrt((errors_arr**2).mean())) if errors else None,
            mae=float(np.median(np.abs(errors_arr))) if errors else None,
            coverage=float(np.mean(covered)) if covered else None,
            median_ci_length=float(np.median(lengths)) if lengths else None,
            n_failures=n_fail,
        )
    return metrics


def _replicate_task(args) -> dict[str, EffectEstimate]:
    return run_replicate(*args)


def run_study(
    spec: ScenarioSpec,
    methods: tuple[str, ...],
    estimand: str,
    n_replicates: int,
    bootstrap: int,
    master_seed: int,
    true_effect: float,
    workers: int = 1,
) -> tuple[list[dict[str, EffectEstimate]], dict[str, MethodMetrics]]:
    """Run ``n_replicates`` independent replicates, optionally in parallel,
    and summarize them against ``true_effect``.

    Results come back in replicate order, so output is identical for any
    worker count.  Each worker process runs its BLAS on one thread, under
    any start method, so the workers are the only parallelism.
    """
    tasks = [
        (spec, methods, estimand, bootstrap, master_seed, i)
        for i in range(n_replicates)
    ]
    if workers <= 1:
        results = [_replicate_task(t) for t in tasks]
    else:
        # imported here: the pool's modules load only into runs that use it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, initializer=cap_blas_threads) as pool:
            chunk = max(1, n_replicates // (workers * 8))
            results = list(pool.map(_replicate_task, tasks, chunksize=chunk))
    return results, summarize(results, true_effect)
