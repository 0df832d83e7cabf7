"""Deterministic least-squares and logistic fitting with robust covariances.

Everything here is a pure function of its inputs.  Fits are immutable
dataclasses and safe to share across threads.  Rank problems raise instead of
silently dropping columns, because the simulation harness counts failures.

Every logistic fit runs through one IRLS kernel, :func:`fit_logistic_batch`,
which fits a stack of count-weighted resamples and returns a status code per
row.  :func:`fit_logistic` is its one-row call and raises on a failure code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import expit, ndtri

from .errors import (
    LeverageOneError,
    NotConvergedError,
    RankDeficientError,
)

# pivot below this fraction of the largest pivot counts as rank deficiency
PIVOT_RTOL = 1e-10

IRLS_TOL = 1e-8
# the score-based stop is kept near machine zero so that saturated models
# reproduce closed-form answers (group means) to 1e-10 or better; ordinary
# fits stop on the coefficient-change criterion instead
IRLS_SCORE_TOL = 1e-11
IRLS_MAX_ITER = 25
# a fit still walking at the cap counts as a boundary optimum when its
# deviance improves by less than this per iteration (relative); separation
# walks shrink the deviance geometrically, so anything genuinely divergent
# or oscillating stays above this
PLATEAU_RTOL = 1e-4

# |coefficient| beyond this, or fitted probabilities this close to {0, 1},
# flag the fit as separated
SEPARATION_COEF_BOUND = 15.0
SEPARATION_PROB_EPS = 1e-10

LEVERAGE_EPS = 1e-12

# fit_logistic_batch status codes, one per row; the first two are usable fits
CONVERGED, PLATEAU, RANK_DEFICIENT, NOT_CONVERGED, NON_FINITE = range(5)


@dataclass(frozen=True)
class LinearFit:
    """Least-squares fit: coefficients plus the pieces robust SEs need."""

    coefficients: np.ndarray
    residuals: np.ndarray
    hat_diagonals: np.ndarray
    covariance: np.ndarray
    weights: np.ndarray | None = None
    xtx_inverse: np.ndarray | None = field(repr=False, default=None)  # unweighted


@dataclass(frozen=True)
class LogisticFit:
    """Logistic MLE via IRLS.

    ``covariance`` is the inverse observed information (or the weighted
    sandwich when prior weights were supplied); it is None when the
    information matrix is numerically singular at the final iterate, which is
    the signature of a (quasi-)separated fit.
    """

    coefficients: np.ndarray
    covariance: np.ndarray | None
    iterations: int
    separation_flag: bool
    probabilities: np.ndarray = field(repr=False, default=None)
    residuals: np.ndarray = field(repr=False, default=None)
    weights: np.ndarray | None = field(repr=False, default=None)


def _as_design(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("design matrix must be 2-dimensional")
    if not np.isfinite(X).all():
        raise ValueError("design matrix contains non-finite values")
    if X.shape[0] < X.shape[1]:
        raise RankDeficientError(
            f"{X.shape[0]} rows cannot support {X.shape[1]} parameters"
        )
    return X


def _checked_r(R: np.ndarray) -> np.ndarray:
    """A QR's R factor (``mode="r"`` where Q is unused), rank-checked by pivots."""
    piv = np.abs(np.diag(R))
    if piv.size == 0 or piv.max() == 0.0 or piv.min() < PIVOT_RTOL * piv.max():
        raise RankDeficientError("design matrix is numerically rank deficient")
    return R


def _xtx_inverse(R: np.ndarray) -> np.ndarray:
    """(M'M)^-1 from the R factor of M's QR decomposition."""
    # numpy, not scipy: a matrix right-hand side to scipy's solve_triangular
    # woke the BLAS thread pool scipy ships beside numpy's, and it spun.  Both
    # pools now run one thread (blas.cap_blas_threads); numpy stays because
    # scipy would move every covariance, so every SE, at rounding level
    r_inv = np.linalg.inv(R)
    return r_inv @ r_inv.T


def fit_ols(
    X: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None
) -> LinearFit:
    """Ordinary (or weighted) least squares via QR.

    The default covariance is HC0 for an unweighted fit and the
    fixed-weights sandwich for a weighted one; callers wanting HC3 use
    :func:`hc3_covariance`.

    Raises RankDeficientError when a pivot falls below ``PIVOT_RTOL`` times
    the largest pivot.
    """
    X = _as_design(X)
    y = np.asarray(y, dtype=float)
    if y.shape != (X.shape[0],):
        raise ValueError("response length does not match design rows")
    if not np.isfinite(y).all():
        raise ValueError("response contains non-finite values")

    if weights is None:
        Q, R = np.linalg.qr(X)
        beta = solve_triangular(_checked_r(R), Q.T @ y)
        residuals = y - X @ beta
        hat = np.einsum("ij,ij->i", Q, Q)
        xtx_inv = _xtx_inverse(R)
        meat = (X * residuals[:, None] ** 2).T @ X
        cov = xtx_inv @ meat @ xtx_inv
        return LinearFit(beta, residuals, hat, cov, xtx_inverse=xtx_inv)

    w = np.asarray(weights, dtype=float)
    if w.shape != y.shape:
        raise ValueError("weights length does not match response")
    if not np.isfinite(w).all() or (w < 0).any():
        raise ValueError("weights must be finite and nonnegative")
    sw = np.sqrt(w)
    Q, R = np.linalg.qr(sw[:, None] * X)
    beta = solve_triangular(_checked_r(R), Q.T @ (sw * y))
    residuals = y - X @ beta
    hat = np.einsum("ij,ij->i", Q, Q)
    bread_inv = _xtx_inverse(R)  # (X'WX)^-1
    meat = (X * (w * residuals)[:, None] ** 2).T @ X
    cov = bread_inv @ meat @ bread_inv
    return LinearFit(beta, residuals, hat, cov, weights=w)


def hc3_covariance(fit: LinearFit, X: np.ndarray) -> np.ndarray:
    """HC3 sandwich: squared residuals inflated by (1 - h_ii)^-2.

    ``X`` is the design ``fit`` was computed from; the fit's (X'X)^-1 is
    reused.  Raises LeverageOneError when any hat diagonal is numerically 1 (a
    self-fitting observation; the caller records a method failure).
    """
    if fit.weights is not None:
        raise ValueError("HC3 is defined here for unweighted fits only")
    X = np.asarray(X, dtype=float)
    h = fit.hat_diagonals
    if (h >= 1.0 - LEVERAGE_EPS).any():
        raise LeverageOneError("hat diagonal numerically equal to 1")
    omega = (fit.residuals / (1.0 - h)) ** 2
    meat = (X * omega[:, None]).T @ X
    return fit.xtx_inverse @ meat @ fit.xtx_inverse


def _binomial_deviance(y: np.ndarray, prob: np.ndarray, w: np.ndarray) -> np.ndarray:
    """-2 log-likelihood over the last axis, with 0*log(0) treated as 0 at
    saturated points."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ll_terms = np.where(y == 1.0, np.log(prob), np.log1p(-prob))
    ll_terms = np.where(np.isfinite(ll_terms), ll_terms, -745.0)  # log(min double)
    return -2.0 * (w * ll_terms).sum(axis=-1)


def _plateaued(deviance, deviance_prev):
    """The deviance-plateau rule."""
    return abs(deviance - deviance_prev) <= PLATEAU_RTOL * (abs(deviance) + 0.1)


_FAILURES = {
    RANK_DEFICIENT: (RankDeficientError, "design matrix is numerically rank deficient"),
    NOT_CONVERGED: (NotConvergedError, "IRLS did not converge"),
    NON_FINITE: (ValueError, "design matrix contains non-finite values"),
}


def fit_logistic(
    X: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None
) -> LogisticFit:
    """Logit-link binomial fit: the one-row call of :func:`fit_logistic_batch`.

    A fit accepted at the deviance plateau comes back with
    ``separation_flag`` set rather than raising, since several estimators can
    use their predictions even when the coefficients are not interpretable.
    The failure codes raise: RankDeficientError, NotConvergedError, or
    ValueError for a non-finite design.
    """
    X = _as_design(X)
    y = np.asarray(y, dtype=float)
    if y.shape != (X.shape[0],):
        raise ValueError("response length does not match design rows")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("logistic response must be 0/1")
    if weights is None:
        w = np.ones_like(y)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != y.shape:
            raise ValueError("weights length does not match response")
        if not np.isfinite(w).all() or (w < 0).any():
            raise ValueError("weights must be finite and nonnegative")

    (beta,), (status,), (iterations,) = fit_logistic_batch(X, y, w[None])
    prob = expit(X @ beta)
    if status in _FAILURES:
        error, message = _FAILURES[status]
        score = X.T @ (w * (y - prob))
        raise error(
            f"{message} after {iterations} iterations "
            f"(max |score| = {np.abs(score).max():.3g})"
        )

    separated = bool(
        np.abs(beta).max() > SEPARATION_COEF_BOUND
        or prob.min() < SEPARATION_PROB_EPS
        or prob.max() > 1.0 - SEPARATION_PROB_EPS
    )

    irls_w = w * prob * (1.0 - prob)
    covariance: np.ndarray | None
    try:
        R = _checked_r(np.linalg.qr(np.sqrt(irls_w)[:, None] * X, mode="r"))
    except RankDeficientError:
        covariance = None
    else:
        if weights is None:
            covariance = _xtx_inverse(R)  # inverse observed information
        else:
            bread_inv = _xtx_inverse(R)
            meat = (X * (w * (y - prob))[:, None] ** 2).T @ X
            covariance = bread_inv @ meat @ bread_inv

    return LogisticFit(
        coefficients=beta,
        covariance=covariance,
        iterations=int(iterations),
        separation_flag=separated,
        probabilities=prob,
        residuals=y - prob,
        weights=None if weights is None else w,
    )


def _linear_predictors(X: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """``(b, n)`` linear predictors of a shared ``(n, p)`` or a ``(b, n, p)``
    design."""
    if X.ndim == 2:
        return coefficients @ X.T
    return (X @ coefficients[:, :, None])[:, :, 0]


def _weighted_column_sums(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``(b, p)`` sums ``v[j] @ X[j]`` of a shared or a stacked design."""
    if X.ndim == 2:
        return v @ X
    return (v[:, None, :] @ X)[:, 0]


def _qr_steps(
    X: np.ndarray, irls_w: np.ndarray, score: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps and the pivot-ratio check through the QR of ``sqrt(w)X``;
    returns ``(step, failed)``.  ``(X'WX) step = score`` is solved through R,
    so saturated rows (irls weight exactly 0) still contribute their score."""
    R = np.linalg.qr(np.sqrt(irls_w)[:, :, None] * X, mode="r")
    piv = np.abs(np.diagonal(R, axis1=1, axis2=2))
    top = piv.max(axis=1)
    failed = ~((top > 0.0) & (piv.min(axis=1) >= PIVOT_RTOL * top))
    if failed.any():
        R[failed] = np.eye(R.shape[-1])  # a harmless solve; the row has failed
    if len(R) == 1:
        # a single fit solves on vectors with scipy, not with numpy's batched
        # solve, which rounds differently: greedy matching decides exact
        # distance ties by rounding, so the propensity fit's last bits matter
        half = solve_triangular(R[0], score[0], trans=1, check_finite=False)
        return solve_triangular(R[0], half, check_finite=False)[None], failed
    half = np.linalg.solve(np.swapaxes(R, 1, 2), score[:, :, None])
    return np.linalg.solve(R, half)[:, :, 0], failed


def _gram_steps(
    X: np.ndarray, outer: np.ndarray | None, irls_w: np.ndarray, score: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps through the Cholesky of the weighted Gram ``X'WX``; with
    a shared design the Gram is one product with its row ``outer`` products.
    ``diag(L)`` equals ``|diag(R)|`` of the QR of ``sqrt(W)X`` in exact
    arithmetic but carries the Gram's rounding, about ``sqrt((n + p) eps)``
    of the largest pivot.  So a row below that pivot ratio, or every row
    when the batched Cholesky fails, takes the QR step.  Returns ``(step,
    failed)``."""
    n, p = X.shape[-2:]
    if outer is not None:
        gram = (irls_w @ outer).reshape(-1, p, p)
    else:
        gram = (np.swapaxes(X, 1, 2) * irls_w[:, None, :]) @ X
    use_qr = np.ones(len(gram), dtype=bool)
    try:
        piv = np.diagonal(np.linalg.cholesky(gram), axis1=1, axis2=2)
        rtol = math.sqrt((n + p) * np.finfo(float).eps)
        use_qr = ~(piv.min(axis=1) >= rtol * piv.max(axis=1))
    except np.linalg.LinAlgError:  # raised for the whole stack
        pass
    gram[use_qr] = np.eye(p)  # a harmless solve; the QR step replaces it
    step = np.linalg.solve(gram, score[:, :, None])[:, :, 0]
    failed = np.zeros(len(gram), dtype=bool)
    if use_qr.any():
        step[use_qr], failed[use_qr] = _qr_steps(
            X if outer is not None else X[use_qr], irls_w[use_qr], score[use_qr]
        )
    return step, failed


def fit_logistic_batch(
    X: np.ndarray, y: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frequency-weighted logistic fits of a stack of resamples, by one IRLS
    from a zero start.

    ``X`` is one ``(n, p)`` design shared by every resample or a ``(b, n,
    p)`` stack, ``y`` is the ``(n,)`` response and ``counts[j, i]`` is how
    often row ``i`` appears in resample ``j`` (or any nonnegative prior
    weight).  The MLE on the duplicated rows equals the count-weighted MLE on
    the original rows, so row ``j`` fits ``X[j][idx], y[idx]``.  A
    non-finite design entry matters only in a row with a positive count.

    A row converges once its max absolute coefficient change drops to
    ``IRLS_TOL`` or its max absolute score component to ``IRLS_SCORE_TOL``.
    A row still walking at ``IRLS_MAX_ITER`` is accepted when its deviance
    has plateaued (relative change below ``PLATEAU_RTOL`` in the last
    iteration, the criterion GLM software uses).

    A batch takes Gram steps (:func:`_gram_steps`).  A single fit (``b ==
    1``) takes the QR step, which is better conditioned and keeps its last
    bits (:func:`_qr_steps`).  A QR step fails when a pivot falls below
    ``PIVOT_RTOL`` times the largest.  At the zero start the IRLS weights
    are the counts, so the first factorisation is the design rank check,
    even of a row whose score is already zero.

    Returns ``(coefficients, status, iterations)``, each with one entry per
    row.  ``status`` is ``CONVERGED``, ``PLATEAU``, ``RANK_DEFICIENT`` (the
    first factorisation failed, or ``n < p``), ``NOT_CONVERGED`` (a later
    factorisation failed, a step was not finite, or the cap was reached
    without a plateau) or ``NON_FINITE`` (the design).  The coefficients of
    a failed row are its last iterate.
    """
    X = np.asarray(X, dtype=float)
    counts = np.asarray(counts, dtype=float)
    b, n = counts.shape
    p = X.shape[-1]
    shared = X.ndim == 2
    y = np.asarray(y, dtype=float)
    beta = np.zeros((b, p))
    iterations = np.zeros(b, dtype=int)
    # NOT_CONVERGED marks the rows still iterating, and stays at the cap
    status = np.full(b, RANK_DEFICIENT if n < p else NOT_CONVERGED)
    finite = np.isfinite(X)
    if not finite.all():
        status[(~finite.all(axis=-1) & (counts > 0)).any(axis=-1)] = NON_FINITE
        X = np.where(finite, X, 0.0)  # an unused row then adds exact zeros
    outer = None
    if shared and b > 1:
        outer = (X[:, :, None] * X[:, None, :]).reshape(n, p * p)
    # the rows still iterating, and their slices of every input
    rows = np.flatnonzero(status == NOT_CONVERGED)
    Xr, wr, br = X, counts, beta
    if rows.size < b:
        Xr = X if shared else X[rows]
        wr, br = counts[rows], beta[rows]
    deviance_prev = np.full(rows.size, np.nan)
    for it in range(1, IRLS_MAX_ITER + 1):
        if rows.size == 0:
            break
        prob = expit(_linear_predictors(Xr, br))
        score = _weighted_column_sums(Xr, wr * (y - prob))
        converged = np.abs(score).max(axis=1) <= IRLS_SCORE_TOL
        irls_w = wr * prob * (1.0 - prob)
        if b > 1:
            step, singular = _gram_steps(Xr, outer, irls_w, score)
        else:
            step, singular = _qr_steps(Xr, irls_w, score)
        if it > 1:
            singular &= ~converged  # a zero score stops the fit first
        else:
            converged &= ~singular
        stopped = converged | singular
        step[stopped] = 0.0
        size = np.abs(step).max(axis=1)  # NaN or inf for a non-finite step
        diverged = ~np.isfinite(size)
        step[diverged] = 0.0
        br += step
        stopped |= diverged  # the rows that took no step
        done = stopped | (size <= IRLS_TOL)
        if it >= IRLS_MAX_ITER - 1:  # the plateau rule needs the final pair
            deviance = _binomial_deviance(y, expit(_linear_predictors(Xr, br)), wr)
            plateau = _plateaued(deviance, deviance_prev)
            deviance_prev = deviance
        at_cap = it == IRLS_MAX_ITER
        if not (at_cap or done.any()):
            continue
        code = np.where(singular | diverged, NOT_CONVERGED, CONVERGED)
        if it == 1:
            code[singular] = RANK_DEFICIENT
        if at_cap:
            code[~done] = np.where(plateau, PLATEAU, NOT_CONVERGED)[~done]
            done[:] = True
        beta[rows[done]] = br[done]
        status[rows[done]] = code[done]
        iterations[rows[done]] = it - stopped[done]
        keep = ~done
        rows, wr, br, deviance_prev = (a[keep] for a in (rows, wr, br, deviance_prev))
        if not shared:
            Xr = Xr[keep]
    return beta, status, iterations


def weighted_sandwich_covariance(
    fit: LinearFit | LogisticFit, X: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """A^-1 B A^-1 with bread A = sum w_i d2l_i and meat B = sum w_i^2 s_i s_i'.

    Weights are treated as fixed constants.  With unit weights and a linear
    fit this reduces to HC0.
    """
    X = np.asarray(X, dtype=float)
    w = np.asarray(weights, dtype=float)
    resid = fit.residuals
    if isinstance(fit, LogisticFit):
        prob = fit.probabilities
        bread_w = w * prob * (1.0 - prob)
    else:
        bread_w = w
    R = _checked_r(np.linalg.qr(np.sqrt(bread_w)[:, None] * X, mode="r"))
    bread_inv = _xtx_inverse(R)
    meat = (X * (w * resid)[:, None] ** 2).T @ X
    return bread_inv @ meat @ bread_inv


def wald_ci(point: float, se: float, level: float = 0.95) -> tuple[float, float]:
    """point +/- z_{(1+level)/2} * se."""
    if se < 0:
        raise ValueError("standard error must be nonnegative")
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must be inside (0, 1)")
    z = ndtri(0.5 * (1.0 + level))  # what scipy.stats.norm.ppf computes
    return point - z * se, point + z * se
