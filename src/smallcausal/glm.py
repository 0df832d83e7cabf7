"""Deterministic least-squares and logistic fitting with robust covariances.

Everything here is a pure function of its inputs.  Fits are immutable
dataclasses and safe to share across threads.  Rank problems raise instead of
silently dropping columns, because the simulation harness counts failures.
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


@dataclass(frozen=True)
class LinearFit:
    """Least-squares fit: coefficients plus the pieces robust SEs need."""

    coefficients: np.ndarray
    residuals: np.ndarray
    hat_diagonals: np.ndarray
    covariance: np.ndarray
    covariance_kind: str  # "HC0" | "HC3" | "weighted-sandwich"
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
    converged: bool
    iterations: int
    max_abs_score: float
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


def _checked_r(R: np.ndarray, on_deficient: type[Exception] = RankDeficientError):
    """A QR's R factor (``mode="r"`` where Q is unused), rank-checked by pivots."""
    piv = np.abs(np.diag(R))
    if piv.size == 0 or piv.max() == 0.0 or piv.min() < PIVOT_RTOL * piv.max():
        raise on_deficient("design matrix is numerically rank deficient")
    return R


def _xtx_inverse(R: np.ndarray) -> np.ndarray:
    """(M'M)^-1 from the R factor of M's QR decomposition."""
    # numpy, not scipy: a matrix right-hand side to scipy's solve_triangular
    # wakes the BLAS thread pool scipy ships beside numpy's, and it spins
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
        return LinearFit(beta, residuals, hat, cov, "HC0", xtx_inverse=xtx_inv)

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
    return LinearFit(beta, residuals, hat, cov, "weighted-sandwich", weights=w)


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


def _plateaued(deviance, deviance_prev, margin: float = 1.0):
    """The deviance-plateau rule; ``margin`` < 1 tightens it."""
    return abs(deviance - deviance_prev) <= margin * PLATEAU_RTOL * (
        abs(deviance) + 0.1
    )


def fit_logistic(
    X: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray | None = None,
    max_iter: int = IRLS_MAX_ITER,
    tol: float = IRLS_TOL,
) -> LogisticFit:
    """Logit-link binomial fit by IRLS from a zero start.

    Converged once the max absolute coefficient change drops to ``tol`` or
    the max absolute score component is numerically zero.  A fit that is
    still walking at the
    iteration cap is accepted as converged when its deviance has plateaued
    (relative change below ``PLATEAU_RTOL`` per iteration, the deviance-based
    criterion GLM software uses); such boundary fits come back with
    ``separation_flag`` set rather than raising, since several estimators can
    use their predictions even when the coefficients are not interpretable.
    Anything else at the cap raises NotConvergedError.
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

    n, p = X.shape
    beta = np.zeros(p)
    converged = False
    iterations = 0
    deviance_prev = None
    deviance_plateaued = False

    for it in range(1, max_iter + 1):
        eta = X @ beta
        prob = expit(eta)
        score = X.T @ (w * (y - prob))
        if np.abs(score).max() <= IRLS_SCORE_TOL:
            converged = True
            break
        irls_w = w * prob * (1.0 - prob)
        # at the zero start the irls weights are uniform, so the first
        # iteration's pivot ratios are those of X itself and double as the
        # design rank check
        R = _checked_r(
            np.linalg.qr(np.sqrt(irls_w)[:, None] * X, mode="r"),
            on_deficient=RankDeficientError if it == 1 else NotConvergedError,
        )
        # (X'WX) step = score, solved through the R factor so saturated rows
        # (irls weight exactly 0) still contribute their score
        half = solve_triangular(R, score, trans=1)
        step = solve_triangular(R, half)
        if not np.isfinite(step).all():
            raise NotConvergedError("IRLS step is non-finite")
        beta = beta + step
        iterations = it
        if it >= max_iter - 1:  # plateau detection needs the final pair only
            deviance = float(_binomial_deviance(y, expit(X @ beta), w))
            if deviance_prev is not None:
                deviance_plateaued = _plateaued(deviance, deviance_prev)
            deviance_prev = deviance
        if np.abs(step).max() <= tol:
            converged = True
            break

    if iterations == 0:
        _checked_r(np.linalg.qr(X, mode="r"))  # an exact start still checks X

    eta = X @ beta
    prob = expit(eta)
    score = X.T @ (w * (y - prob))
    max_abs_score = float(np.abs(score).max())
    if not converged and not deviance_plateaued:
        raise NotConvergedError(
            f"IRLS did not converge in {max_iter} iterations "
            f"(max |score| = {max_abs_score:.3g})"
        )
    converged = True

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
        converged=converged,
        iterations=iterations,
        max_abs_score=max_abs_score,
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
    """Newton steps and the pivot-ratio check through the QR of ``sqrt(w)X``,
    as :func:`fit_logistic` takes them; returns ``(step, failed)``."""
    R = np.linalg.qr(np.sqrt(irls_w)[:, :, None] * X, mode="r")
    piv = np.abs(np.diagonal(R, axis1=1, axis2=2))
    failed = ~(
        (piv.max(axis=1) > 0.0)
        & (piv.min(axis=1) >= 10 * PIVOT_RTOL * piv.max(axis=1))
    )
    R[failed] = np.eye(R.shape[-1])  # a harmless solve; the row is dropped
    # solved through R so saturated rows (irls weight exactly 0) still
    # contribute their score
    half = np.linalg.solve(np.swapaxes(R, 1, 2), score[:, :, None])
    return np.linalg.solve(R, half)[:, :, 0], failed


def fit_logistic_batch(
    X: np.ndarray, y: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Frequency-weighted logistic fits of a stack of resamples, by one IRLS.

    ``X`` is one ``(n, p)`` design shared by every resample or a ``(b, n,
    p)`` stack, ``y`` broadcasts against ``(b, n)`` and ``counts[j, i]`` is
    how often row ``i`` appears in resample ``j``.  The MLE on the duplicated
    rows equals the count-weighted MLE on the original rows, so row ``j``
    reproduces ``fit_logistic(X[j][idx], y[idx])`` up to rounding.  The stop
    rules are those of :func:`fit_logistic`.

    Each Newton step solves the weighted Gram ``X'WX``, factored by
    Cholesky; with a shared design the Gram is one product with the row
    outer products of ``X``.  ``diag(L)`` equals ``|diag(R)|`` of the QR in
    exact arithmetic, but it carries the Gram's rounding, about
    ``sqrt((n + p) eps)`` of the largest pivot.  So a row whose Cholesky
    pivot ratio is below that bound, or every row when the batched Cholesky
    fails, takes the QR step and the QR pivot check instead.

    Returns ``(coefficients, settled)``.  A row is settled only when it is
    far from every failure rule of the scalar fit: its design is finite,
    every pivot ratio is at least ``10 * PIVOT_RTOL``, every step is finite,
    and it converges, or plateaus at the cap by half the scalar margin.
    Callers refit unsettled rows with :func:`fit_logistic`, which decides
    their fate; their coefficients come back as zeros.
    """
    X = np.asarray(X, dtype=float)
    counts = np.asarray(counts, dtype=float)
    b, n = counts.shape
    p = X.shape[-1]
    shared = X.ndim == 2
    y = np.broadcast_to(np.asarray(y, dtype=float), counts.shape)
    beta = np.zeros((b, p))
    finite = np.isfinite(X).all(axis=(-2, -1))  # one flag for a shared design
    settled = np.broadcast_to(finite & (n >= p), (b,)).copy()
    if shared:
        outer = (X[:, :, None] * X[:, None, :]).reshape(n, p * p)
    cholesky_rtol = math.sqrt((n + p) * np.finfo(float).eps)
    deviance_prev = np.full(b, np.nan)
    # the rows still iterating, and their slices of every input
    rows = np.flatnonzero(settled)
    Xr = X if shared or rows.size == b else X[rows]
    wr, yr, br = counts[rows], y[rows], beta[rows]
    for it in range(1, IRLS_MAX_ITER + 1):
        if rows.size == 0:
            break
        prob = expit(_linear_predictors(Xr, br))
        score = _weighted_column_sums(Xr, wr * (yr - prob))
        converged = np.abs(score).max(axis=1) <= IRLS_SCORE_TOL
        # every iterating row is factorised, so the first factorisation is
        # the design rank check whether or not the score stops the fit
        irls_w = wr * prob * (1.0 - prob)
        if shared:
            gram = (irls_w @ outer).reshape(-1, p, p)
        else:
            gram = (np.swapaxes(Xr, 1, 2) * irls_w[:, None, :]) @ Xr
        try:
            piv = np.diagonal(np.linalg.cholesky(gram), axis1=1, axis2=2)
            use_qr = ~(piv.min(axis=1) >= cholesky_rtol * piv.max(axis=1))
        except np.linalg.LinAlgError:  # raised for the whole stack
            use_qr = np.ones(rows.size, dtype=bool)
        gram[use_qr] = np.eye(p)  # a harmless solve; the QR step replaces it
        step = np.linalg.solve(gram, score[:, :, None])[:, :, 0]
        failed = np.zeros(rows.size, dtype=bool)
        if use_qr.any():
            step[use_qr], failed[use_qr] = _qr_steps(
                Xr if shared else Xr[use_qr], irls_w[use_qr], score[use_qr]
            )
        step[converged | failed] = 0.0
        failed |= ~np.isfinite(step).all(axis=1)
        step[failed] = 0.0
        br += step
        if it >= IRLS_MAX_ITER - 1:
            prob = expit(_linear_predictors(Xr, br))
            deviance = _binomial_deviance(yr, prob, wr)
            if it == IRLS_MAX_ITER:
                # a scalar fit near the plateau bound may fall either side,
                # so only a clear plateau settles here
                converged |= _plateaued(deviance, deviance_prev[rows], margin=0.5)
            deviance_prev[rows] = deviance
        converged |= np.abs(step).max(axis=1) <= IRLS_TOL
        converged &= ~failed
        beta[rows[converged]] = br[converged]
        settled[rows[failed]] = False
        keep = ~(converged | failed)
        if not keep.all():
            rows, wr, yr, br = (a[keep] for a in (rows, wr, yr, br))
            if not shared:
                Xr = Xr[keep]
    settled[rows] = False  # still walking at the cap
    return beta, settled


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
