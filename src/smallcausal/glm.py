"""Deterministic least-squares and logistic fitting with robust covariances.

Everything here is a pure function of its inputs.  Fits are immutable
dataclasses and safe to share across threads.  Rank problems raise instead of
silently dropping columns, because the simulation harness counts failures.

Every logistic fit runs through one IRLS kernel, :func:`fit_logistic_batch`,
which fits a stack of count-weighted resamples and returns a status code per
row.  :func:`fit_logistic` is its one-row call and raises on a failure code.

The logistic is :func:`expit`, which gives ``scipy.special.expit``'s bits
without importing scipy, wherever one fit's last bits matter; a batch of
resamples takes numpy's vectorised ``exp`` (:func:`expit_rows`).
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np

from . import blas
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

#: confidence level of every Wald interval, and its normal quantile
#: z_{(1+WALD_LEVEL)/2}, as scipy.stats.norm.ppf computes it
WALD_LEVEL = 0.95
WALD_Z = 1.959963984540054

# fit_logistic_batch status codes, one per row; the first two are usable fits
CONVERGED, PLATEAU, RANK_DEFICIENT, NOT_CONVERGED, NON_FINITE = range(5)


@dataclass(frozen=True)
class LinearFit:
    """Least-squares fit: coefficients plus the pieces robust SEs need."""

    coefficients: np.ndarray
    residuals: np.ndarray
    hat_diagonals: np.ndarray
    covariance: np.ndarray
    xtx_inverse: np.ndarray = field(repr=False)  # (X'WX)^-1
    weights: np.ndarray | None = None  # None for an unweighted fit


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


def expit(x: np.ndarray) -> np.ndarray:
    """The logistic ``1 / (1 + exp(-x))`` with the C library's ``exp``.

    numpy's real ``exp`` is its own vectorised routine, whose last bit
    differs from the C library's at some points; its complex ``exp`` calls
    the C library's, and at a zero imaginary part the real part is ``exp``
    itself.  So this is ``scipy.special.expit``'s formula and bits, except
    for ``x`` in (-709.78, -709), where the C library's complex ``exp``
    scales its argument and the result, below 1.2e-308, may differ by one
    subnormal ulp.
    """
    with np.errstate(over="ignore"):
        e = np.exp(np.negative(x, dtype=complex))
    return 1.0 / (1.0 + e.real)


def expit_rows(eta: np.ndarray) -> np.ndarray:
    """The logistic of a ``(b, n)`` stack of linear predictors: :func:`expit`
    for one row, numpy's vectorised ``exp`` for a batch, whose rows' last
    bits already depend on their block."""
    if len(eta) == 1:
        return expit(eta)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-eta))


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


# LAPACK's dtrtrs in numpy's OpenBLAS; None where it is not found.  Bound
# once per process: a forked worker inherits it, a spawned one binds its own
_DTRTRS = blas.scipy_dtrtrs()
_TRANS = (b"T", b"N")  # dtrtrs's trans for R x = b and for R' x = b
_ONE = ctypes.byref(ctypes.c_int64(1))
_ORDERS: dict[int, object] = {}  # k -> a reference to the integer k
# dtrtrs's status, written and never read (R's diagonal is nonzero); one
# shared by every call, since a call holds the GIL
_INFO = ctypes.byref(ctypes.c_int64())


def _solve_r(R: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """``R x = b``, or ``R' x = b`` for ``trans=1``, on the upper triangle of
    a float ``R`` with a nonzero diagonal (the rest is not read) and a
    contiguous float vector ``b``.

    This is the LAPACK call scipy's ``solve_triangular`` makes for a
    C-ordered ``R``: ``dtrtrs`` with Fortran ``A`` the C buffer of ``R``,
    read as a lower triangle with a general diagonal, ``trans="T"`` for
    ``R x = b`` and ``"N"`` for ``R' x = b``, one right-hand side, on a copy
    of ``b``.  It calls the ``dtrtrs`` of numpy's OpenBLAS through ctypes,
    as found by :func:`blas.scipy_dtrtrs`, which gives scipy's bits; where
    that finds none it solves the triangle with ``np.linalg.solve``.
    """
    if _DTRTRS is None:
        upper = np.triu(R)
        return np.linalg.solve(upper.T if trans else upper, b)
    k = len(b)
    x = (ctypes.c_double * k).from_buffer_copy(b)  # the copy of b it solves on
    order = _ORDERS.get(k) or _ORDERS.setdefault(k, ctypes.byref(ctypes.c_int64(k)))
    # R's bytes in C order, which dtrtrs reads and does not write
    _DTRTRS(b"L", _TRANS[trans], b"N", order, _ONE, R.tobytes(), order, x, order, _INFO)
    return np.frombuffer(x)


def _least_squares(Q: np.ndarray, R: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``R^-1 Q'z`` from a reduced QR, rank-checked by pivots; a non-finite
    ``R`` or ``Q'z`` (an overflow inside the QR) raises ValueError."""
    R, rhs = np.asarray_chkfinite(_checked_r(R)), np.asarray_chkfinite(Q.T @ z)
    return _solve_r(R, rhs)


def _xtx_inverse(R: np.ndarray) -> np.ndarray:
    """(M'M)^-1 from the R factor of M's QR decomposition."""
    # numpy's inverse, not a triangular solve on the identity: that would
    # move every covariance, so every SE, at rounding level
    r_inv = np.linalg.inv(R)
    return r_inv @ r_inv.T


def fit_ols(
    X: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None
) -> LinearFit:
    """Ordinary (or weighted) least squares via QR.

    An unweighted fit is the fit at unit weights.  The covariance is the
    fixed-weights sandwich (HC0 at unit weights); callers wanting HC3 use
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

    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != y.shape:
        raise ValueError("weights length does not match response")
    if not np.isfinite(w).all() or (w < 0).any():
        raise ValueError("weights must be finite and nonnegative")
    sw = np.sqrt(w)
    Q, R = np.linalg.qr(sw[:, None] * X)
    beta = _least_squares(Q, R, sw * y)
    residuals = y - X @ beta
    hat = np.einsum("ij,ij->i", Q, Q)
    bread_inv = _xtx_inverse(R)  # (X'WX)^-1
    meat = (X * (w * residuals)[:, None] ** 2).T @ X
    cov = bread_inv @ meat @ bread_inv
    return LinearFit(
        beta, residuals, hat, cov, bread_inv, None if weights is None else w
    )


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

    return LogisticFit(beta, covariance, int(iterations), separated)


def _resample_columns(
    column: np.ndarray | None, strata: np.ndarray | None
) -> np.ndarray | None:
    """The per-resample columns of a batch as one ``(b, k, n)`` array:
    ``column`` as one column, or ``strata`` (a stratum index 0..4) as the
    indicators of strata 1..4, stratum 0 being the reference.  None for
    neither.  Either way a design row is nonzero in at most one of them."""
    if column is not None:
        return np.asarray(column, dtype=float)[:, None, :]
    if strata is not None:
        return (strata[:, None, :] == np.arange(1, 5)[:, None]).astype(float)
    return None


def _dense(X: np.ndarray, E: np.ndarray | None) -> np.ndarray:
    """The shared block ``X`` followed by the per-resample columns ``E``
    as a ``(b, n, p)`` stack, or ``X`` itself without them."""
    if E is None:
        return X
    shared = np.broadcast_to(X, (len(E),) + X.shape)
    return np.concatenate([shared, np.swapaxes(E, 1, 2)], axis=2)


def _linear_predictors(
    X: np.ndarray, E: np.ndarray | None, coefficients: np.ndarray
) -> np.ndarray:
    """``(b, n)`` linear predictors of the shared ``(n, p_A)`` block ``X``
    followed by the per-resample columns ``E``."""
    p_A = X.shape[1]
    eta = coefficients[:, :p_A] @ X.T
    if E is not None:
        # a huge signed inverse-probability entry may overflow to +-inf, which
        # matters only in a row with a positive count, as for any non-finite
        # design entry
        with np.errstate(over="ignore"):
            eta += np.matmul(coefficients[:, None, p_A:], E)[:, 0]
    return eta


def linear_predictors(
    X: np.ndarray,
    coefficients: np.ndarray,
    column: np.ndarray | None = None,
    strata: np.ndarray | None = None,
) -> np.ndarray:
    """``(b, n)`` linear predictors of ``(b, p)`` coefficients on the
    designs :func:`fit_logistic_batch` takes, given the same way."""
    return _linear_predictors(X, _resample_columns(column, strata), coefficients)


def _weighted_column_sums(
    X: np.ndarray, E: np.ndarray | None, v: np.ndarray
) -> np.ndarray:
    """``(b, p)`` sums ``v[j] @ X_j`` over the designs of the shared block
    ``X`` followed by the per-resample columns ``E``."""
    sums = v @ X
    if E is None:
        return sums
    return np.concatenate([sums, np.matmul(E, v[:, :, None])[:, :, 0]], axis=1)


def _qr_steps(
    X: np.ndarray, irls_w: np.ndarray, score: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps and the pivot-ratio check through the QR of ``sqrt(w)X``;
    returns ``(step, failed)``.  ``(X'WX) step = score`` is solved through R,
    so saturated rows (irls weight exactly 0) still contribute their score."""
    M = np.sqrt(irls_w)[:, :, None] * X
    if len(M) == 1:
        # mode="raw" skips the triu copy: the top block of the factored
        # matrix holds R in its upper triangle, the only part trtrs reads
        R = np.swapaxes(np.linalg.qr(M, mode="raw")[0], 1, 2)[:, : M.shape[2]]
    else:
        R = np.linalg.qr(M, mode="r")
    piv = np.abs(np.diagonal(R, axis1=1, axis2=2))
    top = piv.max(axis=1)
    failed = ~((top > 0.0) & (piv.min(axis=1) >= PIVOT_RTOL * top))
    if failed.any():
        R[failed] = np.eye(R.shape[-1])  # a harmless solve; the row has failed
    if len(R) == 1:
        # a single fit solves on vectors with LAPACK's trtrs, not with
        # numpy's batched solve, which rounds differently: greedy matching
        # decides exact distance ties by rounding, so the propensity fit's
        # last bits matter
        half = _solve_r(R[0], score[0], trans=1)
        return _solve_r(R[0], half)[None], failed
    half = np.linalg.solve(np.swapaxes(R, 1, 2), score[:, :, None])
    return np.linalg.solve(R, half)[:, :, 0], failed


def _cholesky_diagonals(gram: np.ndarray) -> np.ndarray:
    """``diag(L)`` of the Cholesky factor of each Gram in the stack, NaN for
    a Gram that is not numerically positive definite.  numpy raises for the
    whole stack when one factorisation fails, so a raising stack is bisected
    down to its failing rows; a row's factor does not depend on its stack."""
    try:
        return np.diagonal(np.linalg.cholesky(gram), axis1=1, axis2=2)
    except np.linalg.LinAlgError:
        if len(gram) == 1:
            return np.full(gram.shape[:2], np.nan)
        half = len(gram) // 2
        return np.concatenate(
            [_cholesky_diagonals(gram[:half]), _cholesky_diagonals(gram[half:])]
        )


def _gram_steps(
    X: np.ndarray,
    upper: tuple[np.ndarray, np.ndarray],
    outer: np.ndarray,
    E: np.ndarray | None,
    irls_w: np.ndarray,
    score: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps through the Cholesky of the weighted Gram ``X'WX``.

    The Gram is built from blocks in the design's column order: the shared
    block's ``A'WA`` from its row ``outer`` products on the ``upper``
    triangle, the cross block ``A'WE`` as one product and, since a design
    row is nonzero in at most one per-resample column, a diagonal ``E'WE``.
    ``diag(L)`` equals ``|diag(R)|`` of the QR of ``sqrt(W)X`` in exact
    arithmetic but carries the Gram's rounding, about ``sqrt((n + p) eps)``
    of the largest pivot.  So a row below that pivot ratio, or whose
    Cholesky fails, takes the QR step on its own dense design.  Returns
    ``(step, failed)``."""
    (b, n), (p_A, p) = irls_w.shape, (X.shape[1], score.shape[1])
    gram = np.zeros((b, p, p))
    gram[:, upper[0], upper[1]] = gram[:, upper[1], upper[0]] = irls_w @ outer
    if E is not None:
        weighted = E * irls_w[:, None, :]
        cross = (weighted.reshape(-1, n) @ X).reshape(b, -1, p_A)
        gram[:, p_A:, :p_A] = cross
        gram[:, :p_A, p_A:] = np.swapaxes(cross, 1, 2)
        extra = np.arange(p_A, p)
        gram[:, extra, extra] = np.einsum("bkn,bkn->bk", weighted, E)
    piv = _cholesky_diagonals(gram)
    rtol = math.sqrt((n + p) * np.finfo(float).eps)
    use_qr = ~(piv.min(axis=1) >= rtol * piv.max(axis=1))  # NaN: not factorised
    gram[use_qr] = np.eye(p)  # a harmless solve; the QR step replaces it
    step = np.linalg.solve(gram, score[:, :, None])[:, :, 0]
    failed = np.zeros(b, dtype=bool)
    if use_qr.any():
        step[use_qr], failed[use_qr] = _qr_steps(
            _dense(X, None if E is None else E[use_qr]),
            irls_w[use_qr],
            score[use_qr],
        )
    return step, failed


def fit_logistic_batch(
    X: np.ndarray,
    y: np.ndarray,
    counts: np.ndarray,
    column: np.ndarray | None = None,
    strata: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frequency-weighted logistic fits of a stack of resamples, by one IRLS
    from a zero start.

    ``y`` is the ``(n,)`` response and ``counts[j, i]`` is how often row
    ``i`` appears in resample ``j`` (or any nonnegative prior weight).  The
    MLE on the duplicated rows equals the count-weighted MLE on the original
    rows, so row ``j`` fits ``X_j[idx], y[idx]``.  The design ``X_j`` of
    resample ``j`` is the ``(n, p_A)`` block ``X`` shared by every resample,
    followed by at most one per-resample part: ``column[j]`` of a ``(b, n)``
    column, or the four indicators of strata 1..4 of ``strata[j]``, a
    ``(b, n)`` stratum index 0..4.  No ``(b, n, p)`` design is built, except
    for a row that takes the QR step.  A non-finite design entry matters
    only in a row with a positive count.

    A row converges once its max absolute coefficient change drops to
    ``IRLS_TOL`` or its max absolute score component to ``IRLS_SCORE_TOL``.
    A row still walking at ``IRLS_MAX_ITER`` is accepted when its deviance
    has plateaued (relative change below ``PLATEAU_RTOL`` in the last
    iteration, the criterion GLM software uses).

    A batch takes Gram steps (:func:`_gram_steps`); only its rows near or
    below the rank threshold take the QR step.  A single fit (``b == 1``)
    takes the QR step, which is better conditioned and keeps its last bits
    (:func:`_qr_steps`).  A QR step fails when a pivot falls below
    ``PIVOT_RTOL`` times the largest.  At the zero start the IRLS weights
    are the counts, so the first factorisation is the design rank check,
    even of a row whose score is already zero.

    Returns ``(coefficients, status, iterations)``, each with one entry per
    row; the coefficients follow the design's column order.  ``status`` is
    ``CONVERGED``, ``PLATEAU``, ``RANK_DEFICIENT`` (the first factorisation
    failed, or ``n < p``), ``NOT_CONVERGED`` (a later factorisation failed,
    a step was not finite, or the cap was reached without a plateau) or
    ``NON_FINITE`` (the design).  The coefficients of a failed row are its
    last iterate.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("the shared design block must be 2-dimensional")
    counts = np.asarray(counts, dtype=float)
    E = _resample_columns(column, strata)
    b, n = counts.shape
    p = X.shape[1] + (0 if E is None else E.shape[1])
    y = np.asarray(y, dtype=float)
    beta = np.zeros((b, p))
    iterations = np.zeros(b, dtype=int)
    # NOT_CONVERGED marks the rows still iterating, and stays at the cap
    status = np.full(b, RANK_DEFICIENT if n < p else NOT_CONVERGED)
    finite = np.isfinite(X).all(axis=1)
    if E is not None:
        finite = finite & np.isfinite(E).all(axis=1)
    if not finite.all():
        status[(~finite & (counts > 0)).any(axis=-1)] = NON_FINITE
        # an unused row then adds exact zeros
        X = np.where(np.isfinite(X), X, 0.0)
        E = None if E is None else np.where(np.isfinite(E), E, 0.0)
    if b > 1:
        upper = np.triu_indices(X.shape[1])
        outer = X[:, upper[0]] * X[:, upper[1]]
    else:
        dense = _dense(X, E)  # the design of every QR step
    # the rows still iterating, and their slices of every input
    rows = np.flatnonzero(status == NOT_CONVERGED)
    Er, wr, br = E, counts, beta
    if rows.size < b:
        wr, br = counts[rows], beta[rows]
        Er = None if E is None else E[rows]
    deviance_prev = np.full(rows.size, np.nan)
    for it in range(1, IRLS_MAX_ITER + 1):
        if rows.size == 0:
            break
        prob = expit_rows(_linear_predictors(X, Er, br))
        score = _weighted_column_sums(X, Er, wr * (y - prob))
        converged = np.abs(score).max(axis=1) <= IRLS_SCORE_TOL
        irls_w = wr * prob * (1.0 - prob)
        if b > 1:
            step, singular = _gram_steps(X, upper, outer, Er, irls_w, score)
        else:
            step, singular = _qr_steps(dense, irls_w, score)
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
            deviance = _binomial_deviance(
                y, expit_rows(_linear_predictors(X, Er, br)), wr
            )
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
        if Er is not None:
            Er = Er[keep]
    return beta, status, iterations


def wald_ci(point: float, se: float) -> tuple[float, float]:
    """point +/- WALD_Z * se."""
    if se < 0:
        raise ValueError("standard error must be nonnegative")
    return point - WALD_Z * se, point + WALD_Z * se
