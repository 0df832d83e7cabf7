"""Independent oracle implementations shared by the unit and acceptance tests.

These deliberately re-derive results with the most literal code possible
(double loops, explicit formulas) so they stay independent of the library
paths they check.
"""

import math

import numpy as np
from scipy.special import expit

from smallcausal.data import Dataset
from smallcausal.errors import DegenerateStrataError, SeparationError
from smallcausal.glm import LogisticFit, fit_logistic
from smallcausal.simulation import _draw_covariates


def take_rows(data, indices):
    """The dataset made of the rows ``indices`` of ``data``, repeats
    included: one bootstrap resample."""
    return Dataset(
        data.covariates[indices],
        data.treatment[indices],
        data.outcome[indices],
        data.covariate_kinds,
    )


def greedy_match_oracle(logits, probabilities, treatment, caliper):
    """O(n^2) reference matcher: re-sorts treated by descending score and
    scans every control for each one."""
    treated = [i for i in range(len(treatment)) if treatment[i] == 1]
    controls = [i for i in range(len(treatment)) if treatment[i] == 0]
    # descending probability, ties by original index
    treated = sorted(treated, key=lambda i: (-probabilities[i], i))
    used = set()
    pairs = []
    for t in treated:
        best = None
        best_dist = None
        for c in controls:
            if c in used:
                continue
            d = abs(logits[c] - logits[t])
            if best is None or d < best_dist or (d == best_dist and c < best):
                best, best_dist = c, d
        if best is not None and best_dist <= caliper:
            pairs.append((t, best))
            used.add(best)
    return pairs


def mask_match_oracle(logits, probabilities, treatment, caliper):
    """Vectorised reference matcher that keeps an availability mask instead
    of marking used controls in the logits as ``match_caliper`` does."""
    treatment = np.asarray(treatment)
    treated_idx = np.flatnonzero(treatment == 1)
    control_idx = np.flatnonzero(treatment == 0)
    order = treated_idx[np.argsort(-probabilities[treated_idx], kind="stable")]
    control_logits = logits[control_idx].astype(float)
    available = np.ones(control_idx.size, dtype=bool)
    pairs = []
    for t in order:
        if not available.any():
            break
        dist = np.abs(control_logits - logits[t])
        dist[~available] = np.inf
        j = int(np.argmin(dist))
        if dist[j] <= caliper:
            pairs.append((int(t), int(control_idx[j])))
            available[j] = False
    return pairs


def irls_oracle(X, y, tol=1e-12, max_iter=100):
    """Plain Newton-Raphson logistic fit, written independently of the
    library's IRLS (dense solve, probability-space sigmoid)."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    beta = np.zeros(X.shape[1])
    for _ in range(max_iter):
        p = 1.0 / (1.0 + np.exp(-(X @ beta)))
        g = X.T @ (y - p)
        H = (X * (p * (1 - p))[:, None]).T @ X
        step = np.linalg.solve(H, g)
        beta = beta + step
        if np.abs(step).max() < tol:
            break
    return beta


def dense_design(X, column=None, strata=None):
    """The ``(b, n, p)`` designs that ``glm.fit_logistic_batch`` fits from a
    shared block and one per-resample part, written out row by row: the
    block ``X``, then ``column[j]`` or the dummies of strata 1..4 of
    ``strata[j]``."""
    X = np.asarray(X, float)
    designs = []
    for j in range(len(column if column is not None else strata)):
        if column is not None:
            extra = [[value] for value in column[j]]
        else:
            extra = [[float(s == k) for k in (1, 2, 3, 4)] for s in strata[j]]
        designs.append(np.hstack([X, np.array(extra, float)]))
    return np.array(designs)


def gcomp_design(data, q_spec, treatment, logits=None):
    """The dense ``(n, p)`` Q-model design of ``q_spec`` under ``treatment``,
    written out column by column: intercept, treatment, covariates, then
    the signed inverse probability 1/p or -1/(1-p) of the logit
    (``simple_dr``), or the dummies of the upper four type-7 quintile strata
    of the logits, a value at a cut point falling below it
    (``dr_quintiles``)."""
    n = data.n_subjects
    a = np.asarray(treatment, float)
    columns = [np.ones(n), a, *data.covariates.T]
    if q_spec == "simple_dr":
        with np.errstate(over="ignore"):
            columns.append(
                np.where(a == 1, 1.0 + np.exp(-logits), -(1.0 + np.exp(logits)))
            )
    elif q_spec == "dr_quintiles":
        cuts = np.quantile(logits, [0.2, 0.4, 0.6, 0.8])
        stratum = [sum(value > cut for cut in cuts) for value in logits]
        for k in (1, 2, 3, 4):
            columns.append(np.array([float(s == k) for s in stratum]))
    return np.column_stack(columns)


def gcomp_oracle(data, q_spec, logits=None):
    """Dense g-computation: :func:`gcomp_design` fitted with ``fit_logistic``
    and its mean predictions with everyone treated and with no one treated.

    Returns ``(m1, m0, iterations)``, ``iterations`` of the Q fit (a fit
    accepted on the deviance plateau stops at the cap).  Raises the
    EstimationError whose tag the point records: DegenerateStrata for fewer
    than 5 distinct logits, Separation for a non-finite fitted design or a
    NaN mean, and whatever ``fit_logistic`` raises.
    """
    if q_spec == "dr_quintiles" and len(set(logits.tolist())) < 5:
        raise DegenerateStrataError("fewer than 5 distinct logit values")
    X = gcomp_design(data, q_spec, data.treatment, logits)
    if not np.isfinite(X).all():
        raise SeparationError("outcome-model design is not finite")
    fit = fit_logistic(X, data.outcome)
    means = []
    for a in (1.0, 0.0):
        X_a = gcomp_design(data, q_spec, np.full(data.n_subjects, a), logits)
        with np.errstate(over="ignore", invalid="ignore"):
            means.append(float(expit(X_a @ fit.coefficients).mean()))
    if math.isnan(means[0]) or math.isnan(means[1]):
        raise SeparationError("counterfactual mean is not finite")
    return means[0], means[1], fit.iterations


def summarize_oracle(points, ci_los, ci_his, failed, true_effect):
    """Metric recomputation with explicit loops (the 'spreadsheet')."""
    errs = []
    lengths = []
    hits = []
    n_fail = 0
    for p, lo, hi, f in zip(points, ci_los, ci_his, failed):
        if f:
            n_fail += 1
            continue
        errs.append(p - true_effect)
        if lo is not None and hi is not None:
            lengths.append(hi - lo)
            hits.append(1.0 if lo <= true_effect <= hi else 0.0)
    out = {"n_failures": n_fail}
    if errs:
        out["mean_bias"] = sum(errs) / len(errs)
        out["rmse"] = (sum(e * e for e in errs) / len(errs)) ** 0.5
        out["mae"] = float(np.median([abs(e) for e in errs]))
    if lengths:
        out["median_ci_length"] = float(np.median(lengths))
        out["coverage"] = sum(hits) / len(hits)
    return out


def weighted_sandwich_covariance(fit, X, weights):
    """A^-1 B A^-1 with bread A = sum w_i d2l_i and meat B = sum w_i^2 s_i s_i'.

    Weights are treated as fixed constants.  With unit weights and a linear
    fit this reduces to HC0.  Both sums are formed explicitly and the bread
    is inverted directly, with none of the library's QR factorisations.
    """
    X = np.asarray(X, dtype=float)
    w = np.asarray(weights, dtype=float)
    if isinstance(fit, LogisticFit):
        prob = fit.probabilities
        bread_w = w * prob * (1.0 - prob)
    else:
        bread_w = w
    bread_inv = np.linalg.inv((X * bread_w[:, None]).T @ X)
    meat = (X * (w * fit.residuals)[:, None] ** 2).T @ X
    return bread_inv @ meat @ bread_inv


def monte_carlo_truth(spec, estimand, n_datasets, dataset_size, rng):
    """Marginal effect of ``spec`` averaged over freshly drawn covariate rows,
    and its Monte Carlo standard error.

    Both counterfactual outcome probabilities are averaged over
    ``n_datasets`` draws of ``dataset_size`` rows from the scenario's
    covariate generator.  ``estimand`` "rd" returns the risk difference,
    "or" the log odds ratio; the standard error is that of the mean
    influence (delta method), from running sums of the two probabilities,
    their squares and their product.
    """
    alpha = np.asarray(spec.alpha)
    sums = np.zeros(5)  # p1, p0, p1^2, p0^2, p1*p0
    for _ in range(n_datasets):
        X = _draw_covariates(spec.scenario_id, dataset_size, rng)
        eta = alpha[0] + X @ alpha[1:]
        p1, p0 = expit(eta + spec.beta_trt), expit(eta)
        sums += [p1.sum(), p0.sum(), p1 @ p1, p0 @ p0, p1 @ p0]
    total = n_datasets * dataset_size
    m1, m0, s11, s00, s10 = sums / total
    if estimand == "rd":
        c1, c0, value = 1.0, -1.0, m1 - m0
    elif estimand == "or":
        c1, c0 = 1.0 / (m1 * (1.0 - m1)), -1.0 / (m0 * (1.0 - m0))
        value = math.log(m1 / (1.0 - m1)) - math.log(m0 / (1.0 - m0))
    else:
        raise ValueError(f"unknown estimand: {estimand!r}")
    variance = (
        c1 * c1 * (s11 - m1 * m1)
        + c0 * c0 * (s00 - m0 * m0)
        + 2.0 * c1 * c0 * (s10 - m1 * m0)
    )
    return value, math.sqrt(variance / total)
