"""Propensity scores and the three conditioning devices built from them:
matched pairs, inverse-probability weights, and quintile strata."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
import numpy.ma  # np.quantile loads it on first use: here, not in a replicate

from .data import Dataset
from .errors import NoPairsError, SeparationError
from .glm import expit, fit_logistic

DEFAULT_CALIPER_SD = 0.2
QUINTILES = (0.2, 0.4, 0.6, 0.8)


@dataclass(frozen=True)
class PropensityScores:
    """Estimated treatment probabilities and their logits.

    Logits are the linear predictor of the fitted model and are the
    numerically safe representation; probabilities may saturate to 0/1 in
    floating point when a fit sits on the boundary.
    """

    probabilities: np.ndarray
    logits: np.ndarray


@dataclass(frozen=True)
class MatchedSample:
    pairs: tuple[tuple[int, int], ...]  # (treated_index, control_index)

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)


def estimate_ps(data: Dataset) -> PropensityScores:
    """Main-effects logistic model of treatment on all measured covariates.

    Categorical covariates are expected to arrive dummy-coded in the
    dataset.  NotConverged and RankDeficient propagate to the caller, which
    records a failure for every score-based method in that replicate.
    """
    if data.n_treated == 0 or data.n_controls == 0:
        raise ValueError("propensity model needs at least one subject per arm")
    X = np.column_stack([np.ones(data.n_subjects), data.covariates])
    fit = fit_logistic(X, data.treatment)
    logits = X @ fit.coefficients
    return PropensityScores(expit(logits), logits)


def match_caliper(
    ps: PropensityScores,
    treatment: np.ndarray,
    caliper_sd_multiplier: float = DEFAULT_CALIPER_SD,
) -> MatchedSample:
    """Greedy 1:1 nearest-neighbor matching without replacement on the logit.

    Treated subjects are processed in descending propensity order (ties by
    original index); each takes the unused control with the smallest absolute
    logit distance, skipping when the nearest exceeds the caliper.  Distances
    are compared as computed, ``abs(control - treated)``, and an equal
    computed distance goes to the lower control index.  A tie in exact
    arithmetic (discrete covariates can put a treated subject midway between
    two controls) is therefore decided by the rounding of the fitted logits,
    and can go to either control.  The caliper is ``caliper_sd_multiplier``
    times the sample SD (denominator n-1) of all n logits; a non-finite logit
    makes it NaN, so no pair forms.

    The search is exact, not a scan of every control.  The controls are
    grouped by logit value in ascending order, each value holding its unused
    controls lowest index first.  A treated subject bisects into the values
    still holding a control.  A computed distance does not decrease away from
    the treated logit on either side, so the nearest value on each side gives
    the minimum, and the values sharing it are contiguous: they are scanned
    outward while their computed distance equals it, and the lowest control
    index among them wins.  Matching stops once every control is used.
    """
    treatment = np.asarray(treatment)
    treated_idx = np.flatnonzero(treatment == 1)
    control_idx = np.flatnonzero(treatment == 0)
    if treated_idx.size == 0 or control_idx.size == 0:
        raise NoPairsError("matching needs at least one subject per arm")

    logits = ps.logits
    caliper = caliper_sd_multiplier * float(np.std(logits, ddof=1))

    order = treated_idx[
        np.argsort(-ps.probabilities[treated_idx], kind="stable")
    ]
    control_logits = logits[control_idx].astype(float)
    by_value = np.argsort(control_logits, kind="stable")  # ties by index
    ranked = control_logits[by_value]
    starts = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
    bounds = [0, *starts.tolist(), len(ranked)]
    # the values still holding a control, and each one's unused controls
    # (subject indices), highest first so that pop() takes the lowest
    free = ranked[bounds[:-1]].tolist()
    positions = control_idx[by_value].tolist()
    unused = [positions[a:b][::-1] for a, b in zip(bounds, bounds[1:])]

    pairs: list[tuple[int, int]] = []
    for t, logit in zip(order.tolist(), logits[order].tolist()):
        if not free:
            break
        hi = bisect_left(free, logit)
        lo = hi - 1
        below = abs(free[lo] - logit) if lo >= 0 else np.inf
        above = abs(free[hi] - logit) if hi < len(free) else np.inf
        nearest = min(below, above)
        if not nearest <= caliper:
            continue
        while lo >= 0 and abs(free[lo] - logit) == nearest:
            lo -= 1
        while hi < len(free) and abs(free[hi] - logit) == nearest:
            hi += 1
        k = lo + 1
        for v in range(lo + 2, hi):
            if unused[v][-1] < unused[k][-1]:
                k = v
        pairs.append((t, unused[k].pop()))
        if not unused[k]:
            del free[k], unused[k]

    if not pairs:
        raise NoPairsError("no control within the caliper for any treated subject")
    return MatchedSample(tuple(pairs))


def iptw_weights(ps: PropensityScores, treatment: np.ndarray) -> np.ndarray:
    """1/p for treated and 1/(1-p) for controls, with no trimming; all > 1.

    Computed from the logits, each branch only where used, so near-boundary
    scores give large finite weights; extreme weights are allowed by design.
    A used weight that still overflows raises SeparationError.
    """
    w = np.abs(signed_inverse_probability(np.asarray(treatment), ps.logits))
    if not np.isfinite(w).all():
        raise SeparationError("inverse-probability weight overflows")
    return w


def signed_inverse_probability(a: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """1/p for treated rows and -1/(1-p) for controls, from the logits.

    Each branch is computed only on the rows that use it, so the unused one
    cannot overflow; an overflow in a used branch is left as inf for the
    caller's finiteness check.
    """
    treated = np.broadcast_to(a == 1, eta.shape)
    z = np.empty(eta.shape)
    with np.errstate(over="ignore"):
        z[treated] = 1.0 + np.exp(-eta[treated])
        z[~treated] = -(1.0 + np.exp(eta[~treated]))
    return z


def quintile_strata(
    values: np.ndarray, sample: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Quintile strata of the logit score, on the last axis.

    Returns the stratum index 0..4 of each of ``values`` among the
    20/40/60/80 sample percentiles of ``sample`` (linear interpolation
    between order statistics), and the number of distinct values in
    ``sample``.  Membership is left-closed: a value at a cut point falls in
    the lower stratum.  Leading axes stack independent samples.
    """
    ordered = np.sort(sample, axis=-1)
    n_distinct = 1 + (np.diff(ordered, axis=-1) != 0).sum(axis=-1)
    cutpoints = np.moveaxis(np.quantile(ordered, QUINTILES, axis=-1), 0, -1)
    stratum = (values[..., None] > cutpoints[..., None, :]).sum(axis=-1)
    return stratum, n_distinct
