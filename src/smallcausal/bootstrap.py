"""Nonparametric bootstrap percentile confidence intervals."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .data import Dataset
from .errors import BootstrapCollapseError

#: a batch block holds about this many doubles per (resamples, n) array; it
#: bounds the batch's memory, whose widest arrays are the (resamples, 4, n)
#: stratum indicators of the dr_quintiles Q-model and their weighted copy
BATCH_DOUBLES = 2**14
#: the interval's endpoints, as quantiles of the kept resample values
PERCENTILES = (0.025, 0.975)
#: a statistic losing more than this share of its resamples collapses
MAX_FAILURE_FRACTION = 0.5


def bootstrap_percentile_ci(
    data: Dataset,
    estimator: Callable[[np.ndarray], np.ndarray],
    replications: int,
    rng: np.random.Generator,
) -> list[tuple[float, float] | BootstrapCollapseError]:
    """Percentile intervals of k statistics over ``replications`` row
    resamples of the data.

    The resamples are the rows of one ``(replications, n)`` index draw from
    ``rng``, handed to ``estimator`` in ``(b, n)`` blocks, so the draw does
    not depend on how the resamples are blocked.  ``estimator`` returns the
    ``(b, k)`` values of the k statistics that share the resamples; a
    non-finite value drops its resample for that statistic.  Returns k
    entries, each ``(lo, hi)`` or, when more than ``MAX_FAILURE_FRACTION``
    of that statistic's resamples dropped, its BootstrapCollapseError.
    Fewer than 2 replications raise ValueError.
    """
    if replications < 2:
        raise ValueError("need at least 2 bootstrap replications")
    n = data.n_subjects
    indices = rng.integers(0, n, size=(replications, n))
    n_blocks = math.ceil(replications * n / BATCH_DOUBLES)
    block = math.ceil(replications / n_blocks)  # blocks of near-equal size
    values = np.concatenate([
        estimator(indices[i : i + block]) for i in range(0, replications, block)
    ])
    intervals = []
    for column in values.T:
        try:
            intervals.append(_percentile_interval(column))
        except BootstrapCollapseError as exc:
            intervals.append(exc)
    return intervals


def _percentile_interval(values: np.ndarray) -> tuple[float, float]:
    points = values[np.isfinite(values)]
    failures = values.size - points.size
    if failures > MAX_FAILURE_FRACTION * values.size or not points.size:
        raise BootstrapCollapseError(
            f"{failures} of {values.size} bootstrap replicates failed"
        )
    lo, hi = np.quantile(points, PERCENTILES)  # linear interpolation
    return float(lo), float(hi)
