"""Nonparametric bootstrap percentile confidence intervals."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset
from .errors import BootstrapCollapseError, EstimationError

#: a batch block holds about this many doubles per (resamples, n, columns)
#: array, with the data's columns as the width; it bounds the batch's memory
BATCH_DOUBLES = 2**16


@dataclass(frozen=True)
class BootstrapConfig:
    replications: int = 1000
    percentiles: tuple[float, float] = (0.025, 0.975)
    max_failure_fraction: float = 0.5

    def __post_init__(self):
        if self.replications < 2:
            raise ValueError("need at least 2 bootstrap replications")
        lo, hi = self.percentiles
        if not 0.0 < lo < hi < 1.0:
            raise ValueError("percentiles must be ordered inside (0, 1)")


def bootstrap_percentile_ci(
    data: Dataset,
    estimator: Callable[[Dataset], float],
    config: BootstrapConfig,
    rng: np.random.Generator,
    *,
    batch: Callable[[Dataset, np.ndarray], tuple[np.ndarray, np.ndarray]]
    | None = None,
) -> tuple[float, float]:
    """Percentile interval over row resamples of the data.

    Each of the B resamples consumes its own child stream spawned up front
    from ``rng``, so the interval is bit-identical however the evaluations
    are scheduled.  Resamples where the estimator raises an EstimationError
    or returns a non-finite value are dropped; more than
    ``max_failure_fraction`` of them dropped raises BootstrapCollapseError.

    ``batch(data, indices)``, when given, evaluates a ``(b, n)`` block of
    resample indices at once and returns ``(values, settled)``.  Every
    resample it does not settle with a finite value goes through
    ``estimator(data.take(indices))`` as without ``batch``, so the scalar
    estimator makes every drop decision.
    """
    n = data.n_subjects
    streams = rng.spawn(config.replications)
    n_blocks = math.ceil(len(streams) * n * (data.n_covariates + 2) / BATCH_DOUBLES)
    block = math.ceil(len(streams) / n_blocks)  # blocks of near-equal size
    points = []
    failures = 0
    for start in range(0, len(streams), block):
        chunk = streams[start : start + block]
        indices = np.stack([child.integers(0, n, size=n) for child in chunk])
        if batch is not None:
            values, settled = batch(data, indices)
            settled = settled & np.isfinite(values)
            points.extend(values[settled].tolist())
            indices = indices[~settled]
        for idx in indices:
            try:
                value = float(estimator(data.take(idx)))
            except EstimationError:
                failures += 1
                continue
            if math.isfinite(value):
                points.append(value)
            else:
                failures += 1
    if failures > config.max_failure_fraction * config.replications or not points:
        raise BootstrapCollapseError(
            f"{failures} of {config.replications} bootstrap replicates failed"
        )
    lo, hi = np.quantile(points, config.percentiles)  # linear interpolation
    return float(lo), float(hi)
