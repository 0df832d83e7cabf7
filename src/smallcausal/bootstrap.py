"""Nonparametric bootstrap percentile confidence intervals."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset
from .errors import BootstrapCollapseError

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
    estimator: Callable[[np.ndarray], np.ndarray],
    config: BootstrapConfig,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Percentile interval over row resamples of the data.

    Each of the B resamples draws its row indices from its own child stream
    spawned up front from ``rng``, so the interval is bit-identical however
    the resamples are blocked.  ``estimator`` takes a ``(b, n)`` block of
    resample indices and returns the ``(b,)`` values; a non-finite value
    drops its resample.  More than ``max_failure_fraction`` of them dropped
    raises BootstrapCollapseError.
    """
    n = data.n_subjects
    streams = rng.spawn(config.replications)
    n_blocks = math.ceil(len(streams) * n * (data.n_covariates + 2) / BATCH_DOUBLES)
    block = math.ceil(len(streams) / n_blocks)  # blocks of near-equal size
    values = np.concatenate([
        estimator(np.stack([c.integers(0, n, size=n) for c in streams[i : i + block]]))
        for i in range(0, len(streams), block)
    ])
    points = values[np.isfinite(values)]
    failures = values.size - points.size
    if failures > config.max_failure_fraction * config.replications or not points.size:
        raise BootstrapCollapseError(
            f"{failures} of {config.replications} bootstrap replicates failed"
        )
    lo, hi = np.quantile(points, config.percentiles)  # linear interpolation
    return float(lo), float(hi)
