"""The analysis unit shared by every estimator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class Dataset:
    """Covariates, a binary treatment and a binary outcome.

    ``covariates`` holds analysis covariates only; anything the estimators
    must not see (an unmeasured confounder in a simulation) is excluded
    before construction.  Arrays are copied and frozen so datasets can be
    shared across worker processes and threads.
    """

    covariates: np.ndarray  # (n, k) float
    treatment: np.ndarray  # (n,) values in {0, 1}
    outcome: np.ndarray  # (n,) values in {0, 1}

    def __post_init__(self):
        cov = np.atleast_2d(np.array(self.covariates, dtype=float))
        trt = np.array(self.treatment, dtype=float)
        out = np.array(self.outcome, dtype=float)
        if cov.shape[0] != trt.shape[0] or trt.shape[0] != out.shape[0]:
            raise ValueError("covariates, treatment and outcome lengths differ")
        for name, arr in (("covariates", cov), ("treatment", trt), ("outcome", out)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contain non-finite values")
        for name, arr in (("treatment", trt), ("outcome", out)):
            if not np.isin(arr, (0.0, 1.0)).all():
                raise ValueError(f"{name} must be coded 0/1")
        for arr in (cov, trt, out):
            arr.flags.writeable = False
        object.__setattr__(self, "covariates", cov)
        object.__setattr__(self, "treatment", trt)
        object.__setattr__(self, "outcome", out)

    @property
    def n_subjects(self) -> int:
        return self.treatment.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[1]

    @property
    def n_treated(self) -> int:
        return int(self.treatment.sum())

    @property
    def n_controls(self) -> int:
        return self.n_subjects - self.n_treated
