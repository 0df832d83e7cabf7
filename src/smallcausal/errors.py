"""Exception types shared across the package.

Every estimator maps these onto a failure tag recorded in its result, so a
single replicate never aborts a simulation run.
"""


class EstimationError(Exception):
    """Base class for recoverable estimation failures."""

    #: tag stored in EffectEstimate.failure_reason
    reason = "EstimationError"


class RankDeficientError(EstimationError):
    """Design matrix is numerically rank deficient."""

    reason = "RankDeficient"


class LeverageOneError(EstimationError):
    """A hat-matrix diagonal is numerically 1; HC3 weights are undefined."""

    reason = "LeverageOne"


class NotConvergedError(EstimationError):
    """Iteratively reweighted least squares hit the iteration cap."""

    reason = "NotConverged"


class SeparationError(EstimationError):
    """A logistic fit degenerated (observed information numerically singular)."""

    reason = "Separation"


class NoPairsError(EstimationError):
    """Caliper matching produced zero pairs."""

    reason = "NoPairs"


class DegenerateVarianceError(EstimationError):
    """A variance estimate is zero or undefined (e.g. no discordant pairs)."""

    reason = "DegenerateVariance"


class DegenerateStrataError(EstimationError):
    """Too few distinct propensity logits to form five strata."""

    reason = "DegenerateStrata"


class ExtremeOrError(EstimationError):
    """Back-transformed odds ratio at or above the failure threshold."""

    reason = "ExtremeOR"


class BootstrapCollapseError(EstimationError):
    """Too many bootstrap replicates failed to produce an estimate."""

    reason = "BootstrapCollapse"


class NotBracketedError(Exception):
    """Calibration target not reachable on the search interval."""


class ReplicateError(Exception):
    """A replicate raised something other than an ``EstimationError``.

    The message names the scenario, master seed and replicate index, so the
    replicate can be rerun on its own.
    """
