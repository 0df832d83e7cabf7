import numpy as np
import pytest
from scipy.stats import chi2

from helpers import take_rows
from smallcausal import bootstrap as bootstrap_module
from smallcausal.bootstrap import PERCENTILES, bootstrap_percentile_ci
from smallcausal.data import Dataset
from smallcausal.errors import BootstrapCollapseError
from smallcausal.streams import derive_substream


def tiny_dataset(n, rng):
    return Dataset(
        rng.normal(size=(n, 1)),
        (rng.random(n) < 0.5).astype(float),
        (rng.random(n) < 0.5).astype(float),
    )


def test_constant_estimator_degenerate_interval():
    data = tiny_dataset(20, np.random.default_rng(0))
    cis = bootstrap_percentile_ci(
        data, lambda idx: np.full((len(idx), 2), 3.25), 50, np.random.default_rng(1)
    )
    assert cis == [(3.25, 3.25), (3.25, 3.25)]


def test_mean_interval_width_near_normal_theory():
    # outcome is Bernoulli(1/2): bootstrap CI width for the mean should be
    # close to 2 * 1.96 * 0.5 / sqrt(n)
    n = 400
    rng = np.random.default_rng(2)
    data = tiny_dataset(n, rng)
    (ci,) = bootstrap_percentile_ci(
        data,
        lambda idx: data.outcome[idx].mean(axis=1)[:, None],
        2000,
        np.random.default_rng(3),
    )
    width = ci[1] - ci[0]
    expected = 2 * 1.959963985 * 0.5 / np.sqrt(n)
    assert width == pytest.approx(expected, rel=0.15)


def test_reproducible_bit_exact():
    data = tiny_dataset(30, np.random.default_rng(4))
    est = lambda idx: (data.outcome[idx] - data.treatment[idx]).mean(axis=1)[:, None]
    first = bootstrap_percentile_ci(data, est, 4, derive_substream(9, "x", 0, "boot"))
    second = bootstrap_percentile_ci(data, est, 4, derive_substream(9, "x", 0, "boot"))
    assert first == second


def test_lower_bounded_by_upper():
    data = tiny_dataset(25, np.random.default_rng(5))
    (ci,) = bootstrap_percentile_ci(
        data,
        lambda idx: data.outcome[idx].mean(axis=1)[:, None],
        200,
        np.random.default_rng(6),
    )
    assert ci[0] <= ci[1]


def test_collapse_when_most_replicates_fail():
    data = tiny_dataset(10, np.random.default_rng(7))
    calls = {"n": 0}

    def flaky(idx):
        values = []
        for _ in idx:
            calls["n"] += 1
            values.append(np.nan if calls["n"] % 4 != 0 else 0.0)
        return np.array(values)[:, None]

    (ci,) = bootstrap_percentile_ci(data, flaky, 100, np.random.default_rng(8))
    assert isinstance(ci, BootstrapCollapseError)


def test_resample_indices_uniform_chisquare():
    # pool a million index draws from the same (B, n) scheme the CI uses
    n = 100
    rng = np.random.default_rng(9)
    counts = np.zeros(n)
    for idx in rng.integers(0, n, size=(10_000, 100)):
        counts += np.bincount(idx, minlength=n)
    total = counts.sum()
    stat = ((counts - total / n) ** 2 / (total / n)).sum()
    assert stat < chi2.ppf(0.999, df=n - 1)


def test_fewer_than_two_replications_refused():
    data = tiny_dataset(10, np.random.default_rng(7))
    for replications in (1, -3):
        with pytest.raises(ValueError, match="at least 2"):
            bootstrap_percentile_ci(
                data, lambda idx: np.zeros((len(idx), 1)), replications,
                np.random.default_rng(8),
            )


def nan_on_every_third(data, indices, calls):
    values = data.outcome[indices].mean(axis=1)
    for j in range(len(values)):
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            values[j] = np.nan
    return values


@pytest.mark.parametrize("non_finite", [np.nan, np.inf])
def test_non_finite_resamples_are_dropped(monkeypatch, non_finite):
    data = tiny_dataset(30, np.random.default_rng(10))
    calls = {"n": 0}

    def estimator(indices):
        values = nan_on_every_third(data, indices, calls)
        return np.where(np.isnan(values), non_finite, values)[:, None]

    (ci,) = bootstrap_percentile_ci(data, estimator, 60, np.random.default_rng(11))
    assert np.isfinite(ci).all()
    assert calls["n"] == 60
    monkeypatch.setattr(bootstrap_module, "MAX_FAILURE_FRACTION", 0.3)
    (ci,) = bootstrap_percentile_ci(data, estimator, 60, np.random.default_rng(11))
    assert isinstance(ci, BootstrapCollapseError)


def test_block_values_match_a_loop_over_resamples():
    data = tiny_dataset(30, np.random.default_rng(12))
    (block,) = bootstrap_percentile_ci(
        data, lambda idx: data.outcome[idx].mean(axis=1)[:, None], 50,
        np.random.default_rng(13),
    )
    # the same resamples, one at a time in the rows of their one draw
    means = [
        take_rows(data, idx).outcome.mean()
        for idx in np.random.default_rng(13).integers(0, 30, size=(50, 30))
    ]
    assert block == pytest.approx(tuple(np.quantile(means, PERCENTILES)), abs=1e-15)
