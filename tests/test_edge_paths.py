"""Coverage for the less-travelled paths: weighted logistic odds ratios,
failure-tag propagation, and the collapse-chain invariant."""

import math

import numpy as np
import pytest

from smallcausal import bootstrap as bootstrap_module
from smallcausal.data import Dataset
from smallcausal.errors import EstimationError, ExtremeOrError
from smallcausal.estimators import (
    ESTIMAND_LOG_OR,
    ESTIMAND_RD,
    OR_FAILURE_THRESHOLD,
    _or_point_guard,
    estimate_effect,
    estimate_effects,
)
from smallcausal.glm import fit_logistic, fit_ols, hc3_covariance, wald_ci
from smallcausal.propensity import (
    MatchedSample,
    PropensityScores,
    estimate_ps,
    iptw_weights,
    match_caliper,
)
from smallcausal.simulation import generate, make_scenario
from smallcausal.streams import derive_substream


def logistic_dataset(seed, n=200, k=2, confounded=True):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, k))
    eta_a = 0.5 * x[:, 0] if confounded else np.zeros(n)
    a = (rng.random(n) < 1 / (1 + np.exp(-eta_a))).astype(float)
    eta = -0.2 + 0.7 * a + (0.6 * x[:, 0] if confounded else 0.0)
    y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
    return Dataset(x, a, y)


class TestOrIptw:
    def test_weighted_logistic_point_and_sandwich_interval(self):
        data = logistic_dataset(1)
        ps = estimate_ps(data)
        est = estimate_effect(data, "iptw", ESTIMAND_LOG_OR, ps=ps)
        assert not est.failed
        # the point must equal the weighted logistic treatment coefficient
        w = iptw_weights(ps, data.treatment)
        X = np.column_stack([np.ones(data.n_subjects), data.treatment])
        fit = fit_logistic(X, data.outcome, weights=w)
        assert est.point == pytest.approx(float(fit.coefficients[1]), abs=1e-12)
        # and its SE comes from the weighted sandwich stored on the fit
        assert est.se == pytest.approx(float(np.sqrt(fit.covariance[1, 1])), abs=1e-12)

    def test_iptw_or_reduces_confounding(self):
        data = logistic_dataset(2, n=5000)
        ps = estimate_ps(data)
        crude = estimate_effect(data, "crude", ESTIMAND_LOG_OR)
        weighted = estimate_effect(data, "iptw", ESTIMAND_LOG_OR, ps=ps)
        # conditional effect is 0.7; confounding pushes the crude marginal
        # estimate further away than the weighted one
        assert abs(weighted.point - 0.7) < abs(crude.point - 0.7)


class TestFailureTags:
    def test_bootstrap_collapse_tag(self, monkeypatch):
        # a dataset so small that most resamples are single-arm
        a = np.array([1.0, 0.0, 1.0, 0.0])
        y = np.array([1.0, 0.0, 0.0, 1.0])
        data = Dataset(np.zeros((4, 0)), a, y)
        monkeypatch.setattr(bootstrap_module, "MAX_FAILURE_FRACTION", 0.05)
        est = estimate_effect(
            data,
            "gcomp",
            ESTIMAND_RD,
            bootstrap=200,
            rng=derive_substream(3, "edge", 0, "boot"),
        )
        assert est.failed and est.failure_reason == "BootstrapCollapse"

    @staticmethod
    def austin_n40(seed, replicate):
        """A replicate's dataset of the austin scenario, intercept -1.5,
        n=40 and treatment coefficient 1, as ``simulate`` draws it."""
        spec = make_scenario("austin", 40, 1.0, -1.5)
        return generate(spec, derive_substream(seed, spec.scenario_id, replicate, "data"))[0]

    def test_negative_hc3_variance_tag(self):
        # the score is nearly the treatment, so [1, a, PS] passes the pivot
        # check (ratio 3.2e-10) but its HC3 variance rounds below zero
        data = self.austin_n40(22, 4)
        est = estimate_effect(data, "ps_covariate", ESTIMAND_RD, estimate_ps(data))
        assert est.failed and est.failure_reason == "DegenerateVariance"

    def test_extreme_or_beyond_the_exp_range(self):
        with pytest.raises(ExtremeOrError):
            _or_point_guard(800.0)
        # a plateau fit with a treatment coefficient near 1.3e9
        data = self.austin_n40(21, 0)
        est = estimate_effect(data, "ps_covariate", ESTIMAND_LOG_OR, estimate_ps(data))
        assert est.failed and est.failure_reason == "ExtremeOR"

    def test_extreme_or_threshold_point_guard(self):
        at = math.log(OR_FAILURE_THRESHOLD)
        with pytest.raises(ExtremeOrError):
            _or_point_guard(at)
        below = math.nextafter(at, 0.0)
        assert _or_point_guard(below) == below

    @pytest.mark.parametrize("b, failed", [(3000, True), (2999, False)])
    def test_extreme_or_threshold_through_match_conditional(self, b, failed):
        # b pairs where only the treated member has the event, c = 1 where
        # only the control has it
        pairs = b + 1
        a = np.repeat([1.0, 0.0], pairs)
        y = np.zeros(2 * pairs)
        y[:b] = 1.0
        y[pairs + b] = 1.0
        data = Dataset(np.zeros((2 * pairs, 0)), a, y)
        matched = MatchedSample(tuple((i, pairs + i) for i in range(pairs)))
        est = estimate_effect(
            data, "match_conditional", ESTIMAND_LOG_OR, matched=matched
        )
        if failed:
            assert est.failed and est.failure_reason == "ExtremeOR"
        else:
            assert est.point == math.log(b)
            assert est.se == math.sqrt(1.0 / b + 1.0)

    def test_degenerate_strata_tag(self):
        # nine identical logits cannot form five strata
        n = 30
        rng = np.random.default_rng(4)
        data = Dataset(
            rng.normal(size=(n, 1)),
            (rng.random(n) < 0.5).astype(float),
            (rng.random(n) < 0.5).astype(float),
        )
        logits = np.zeros(n)
        ps = PropensityScores(np.full(n, 0.5), logits)
        est = estimate_effect(data, "gcomp_dr_quintiles", ESTIMAND_RD, ps)
        assert est.failed and est.failure_reason == "DegenerateStrata"

    def test_leverage_one_tag(self):
        # a covariate dummy picking out a single subject forces a unit hat
        n = 12
        rng = np.random.default_rng(5)
        d = np.zeros(n)
        d[0] = 1.0
        data = Dataset(
            d[:, None],
            np.tile([1.0, 0.0], n // 2),
            (rng.random(n) < 0.5).astype(float),
        )
        est = estimate_effect(data, "cov_adjusted", ESTIMAND_RD)
        assert est.failed and est.failure_reason == "LeverageOne"

    def test_hc3_rejects_weighted_fits(self):
        rng = np.random.default_rng(6)
        X = np.column_stack([np.ones(20), rng.normal(size=20)])
        y = rng.normal(size=20)
        fit = fit_ols(X, y, weights=rng.uniform(0.5, 2.0, 20))
        with pytest.raises(ValueError):
            hc3_covariance(fit, X)

    def test_wald_ci_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            wald_ci(0.0, -0.1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            derive_substream(-1, "x", 0, "data")


class TestCollapseChain:
    def test_null_covariates_constantish_ps(self):
        # covariates affect nothing: crude, ps-covariate, iptw and
        # g-computation agree within Monte Carlo error at n = 10_000
        rng = np.random.default_rng(7)
        n = 10_000
        x = rng.normal(size=(n, 2))
        a = (rng.random(n) < 0.5).astype(float)
        y = (rng.random(n) < 0.3 + 0.2 * a).astype(float)
        data = Dataset(x, a, y)
        ps = estimate_ps(data)
        points = {
            "crude": estimate_effect(data, "crude", ESTIMAND_RD).point,
            "ps_covariate": estimate_effect(data, "ps_covariate", ESTIMAND_RD, ps).point,
            "iptw": estimate_effect(data, "iptw", ESTIMAND_RD, ps).point,
            "gcomp": estimate_effect(data, "gcomp", ESTIMAND_RD).point,
        }
        spread = max(points.values()) - min(points.values())
        assert spread <= 0.01, points


class TestPointRanges:
    def test_mean_difference_methods_stay_in_unit_interval(self):
        for seed in range(25):
            data = logistic_dataset(seed, n=30)
            ests = estimate_effects(
                data, ("crude", "matched", "iptw", "gcomp"), ESTIMAND_RD
            )
            for m, est in ests.items():
                if not est.failed:
                    assert -1.0 <= est.point <= 1.0, (m, est.point)

    def test_or_methods_report_log_scale(self):
        data = logistic_dataset(30, n=400)
        ps = estimate_ps(data)
        matched = match_caliper(ps, data.treatment)
        for method in ("crude", "cov_adjusted", "match_unadjusted"):
            est = estimate_effect(data, method, ESTIMAND_LOG_OR, ps=ps, matched=matched)
            if not est.failed:
                assert est.estimand == ESTIMAND_LOG_OR
                assert abs(est.point) < 8.0  # log scale, not OR scale
