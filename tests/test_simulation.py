import dataclasses

import numpy as np
import pytest

from helpers import monte_carlo_truth, summarize_oracle
from smallcausal import simulation
from smallcausal.bootstrap import BootstrapConfig
from smallcausal.errors import NotBracketedError
from smallcausal.estimators import ESTIMAND_RD, RD_METHODS, EffectEstimate
from smallcausal.simulation import (
    CounterfactualTruth,
    ReplicateResult,
    calibrate_beta_trt,
    generate,
    make_scenario,
    run_replicate,
    run_study,
    summarize,
    true_marginal_effect,
)
from smallcausal.streams import derive_substream


class TestGenerators:
    def test_treated_fractions_quick(self):
        for scen, b0, expect in [
            ("covid", None, 0.552),
            ("unmeasured", None, 0.538),
            ("austin", None, 0.494),
        ]:
            spec = make_scenario(scen, 200_000, 0.0, b0)
            data, _ = generate(spec, np.random.default_rng(1))
            assert data.treatment.mean() == pytest.approx(expect, abs=0.005)

    def test_null_effect_truth_is_exactly_zero(self):
        spec = make_scenario("covid", 500, 0.0)
        _, truth = generate(spec, np.random.default_rng(2))
        assert truth.marginal_rd == 0.0
        assert (truth.p_treated == truth.p_control).all()

    def test_counterfactual_consistency(self):
        spec = make_scenario("covid", 2000, 1.3)
        data, truth = generate(spec, np.random.default_rng(3))
        alpha = np.asarray(spec.alpha)
        eta = alpha[0] + data.covariates @ alpha[1:]
        p1 = 1 / (1 + np.exp(-(eta + spec.beta_trt)))
        p0 = 1 / (1 + np.exp(-eta))
        assert np.allclose(truth.p_treated, p1, atol=1e-12)
        assert np.allclose(truth.p_control, p0, atol=1e-12)

    def test_scenario2_masks_the_confounder(self):
        data, _ = generate(make_scenario("unmeasured", 300, 0.0), np.random.default_rng(4))
        assert data.n_covariates == 5
        assert data.covariate_kinds == (
            "binary",
            "continuous",
            "categorical-dummy",
            "categorical-dummy",
            "continuous",
        )

    def test_scenario2_confounding_visible_in_crude(self):
        from smallcausal.estimators import estimate_effect

        data, _ = generate(
            make_scenario("unmeasured", 100_000, 0.0), np.random.default_rng(5)
        )
        est = estimate_effect(data, "crude", ESTIMAND_RD)
        assert est.point > 0.25  # strong positive confounding

    def test_austin_intercept_only_subject(self):
        spec = make_scenario("austin", 10, 0.0)
        beta = np.asarray(spec.beta)
        prob = 1 / (1 + np.exp(-(beta[0] + np.zeros(9) @ beta[1:])))
        assert prob == pytest.approx(1 / (1 + np.exp(3.5)))

    def test_rounding_half_away_from_zero(self):
        from smallcausal.simulation import _round_half_away

        vals = _round_half_away(np.array([1.5, 2.5, -1.5, 0.4, -0.4]))
        assert vals.tolist() == [2.0, 3.0, -2.0, 0.0, -0.0]


class TestTruthOracle:
    def test_rd_collapsibility(self):
        spec = make_scenario("covid", 100_000, 0.8678)
        _, truth = generate(spec, np.random.default_rng(6))
        subject_level = (truth.p_treated - truth.p_control).mean()
        assert subject_level == pytest.approx(true_marginal_effect(spec, "rd"), abs=0.005)

    def test_monotone_in_treatment_coefficient(self):
        values = [
            true_marginal_effect(make_scenario("covid", 2000, bt), "rd")
            for bt in np.linspace(0.0, 6.0, 7)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_or_estimand(self):
        value = true_marginal_effect(make_scenario("covid", 2000, 0.0), "or")
        assert value == pytest.approx(1.0, abs=1e-12)


class TestExactOracle:
    @pytest.mark.parametrize("estimand", ["rd", "or"])
    @pytest.mark.parametrize(
        "scenario,beta0,beta_trt",
        [("covid", None, 0.8672), ("unmeasured", None, 1.0781),
         ("austin", None, 1.0313), ("austin", -1.5, 1.0)],
    )
    def test_agrees_with_monte_carlo(self, scenario, beta0, beta_trt, estimand):
        spec = make_scenario(scenario, 100, beta_trt, beta0)
        rng = derive_substream(2007, scenario, 0, "truth")
        expected, se = monte_carlo_truth(spec, estimand, 100, 10_000, rng)
        got = true_marginal_effect(spec, estimand)
        if estimand == "or":
            got = np.log(got)
        assert abs(got - expected) <= 4.0 * se

    @pytest.mark.parametrize(
        "scenario,patterns",
        [("covid", 23_826), ("unmeasured", 23_826 * simulation.HERMITE_NODES),
         ("austin", 512)],
    )
    def test_law_sums_to_one(self, scenario, patterns):
        eta, prob = simulation._outcome_law(make_scenario(scenario, 100, 0.0))
        assert eta.shape == prob.shape == (patterns,)
        assert (prob > 0.0).all()
        assert abs(prob.sum() - 1.0) <= 1e-12

    def test_factor_moments(self):
        # rounded N(45, 15): mean 45 and, by Sheppard's correction, variance
        # 15^2 + 1/12; the Gauss-Hermite nodes integrate N(0, 1)'s moments
        factors = simulation._covariate_factors("unmeasured")
        moments = [
            (values[:, 0] @ prob, (values[:, 0] ** 2) @ prob)
            for values, prob in (factors[1], factors[4])
        ]
        (age_mean, age_square), (z_mean, z_square) = moments
        assert age_mean == pytest.approx(45.0, abs=1e-10)
        assert age_square - age_mean**2 == pytest.approx(225.0 + 1.0 / 12.0, abs=1e-8)
        assert abs(z_mean) <= 1e-12 and z_square == pytest.approx(1.0, abs=1e-12)

    def test_unknown_scenario_or_estimand_raises(self):
        spec = make_scenario("covid", 100, 0.5)
        with pytest.raises(ValueError):
            true_marginal_effect(spec, "hr")
        with pytest.raises(ValueError):
            true_marginal_effect(dataclasses.replace(spec, scenario_id="other"))

    @pytest.mark.parametrize("estimand", ["rd", "or"])
    def test_doubling_hermite_nodes_changes_nothing(self, monkeypatch, estimand):
        spec = make_scenario("unmeasured", 100, 1.078125)
        coarse = true_marginal_effect(spec, estimand)
        monkeypatch.setattr(simulation, "HERMITE_NODES", 2 * simulation.HERMITE_NODES)
        assert abs(true_marginal_effect(spec, estimand) - coarse) < 1e-10

    @pytest.mark.parametrize("estimand", ["rd", "or"])
    def test_treatment_model_does_not_enter(self, estimand):
        plain = true_marginal_effect(make_scenario("austin", 100, 1.0), estimand)
        shifted = true_marginal_effect(make_scenario("austin", 100, 1.0, -1.5), estimand)
        assert plain == shifted


class TestCalibration:
    def test_null_target_short_circuits(self):
        assert calibrate_beta_trt("covid", 0.0) == 0.0
        assert calibrate_beta_trt("covid", 1.0, estimand="or") == 0.0

    # the coefficients the Monte Carlo calibration picked at seeds 2007, 1 and
    # 7920: a changed pin changes every --target-effect run's data
    @pytest.mark.parametrize(
        "scenario,target,estimand,tolerance,expected",
        [("covid", 0.16, "rd", 0.002, 0.8671875),
         ("covid", 0.40, "rd", 0.002, 3.09375),
         ("covid", 2.0, "or", 0.02, 0.8671875),
         ("austin", 0.16, "rd", 0.002, 1.03125),
         ("unmeasured", 0.16, "rd", 0.002, 1.078125)],
    )
    def test_pinned_coefficients(self, scenario, target, estimand, tolerance, expected):
        got = calibrate_beta_trt(scenario, target, estimand, tolerance)
        assert got == expected

    @pytest.mark.parametrize("scenario", ["covid", "unmeasured", "austin"])
    @pytest.mark.parametrize(
        "estimand,target,tolerance", [("rd", 0.25, 0.002), ("or", 3.0, 0.02)]
    )
    def test_calibrated_effect_is_within_tolerance(
        self, scenario, estimand, target, tolerance
    ):
        beta_trt = calibrate_beta_trt(scenario, target, estimand, tolerance)
        achieved = true_marginal_effect(make_scenario(scenario, 100, beta_trt), estimand)
        assert abs(achieved - target) <= tolerance

    def test_unreachable_target_raises(self):
        with pytest.raises(NotBracketedError):
            calibrate_beta_trt("covid", 0.89)

    def test_tolerance_below_the_bisection_budget_raises(self):
        with pytest.raises(NotBracketedError):
            calibrate_beta_trt("covid", 0.16, tolerance=0.0, max_iterations=10)


class TestReplicates:
    def test_replicate_deterministic(self):
        spec = make_scenario("covid", 60, 0.5)
        a = run_replicate(spec, ("crude",), "rd", None, 3, 5, 0.1)
        b = run_replicate(spec, ("crude",), "rd", None, 3, 5, 0.1)
        assert a.estimates["crude"] == b.estimates["crude"]

    def test_degenerate_draw_still_returns_full_registry(self):
        # at n=2 single-arm draws happen; every method must report
        spec = make_scenario("covid", 2, 0.0)
        for i in range(10):
            res = run_replicate(spec, RD_METHODS, "rd", None, 11, i, 0.0)
            assert set(res.estimates) == set(RD_METHODS)

    def test_worker_count_invariance(self):
        spec = make_scenario("covid", 50, 0.0)
        cfg = BootstrapConfig(replications=20)
        r1, s1 = run_study(spec, ("crude", "gcomp"), "rd", 6, cfg, 21, 0.0, workers=1)
        r2, s2 = run_study(spec, ("crude", "gcomp"), "rd", 6, cfg, 21, 0.0, workers=3)
        for a, b in zip(r1, r2):
            assert a.estimates == b.estimates
        assert s1 == s2


class TestSummarize:
    def synthetic_results(self, rng, n=50):
        results = []
        points = rng.normal(0.2, 0.1, n)
        for i in range(n):
            failed = rng.random() < 0.1
            if failed:
                est = EffectEstimate(
                    ESTIMAND_RD, "crude", None, failed=True, failure_reason="NoPairs"
                )
            else:
                se = rng.uniform(0.05, 0.2)
                est = EffectEstimate(
                    ESTIMAND_RD,
                    "crude",
                    float(points[i]),
                    se,
                    (points[i] - 2 * se, points[i] + 2 * se),
                )
            results.append(ReplicateResult(i, {"crude": est}, 0.2))
        return results

    def test_matches_spreadsheet_oracle(self):
        results = self.synthetic_results(np.random.default_rng(13))
        summary = summarize(results, 0.2)
        got = summary.per_method["crude"]
        ests = [r.estimates["crude"] for r in results]
        expected = summarize_oracle(
            [e.point for e in ests],
            [e.ci[0] if e.ci else None for e in ests],
            [e.ci[1] if e.ci else None for e in ests],
            [e.failed for e in ests],
            0.2,
        )
        assert got.mean_bias == pytest.approx(expected["mean_bias"], abs=1e-12)
        assert got.rmse == pytest.approx(expected["rmse"], abs=1e-12)
        assert got.mae == pytest.approx(expected["mae"], abs=1e-12)
        assert got.coverage == pytest.approx(expected["coverage"], abs=1e-12)
        assert got.median_ci_length == pytest.approx(
            expected["median_ci_length"], abs=1e-12
        )
        assert got.n_failures == expected["n_failures"]

    def test_single_perfect_replicate(self):
        est = EffectEstimate(ESTIMAND_RD, "crude", 0.3, 0.1, (0.1, 0.5))
        summary = summarize([ReplicateResult(0, {"crude": est}, 0.3)], 0.3)
        m = summary.per_method["crude"]
        assert m.mean_bias == 0.0 and m.rmse == 0.0 and m.coverage == 1.0

    def test_symmetric_errors(self):
        ests = [
            EffectEstimate(ESTIMAND_RD, "crude", 0.3 + e, 0.1, (0.0, 1.0))
            for e in (-0.05, 0.05)
        ]
        results = [ReplicateResult(i, {"crude": e}, 0.3) for i, e in enumerate(ests)]
        m = summarize(results, 0.3).per_method["crude"]
        assert m.mean_bias == pytest.approx(0.0, abs=1e-15)
        assert m.rmse == pytest.approx(0.05)
        assert m.mae == pytest.approx(0.05)

    def test_all_failed_marks_unavailable(self):
        est = EffectEstimate(
            ESTIMAND_RD, "crude", None, failed=True, failure_reason="NoPairs"
        )
        m = summarize([ReplicateResult(0, {"crude": est}, 0.0)], 0.0).per_method[
            "crude"
        ]
        assert m.rmse is None and m.n_failures == 1
