import numpy as np
import pytest

from helpers import summarize_oracle
from smallcausal import simulation
from smallcausal.bootstrap import BootstrapConfig
from smallcausal.errors import NotBracketedError
from smallcausal.estimators import ESTIMAND_RD, RD_METHODS, EffectEstimate
from smallcausal.simulation import (
    CounterfactualTruth,
    ReplicateResult,
    _calibration_objective,
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
        oracle = true_marginal_effect(
            spec, "rd", 200, 10_000, derive_substream(7, "covid", 0, "t")
        )
        assert subject_level == pytest.approx(oracle, abs=0.005)

    def test_monotone_in_treatment_coefficient(self):
        values = []
        for bt in np.linspace(0.0, 6.0, 7):
            spec = make_scenario("covid", 2000, bt)
            values.append(
                true_marginal_effect(
                    spec, "rd", 30, 2000, derive_substream(8, "covid", 0, "t")
                )
            )
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_or_estimand(self):
        spec = make_scenario("covid", 2000, 0.0)
        value = true_marginal_effect(
            spec, "or", 20, 2000, derive_substream(9, "covid", 0, "t")
        )
        assert value == pytest.approx(1.0, abs=1e-12)


class TestCalibration:
    def test_null_target_short_circuits(self):
        assert calibrate_beta_trt("covid", 0.0) == 0.0
        assert calibrate_beta_trt("covid", 1.0, estimand="or") == 0.0

    def test_covid_rd_016(self):
        got = calibrate_beta_trt(
            "covid", 0.16, n_datasets=60, dataset_size=5000, tolerance=0.003
        )
        assert got == pytest.approx(0.868, abs=0.03)

    def test_unreachable_target_raises(self):
        with pytest.raises(NotBracketedError):
            calibrate_beta_trt("covid", 0.89, n_datasets=5, dataset_size=2000)

    def test_deterministic(self):
        kw = dict(n_datasets=20, dataset_size=2000, tolerance=0.005)
        assert calibrate_beta_trt("covid", 0.16, **kw) == calibrate_beta_trt(
            "covid", 0.16, **kw
        )


def reference_calibration(
    scenario_id, target, estimand, beta0, seed, n_datasets, dataset_size,
    tolerance, upper=6.0, max_iterations=80,
):
    """The bisection of ``calibrate_beta_trt``, every step redrawing the
    calibration stream through ``true_marginal_effect``."""

    def objective(beta_trt):
        spec = make_scenario(scenario_id, dataset_size, beta_trt, beta0)
        rng = derive_substream(seed, scenario_id, 0, "calibration")
        return true_marginal_effect(spec, estimand, n_datasets, dataset_size, rng)

    if objective(upper) < target - tolerance:
        raise NotBracketedError("not bracketed")
    lo, hi = 0.0, upper
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        value = objective(mid)
        if abs(value - target) <= tolerance:
            return mid
        if value < target:
            lo = mid
        else:
            hi = mid
    raise NotBracketedError("budget exhausted")


# 10 x 10,000 keeps covid inside its table (about 5,700 distinct linear
# predictors); unmeasured has a continuous covariate and redraws every step
ORACLE = dict(n_datasets=10, dataset_size=10_000)
TARGETS = [("rd", 0.16, 0.002), ("or", 2.0, 0.02)]
CALIBRATION_CASES = [
    (scenario, beta0, estimand, target, tolerance, seed)
    for scenario, beta0 in [("covid", None), ("austin", None), ("austin", -1.5)]
    for estimand, target, tolerance in TARGETS
    for seed in (0, 7, 2007)
] + [("unmeasured", None, *t, 0) for t in TARGETS]


class TestCalibrationTable:
    @pytest.mark.parametrize(
        "scenario,beta0,estimand,target,tolerance,seed", CALIBRATION_CASES
    )
    def test_same_coefficient_as_redrawing_bisection(
        self, scenario, beta0, estimand, target, tolerance, seed
    ):
        got = calibrate_beta_trt(
            scenario, target, estimand, beta0, seed, tolerance=tolerance, **ORACLE
        )
        expected = reference_calibration(
            scenario, target, estimand, beta0, seed,
            ORACLE["n_datasets"], ORACLE["dataset_size"], tolerance,
        )
        assert got == expected

    @pytest.mark.parametrize("scenario", ["covid", "austin"])
    @pytest.mark.parametrize("estimand", ["rd", "or"])
    def test_table_objective_matches_oracle(self, scenario, estimand):
        objective = _calibration_objective(scenario, estimand, None, 3, **ORACLE)
        for beta_trt in (0.1, 0.87, 2.5, 6.0):
            spec = make_scenario(scenario, ORACLE["dataset_size"], beta_trt)
            expected = true_marginal_effect(
                spec, estimand, rng=derive_substream(3, scenario, 0, "calibration"),
                **ORACLE,
            )
            assert objective(beta_trt) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "scenario,draws_once", [("covid", True), ("austin", True), ("unmeasured", False)]
    )
    def test_stream_drawn_once_when_tabulable(self, monkeypatch, scenario, draws_once):
        calls = []
        draw = simulation._draw_covariates

        def counting_draw(*args):
            calls.append(None)
            return draw(*args)

        monkeypatch.setattr(simulation, "_draw_covariates", counting_draw)
        calibrate_beta_trt(scenario, 0.16, master_seed=0, **ORACLE)
        if draws_once:
            assert len(calls) == ORACLE["n_datasets"]
        else:
            assert len(calls) > 2 * ORACLE["n_datasets"]


    def test_small_covid_oracle_keeps_its_table(self):
        # a 20 x 2,000 covid oracle has a few thousand distinct predictors,
        # more than one dataset's rows but well inside the entry budget
        oracle = dict(n_datasets=20, dataset_size=2000)
        spec = make_scenario("covid", 2000, 0.0)
        rng = derive_substream(0, "covid", 0, "calibration")
        values, _ = simulation._linear_predictor_table(spec, rng=rng, **oracle)
        assert 2000 < len(values) <= simulation.TABLE_ENTRIES
        got = calibrate_beta_trt("covid", 0.16, master_seed=0, **oracle)
        assert got == reference_calibration(
            "covid", 0.16, "rd", None, 0, tolerance=0.002, **oracle
        )

    def test_continuous_covariate_gives_up_after_a_few_datasets(self, monkeypatch):
        calls = []
        draw = simulation._draw_covariates

        def counting_draw(*args):
            calls.append(None)
            return draw(*args)

        monkeypatch.setattr(simulation, "_draw_covariates", counting_draw)
        spec = make_scenario("unmeasured", 10_000, 0.0)
        rng = derive_substream(0, "unmeasured", 0, "calibration")
        assert simulation._linear_predictor_table(spec, 20, 10_000, rng) is None
        # every row is distinct: the budget is passed on the seventh dataset
        assert len(calls) == -(-simulation.TABLE_ENTRIES // 10_000)


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
