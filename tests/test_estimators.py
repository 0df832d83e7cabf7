import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from smallcausal import estimators, simulation
from smallcausal.data import Dataset
from smallcausal.errors import ReplicateError, SeparationError
from smallcausal.estimators import (
    ESTIMAND_LOG_OR,
    ESTIMAND_RD,
    OR_METHODS,
    RD_METHODS,
    estimate_effect,
    estimate_effects,
    _discordant_counts,
)
from smallcausal.glm import fit_logistic
from smallcausal.propensity import (
    MatchedSample,
    PropensityScores,
    estimate_ps,
    iptw_weights,
)
from smallcausal.streams import derive_substream


def study_counts_dataset():
    """36 subjects, 14/20 events on treatment and 2/16 off it."""
    a = np.repeat([1.0, 0.0], [20, 16])
    y = np.concatenate([np.ones(14), np.zeros(6), np.ones(2), np.zeros(14)])
    return Dataset(np.zeros((36, 0)), a, y)


def random_dataset(seed, n=40, k=2, trt_effect=0.8):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, k))
    a = (rng.random(n) < 1 / (1 + np.exp(-(0.4 * x[:, 0])))).astype(float)
    eta = -0.3 + trt_effect * a + x @ (0.5 / (1 + np.arange(k)))
    y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
    return Dataset(x, a, y)


def constant_scores(n, p):
    logit = math.log(p / (1 - p))
    return PropensityScores(np.full(n, p), np.full(n, logit))


class TestCrudeRd:
    def test_study_counts(self):
        est = estimate_effect(study_counts_dataset(), "crude", ESTIMAND_RD)
        assert est.point == pytest.approx(0.575)

    def test_identical_arms_zero(self):
        a = np.array([1.0, 1.0, 0.0, 0.0])
        y = np.array([1.0, 0.0, 1.0, 0.0])
        est = estimate_effect(Dataset(np.zeros((4, 0)), a, y), "crude", ESTIMAND_RD)
        assert est.point == pytest.approx(0.0, abs=1e-12)

    def test_equals_difference_of_arm_means(self):
        data = random_dataset(1, n=30)
        est = estimate_effect(data, "crude", ESTIMAND_RD)
        t = data.treatment == 1
        direct = data.outcome[t].mean() - data.outcome[~t].mean()
        assert est.point == pytest.approx(direct, abs=1e-12)

    def test_single_arm_fails(self):
        data = Dataset(np.zeros((6, 0)), np.ones(6), np.zeros(6))
        est = estimate_effect(data, "crude", ESTIMAND_RD)
        assert est.failed and est.failure_reason == "RankDeficient"
        assert est.point is None and est.ci is None


class TestCovariateAdjustedRd:
    def test_no_covariates_reduces_to_crude(self):
        data = random_dataset(2, n=30, k=2)
        stripped = Dataset(np.zeros((30, 0)), data.treatment, data.outcome)
        adjusted = estimate_effect(stripped, "cov_adjusted", ESTIMAND_RD)
        crude = estimate_effect(stripped, "crude", ESTIMAND_RD)
        assert adjusted.point == pytest.approx(crude.point, abs=1e-12)

    def test_partial_regression_oracle(self):
        # Frisch-Waugh on intercept + a + one confounder: residualize a and y
        # on [1, x], then slope of y-resid on a-resid
        data = random_dataset(3, n=25, k=1)
        a, x, y = data.treatment, data.covariates[:, 0], data.outcome
        Z = np.column_stack([np.ones(25), x])
        proj = Z @ np.linalg.solve(Z.T @ Z, Z.T)
        a_res = a - proj @ a
        y_res = y - proj @ y
        oracle = (a_res @ y_res) / (a_res @ a_res)
        est = estimate_effect(data, "cov_adjusted", ESTIMAND_RD)
        assert est.point == pytest.approx(oracle, abs=1e-10)


class TestPsCovariateRd:
    def test_constant_ps_is_rank_deficient(self):
        data = random_dataset(4, n=30)
        scores = constant_scores(30, 0.5)
        est = estimate_effect(data, "ps_covariate", ESTIMAND_RD, scores)
        assert est.failed and est.failure_reason == "RankDeficient"

    def test_large_sample_null_ps_approaches_crude(self):
        rng = np.random.default_rng(5)
        n = 100_000
        x = rng.normal(size=(n, 1))
        a = (rng.random(n) < 0.5).astype(float)
        y = (rng.random(n) < 0.4).astype(float)
        data = Dataset(x, a, y)
        est = estimate_effect(data, "ps_covariate", ESTIMAND_RD, estimate_ps(data))
        crude = estimate_effect(data, "crude", ESTIMAND_RD)
        assert est.point == pytest.approx(crude.point, abs=2e-4)


def matched_pairs(y_t, y_c):
    """Treated subject i matched to control n + i, with outcomes y_t and y_c."""
    n = len(y_t)
    a = np.concatenate([np.ones(n), np.zeros(n)])
    y = np.concatenate([y_t, y_c])
    data = Dataset(np.zeros((2 * n, 0)), a, y)
    matched = MatchedSample(tuple((i, n + i) for i in range(n)))
    return data, matched


class TestMatchedRd:
    pairs = staticmethod(matched_pairs)

    def test_formula_arithmetic(self):
        # b=3, c=1, n=10
        y_t = np.array([1, 1, 1, 0, 1, 1, 0, 0, 0, 0.0])
        y_c = np.array([0, 0, 0, 1, 1, 1, 0, 0, 0, 0.0])
        data, matched = self.pairs(y_t, y_c)
        assert _discordant_counts(data, matched) == (3, 1)
        est = estimate_effect(data, "matched", ESTIMAND_RD, matched=matched)
        assert est.point == pytest.approx(0.2)
        # variance oracle: (b+c)/n^2 - (b-c)^2/n^3
        assert est.se == pytest.approx(math.sqrt(4 / 100 - 4 / 1000))

    def test_symmetric_discordance_gives_zero(self):
        y_t = np.array([1, 0, 1, 0.0])
        y_c = np.array([0, 1, 0, 1.0])
        data, matched = self.pairs(y_t, y_c)
        est = estimate_effect(data, "matched", ESTIMAND_RD, matched=matched)
        assert est.point == pytest.approx(0.0)

    def test_brute_force_pair_table(self):
        rng = np.random.default_rng(6)
        y_t = (rng.random(10) < 0.6).astype(float)
        y_c = (rng.random(10) < 0.4).astype(float)
        data, matched = self.pairs(y_t, y_c)
        b = int(((y_t == 1) & (y_c == 0)).sum())
        c = int(((y_t == 0) & (y_c == 1)).sum())
        est = estimate_effect(data, "matched", ESTIMAND_RD, matched=matched)
        if b + c == 0:
            assert est.failed
        else:
            assert est.point == pytest.approx((b - c) / 10)

    def test_no_discordant_pairs_degenerate(self):
        y = np.ones(4)
        data, matched = self.pairs(y, y)
        est = estimate_effect(data, "matched", ESTIMAND_RD, matched=matched)
        assert est.failed and est.failure_reason == "DegenerateVariance"


class TestIptwRd:
    def test_constant_half_scores_reduce_to_crude(self):
        data = random_dataset(7, n=50)
        est = estimate_effect(data, "iptw", ESTIMAND_RD, constant_scores(50, 0.5))
        crude = estimate_effect(data, "crude", ESTIMAND_RD)
        assert est.point == pytest.approx(crude.point, abs=1e-10)

    def test_two_stratum_confounding_removed(self):
        # stratum 1: 32 treated (16 events) and 8 controls (4 events);
        # stratum 2: 8 treated (2 events) and 32 controls (8 events):
        # within-stratum RD is 0 while event and treatment rates differ
        rows = []
        for stratum, cells in [
            (1.0, [(1.0, 1.0, 16), (1.0, 0.0, 16), (0.0, 1.0, 4), (0.0, 0.0, 4)]),
            (0.0, [(1.0, 1.0, 2), (1.0, 0.0, 6), (0.0, 1.0, 8), (0.0, 0.0, 24)]),
        ]:
            for a, y, count in cells:
                rows.extend([(stratum, a, y)] * count)
        arr = np.array(rows)
        data = Dataset(arr[:, :1], arr[:, 1], arr[:, 2])
        # oracle: weighted means by hand with the true stratum scores
        ps_true = np.where(arr[:, 0] == 1.0, 0.8, 0.2)
        logits = np.log(ps_true / (1 - ps_true))
        scores = PropensityScores(ps_true, logits)
        w = iptw_weights(scores, data.treatment)
        t = data.treatment == 1
        oracle = (w[t] * data.outcome[t]).sum() / w[t].sum() - (
            w[~t] * data.outcome[~t]
        ).sum() / w[~t].sum()
        est = estimate_effect(data, "iptw", ESTIMAND_RD, scores)
        assert est.point == pytest.approx(oracle, abs=1e-10)
        assert abs(estimate_effect(data, "crude", ESTIMAND_RD).point) > 0.1
        assert abs(est.point) < 1e-10

    def test_weighted_mean_identity(self):
        data = random_dataset(8, n=60)
        ps = estimate_ps(data)
        w = iptw_weights(ps, data.treatment)
        est = estimate_effect(data, "iptw", ESTIMAND_RD, ps)
        t = data.treatment == 1
        direct = (w[t] * data.outcome[t]).sum() / w[t].sum() - (
            w[~t] * data.outcome[~t]
        ).sum() / w[~t].sum()
        assert est.point == pytest.approx(direct, abs=1e-10)


class TestGcompRd:
    def test_intercept_treatment_only_collapses_to_crude(self):
        data = random_dataset(9, n=40)
        stripped = Dataset(np.zeros((40, 0)), data.treatment, data.outcome)
        est = estimate_effect(stripped, "gcomp", ESTIMAND_RD)
        crude = estimate_effect(stripped, "crude", ESTIMAND_RD)
        assert est.point == pytest.approx(crude.point, abs=1e-10)

    def test_three_subject_prediction_oracle(self):
        x = np.array([[0.5], [-1.0], [2.0]])
        a = np.array([1.0, 0.0, 1.0])
        y = np.array([1.0, 0.0, 0.0])
        data = Dataset(x, a, y)
        est = estimate_effect(data, "gcomp", ESTIMAND_RD)
        fit = fit_logistic(
            np.column_stack([np.ones(3), a, x]), y
        )
        b0, b_a, b_x = fit.coefficients
        p1 = 1 / (1 + np.exp(-(b0 + b_a + b_x * x[:, 0])))
        p0 = 1 / (1 + np.exp(-(b0 + b_x * x[:, 0])))
        assert est.point == pytest.approx(p1.mean() - p0.mean(), abs=1e-10)

    def test_bootstrap_ci_present_and_deterministic(self):
        data = random_dataset(10, n=60)
        first = estimate_effect(
            data, "gcomp", ESTIMAND_RD,
            bootstrap=40, rng=derive_substream(1, "t", 0, "b"),
        )
        second = estimate_effect(
            data, "gcomp", ESTIMAND_RD,
            bootstrap=40, rng=derive_substream(1, "t", 0, "b"),
        )
        assert first.ci == second.ci
        assert first.ci[0] <= first.point <= first.ci[1]

    def test_simple_dr_and_quintiles_run(self):
        data = random_dataset(11, n=120, k=2)
        ps = estimate_ps(data)
        for q in ("simple_dr", "dr_quintiles"):
            est = estimate_effect(data, "gcomp_" + q, ESTIMAND_RD, ps)
            assert not est.failed
            assert -1.0 <= est.point <= 1.0


class TestAipwRd:
    @staticmethod
    def formula_oracle(data, ps, m1, m0):
        # term-by-term evaluation of the augmented estimator
        total = 0.0
        for i in range(data.n_subjects):
            a, y, p = data.treatment[i], data.outcome[i], ps.probabilities[i]
            t1 = a * y / p - (a - p) / p * m1[i]
            t0 = (1 - a) * y / (1 - p) + (a - p) / (1 - p) * m0[i]
            total += t1 - t0
        return total / data.n_subjects

    def test_eight_subject_formula_oracle(self):
        data = random_dataset(12, n=8, k=1)
        # use well-behaved synthetic scores to avoid arm-model failure noise
        rng = np.random.default_rng(12)
        p = rng.uniform(0.3, 0.7, 8)
        ps = PropensityScores(p, np.log(p / (1 - p)))
        est = estimate_effect(data, "aipw", ESTIMAND_RD, ps)
        if est.failed:
            pytest.skip("arm model degenerate on this draw")
        # recover the arm-model predictions independently
        X = np.column_stack([np.ones(8), data.covariates])
        m = {}
        for arm in (1.0, 0.0):
            rows = data.treatment == arm
            fit = fit_logistic(X[rows], data.outcome[rows])
            m[arm] = 1 / (1 + np.exp(-(X @ fit.coefficients)))
        oracle = self.formula_oracle(data, ps, m[1.0], m[0.0])
        assert est.point == pytest.approx(oracle, abs=1e-10)

    def test_zero_outcome_models_give_weighted_difference(self):
        # with both arm predictions identically 0 the point reduces to the
        # Horvitz-Thompson mean difference; emulate via the identity
        data = random_dataset(13, n=200, k=1)
        ps = estimate_ps(data)
        w = iptw_weights(ps, data.treatment)
        a, y = data.treatment, data.outcome
        n = data.n_subjects
        ht = (a * y * w).sum() / n - ((1 - a) * y * w).sum() / n
        oracle = self.formula_oracle(data, ps, np.zeros(n), np.zeros(n))
        assert oracle == pytest.approx(ht, abs=1e-10)

    def test_empty_arm_fails(self):
        data = Dataset(np.zeros((6, 1)), np.ones(6), np.zeros(6))
        ps = constant_scores(6, 0.5)
        est = estimate_effect(data, "aipw", ESTIMAND_RD, ps)
        assert est.failed

    @staticmethod
    def scores_with(data, arm, logit):
        logits = np.linspace(-1.0, 1.0, data.n_subjects)
        logits[np.flatnonzero(data.treatment == arm)[0]] = logit
        return PropensityScores(expit(logits), logits)

    def test_overflow_of_the_other_arms_weight_is_unused(self):
        # a treated subject at logit 800: 1/(1-p) overflows but only controls
        # use it, and 1/p is exactly 1 there as at logit 40
        data = random_dataset(14, n=60, k=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_effect(
                data, "aipw", ESTIMAND_RD, self.scores_with(data, 1.0, 800.0)
            )
        expected = estimate_effect(
            data, "aipw", ESTIMAND_RD, self.scores_with(data, 1.0, 40.0)
        )
        assert not est.failed
        assert (est.point, est.se, est.ci) == (expected.point, expected.se, expected.ci)

    def test_overflow_of_a_used_weight_fails_as_separation(self):
        data = random_dataset(14, n=60, k=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_effect(
                data, "aipw", ESTIMAND_RD, self.scores_with(data, 1.0, -800.0)
            )
        assert est.failed
        assert est.failure_reason == "Separation"


class TestOrFamily:
    def test_crude_study_counts(self):
        est = estimate_effect(study_counts_dataset(), "crude", ESTIMAND_LOG_OR)
        assert est.point == pytest.approx(math.log(49 / 3), abs=1e-6)
        assert math.exp(est.point) == pytest.approx(16.333, abs=1e-2)

    def test_conditional_symmetric_discordance(self):
        y_t = np.array([1, 0, 1, 0, 1.0])
        y_c = np.array([0, 1, 0, 1, 1.0])
        n = 5
        a = np.concatenate([np.ones(n), np.zeros(n)])
        y = np.concatenate([y_t, y_c])
        data = Dataset(np.zeros((10, 0)), a, y)
        matched = MatchedSample(tuple((i, n + i) for i in range(n)))
        est = estimate_effect(
            data, "match_conditional", ESTIMAND_LOG_OR, matched=matched
        )
        assert est.point == pytest.approx(0.0)
        assert est.se == pytest.approx(math.sqrt(1 / 2 + 1 / 2))

    def test_conditional_brute_force_pair_table(self):
        outcomes = set()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            y_t = (rng.random(8) < 0.6).astype(float)
            y_c = (rng.random(8) < 0.4).astype(float)
            data, matched = matched_pairs(y_t, y_c)
            b = int(((y_t == 1) & (y_c == 0)).sum())
            c = int(((y_t == 0) & (y_c == 1)).sum())
            est = estimate_effect(
                data, "match_conditional", ESTIMAND_LOG_OR, matched=matched
            )
            if b == 0 or c == 0:
                assert est.failed and est.failure_reason == "DegenerateVariance"
            else:
                assert est.point == math.log(b / c)
                assert est.se == math.sqrt(1 / b + 1 / c)
            outcomes.add(est.failed)
        assert outcomes == {True, False}  # both branches were drawn

    def test_conditional_zero_count_fails(self):
        y_t = np.ones(4)
        y_c = np.zeros(4)
        a = np.concatenate([np.ones(4), np.zeros(4)])
        data = Dataset(np.zeros((8, 0)), a, np.concatenate([y_t, y_c]))
        matched = MatchedSample(tuple((i, 4 + i) for i in range(4)))
        est = estimate_effect(
            data, "match_conditional", ESTIMAND_LOG_OR, matched=matched
        )
        assert est.failed

    def test_gcomp_plain_collapses_to_crude(self):
        data = random_dataset(14, n=40)
        stripped = Dataset(np.zeros((40, 0)), data.treatment, data.outcome)
        crude = estimate_effect(stripped, "crude", ESTIMAND_LOG_OR)
        gc = estimate_effect(stripped, "gcomp", ESTIMAND_LOG_OR)
        assert gc.point == pytest.approx(crude.point, abs=1e-8)

    def test_extreme_or_fails(self):
        # complete separation in the 2x2 table: all treated events
        a = np.repeat([1.0, 0.0], [10, 10])
        y = np.concatenate([np.ones(10), np.ones(2), np.zeros(8)])
        data = Dataset(np.zeros((20, 0)), a, y)
        est = estimate_effect(data, "crude", ESTIMAND_LOG_OR)
        assert est.failed and est.failure_reason in ("ExtremeOR", "NotConverged")

    def test_alias_names_accepted(self):
        data = random_dataset(15, n=50)
        est = estimate_effect(data, "cov_adjusted", ESTIMAND_LOG_OR)
        assert est.method == "cov_adjusted"


class TestEstimateEffects:
    def test_every_method_reports(self):
        data = random_dataset(16, n=80, k=2)
        out = estimate_effects(data, RD_METHODS, ESTIMAND_RD)
        assert set(out) == set(RD_METHODS)
        for m, est in out.items():
            assert est.method == m
            assert est.failed or est.point is not None

    def test_or_registry_reports(self):
        data = random_dataset(17, n=80, k=2)
        out = estimate_effects(data, OR_METHODS, ESTIMAND_LOG_OR)
        assert set(out) == set(OR_METHODS)

    def test_single_arm_draw_fails_everything_gracefully(self):
        data = Dataset(
            np.random.default_rng(0).normal(size=(12, 1)),
            np.ones(12),
            (np.random.default_rng(1).random(12) < 0.5).astype(float),
        )
        out = estimate_effects(data, RD_METHODS, ESTIMAND_RD)
        assert all(est.failed for est in out.values())

    @pytest.mark.parametrize("estimand", [ESTIMAND_RD, ESTIMAND_LOG_OR])
    def test_repeated_methods_refused(self, estimand):
        data = random_dataset(21, n=60)
        with pytest.raises(ValueError, match="repeated"):
            estimate_effects(
                data, ("gcomp", "crude", "gcomp"), estimand,
                10, np.random.default_rng(0),
            )

    def test_one_bootstrap_replication_refused(self):
        data = random_dataset(21, n=60)
        with pytest.raises(ValueError, match="at least 2"):
            estimate_effects(
                data, ("gcomp",), ESTIMAND_RD, bootstrap=1, rng=np.random.default_rng(0)
            )

    def test_non_finite_success_raises(self, monkeypatch):
        def nan_ols_rd(X, y):
            return math.nan, None, None

        monkeypatch.setattr(estimators, "_ols_rd", nan_ols_rd)
        with pytest.raises(ArithmeticError, match="crude"):
            estimate_effects(random_dataset(20, n=40), ("crude",), ESTIMAND_RD)
        spec = simulation.make_scenario("covid", 40, 0.5)
        with pytest.raises(ReplicateError, match="ArithmeticError"):
            simulation.run_replicate(spec, ("crude",), "rd", 0, 3, 5)

    def test_escaped_estimation_error_names_the_replicate(self, monkeypatch):
        # a statistical failure is recorded, never raised: one that escapes
        # is a bug, and it must say which replicate to rerun
        def leaking(*args, **kwargs):
            raise SeparationError("leaked")

        monkeypatch.setattr(simulation, "estimate_effects", leaking)
        spec = simulation.make_scenario("covid", 40, 0.5)
        with pytest.raises(ReplicateError) as excinfo:
            simulation.run_replicate(spec, ("crude",), "rd", 0, 3, 5)
        assert str(excinfo.value) == (
            "replicate 5 of scenario 'covid' at master seed 3 raised SeparationError: leaked"
        )
        assert isinstance(excinfo.value.__cause__, SeparationError)

    @pytest.mark.parametrize("estimand", [ESTIMAND_RD, ESTIMAND_LOG_OR])
    def test_iptw_weight_overflow_fails_as_separation(self, monkeypatch, estimand):
        # a treated subject at logit -800 has 1/p = inf; the control at +800
        # overflows only in the treated branch, which it does not use
        data = random_dataset(22, n=60, k=1)
        logits = np.linspace(-1.0, 1.0, 60)
        logits[np.flatnonzero(data.treatment == 1)[0]] = -800.0
        logits[np.flatnonzero(data.treatment == 0)[0]] = 800.0
        scores = PropensityScores(expit(logits), logits)
        monkeypatch.setattr(estimators, "estimate_ps", lambda data: scores)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = estimate_effects(data, ("crude", "iptw"), estimand)
        assert not out["crude"].failed
        assert out["iptw"].failed and out["iptw"].failure_reason == "Separation"

    def test_label_flip_negates_points(self):
        data = random_dataset(18, n=150, k=2)
        flipped = Dataset(
            data.covariates, data.treatment, 1.0 - data.outcome)
        methods = ("crude", "cov_adjusted", "ps_covariate", "iptw", "gcomp", "aipw")
        a_out = estimate_effects(data, methods, ESTIMAND_RD)
        b_out = estimate_effects(flipped, methods, ESTIMAND_RD)
        for m in methods:
            if a_out[m].failed or b_out[m].failed:
                continue
            assert a_out[m].point == pytest.approx(-b_out[m].point, abs=1e-8)

    def test_arm_swap_negates_points(self):
        data = random_dataset(19, n=150, k=2)
        swapped = Dataset(
            data.covariates, 1.0 - data.treatment, data.outcome)
        methods = ("crude", "cov_adjusted", "iptw", "gcomp", "aipw")
        a_out = estimate_effects(data, methods, ESTIMAND_RD)
        b_out = estimate_effects(swapped, methods, ESTIMAND_RD)
        for m in methods:
            if a_out[m].failed or b_out[m].failed:
                continue
            assert a_out[m].point == pytest.approx(-b_out[m].point, abs=1e-8)


class TestMethodRegistry:
    PS_METHODS = {
        ESTIMAND_RD: {
            "ps_covariate", "matched", "iptw",
            "gcomp_simple_dr", "gcomp_dr_quintiles", "aipw",
        },
        ESTIMAND_LOG_OR: {
            "ps_covariate", "match_unadjusted", "match_conditional",
            "iptw", "gcomp_simple_dr", "gcomp_dr_quintiles",
        },
    }
    MATCH_METHODS = {
        ESTIMAND_RD: {"matched"},
        ESTIMAND_LOG_OR: {"match_unadjusted", "match_conditional"},
    }
    ALL = {ESTIMAND_RD: RD_METHODS, ESTIMAND_LOG_OR: OR_METHODS}

    def test_ids_and_order_are_fixed(self):
        # CSV row order follows these tuples
        assert RD_METHODS == (
            "crude", "cov_adjusted", "ps_covariate", "matched", "iptw",
            "gcomp", "gcomp_simple_dr", "gcomp_dr_quintiles", "aipw",
        )
        assert OR_METHODS == (
            "crude", "cov_adjusted", "ps_covariate", "match_unadjusted",
            "match_conditional", "iptw", "gcomp", "gcomp_simple_dr",
            "gcomp_dr_quintiles",
        )

    @pytest.mark.parametrize(
        "estimand, method",
        [
            (ESTIMAND_LOG_OR, "aipw"),
            (ESTIMAND_RD, "match_conditional"),
            (ESTIMAND_RD, "no_such_method"),
            (ESTIMAND_LOG_OR, "no_such_method"),
            ("risk_difference", "crude"),
        ],
    )
    def test_an_id_outside_the_estimand_is_refused(self, estimand, method):
        data = random_dataset(20, n=60)
        with pytest.raises(ValueError, match="unknown method"):
            estimate_effect(data, method, estimand)
        with pytest.raises(ValueError, match="unknown methods"):
            estimate_effects(data, (method,), estimand)

    @pytest.mark.parametrize("estimand", [ESTIMAND_RD, ESTIMAND_LOG_OR])
    def test_a_missing_score_or_matched_sample_is_refused(self, estimand):
        data = random_dataset(20, n=60)
        ps = estimate_ps(data)
        for method in self.PS_METHODS[estimand]:
            with pytest.raises(ValueError, match="requires"):
                estimate_effect(data, method, estimand)
        for method in self.MATCH_METHODS[estimand]:
            with pytest.raises(ValueError, match="requires a matched sample"):
                estimate_effect(data, method, estimand, ps)
        for method in set(self.ALL[estimand]) - self.PS_METHODS[estimand]:
            assert estimate_effect(data, method, estimand).method == method

    @pytest.mark.parametrize("estimand", [ESTIMAND_RD, ESTIMAND_LOG_OR])
    def test_propensity_failure_fails_exactly_the_ps_methods(
        self, estimand, monkeypatch
    ):
        from smallcausal import estimators
        from smallcausal.errors import NotConvergedError

        def no_scores(data):
            raise NotConvergedError("forced")

        monkeypatch.setattr(estimators, "estimate_ps", no_scores)
        out = estimate_effects(random_dataset(20, n=120), self.ALL[estimand], estimand)
        failed = {m: est.failure_reason for m, est in out.items() if est.failed}
        assert failed == dict.fromkeys(self.PS_METHODS[estimand], "NotConverged")

    @pytest.mark.parametrize("estimand", [ESTIMAND_RD, ESTIMAND_LOG_OR])
    def test_matching_failure_fails_only_the_matched_methods(
        self, estimand, monkeypatch
    ):
        from smallcausal import estimators
        from smallcausal.errors import NoPairsError

        def no_pairs(ps, treatment):
            raise NoPairsError("forced")

        monkeypatch.setattr(estimators, "match_caliper", no_pairs)
        out = estimate_effects(random_dataset(20, n=120), self.ALL[estimand], estimand)
        failed = {m: est.failure_reason for m, est in out.items() if est.failed}
        assert failed == dict.fromkeys(self.MATCH_METHODS[estimand], "NoPairs")
