"""The batched g-computation bootstrap against the scalar path it replaces."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from smallcausal import bootstrap as bootstrap_module
from smallcausal import estimators, glm
from smallcausal.errors import (
    EstimationError,
    NotConvergedError,
    RankDeficientError,
)
from smallcausal.estimators import (
    ESTIMAND_LOG_OR,
    ESTIMAND_RD,
    ESTIMANDS,
    METHODS,
    OR_FAILURE_THRESHOLD,
    EffectEstimate,
    _intercept_design,
    _q_means,
    _with_gcomp_cis,
    estimate_effect,
)
from smallcausal.glm import (
    CONVERGED,
    IRLS_MAX_ITER,
    NON_FINITE,
    NOT_CONVERGED,
    PLATEAU,
    RANK_DEFICIENT,
    fit_logistic,
    fit_logistic_batch,
)
from smallcausal.propensity import (
    PropensityScores,
    estimate_ps,
    quintile_strata,
    signed_inverse_probability,
)
from smallcausal.simulation import generate, make_scenario

from helpers import dense_design, gcomp_design, gcomp_oracle, irls_oracle, take_rows


def scenario_data(scenario, seed, beta0=None, n=100):
    spec = make_scenario(scenario, n, 0.5, beta0)
    return generate(spec, np.random.default_rng(seed))[0]


def resample_counts(indices, n):
    return np.stack([np.bincount(row, minlength=n) for row in indices]).astype(float)


def batch_ps_fits(data, indices, shared=True):
    """Batched PS fits of the resamples, on the ``(n, p)`` design or on its
    first ``p - 1`` columns with the last one given as a per-resample
    ``(b, n)`` column: the design, the coefficients and which fits the
    kernel accepts."""
    X = _intercept_design(*data.covariates.T)
    counts = resample_counts(indices, data.n_subjects)
    if shared:
        beta, status, _ = fit_logistic_batch(X, data.treatment, counts)
    else:
        column = np.broadcast_to(X[:, -1], counts.shape)
        beta, status, _ = fit_logistic_batch(
            X[:, :-1], data.treatment, counts, column=column
        )
    return X, (beta, status <= PLATEAU)


class TestFitLogisticBatch:
    @pytest.mark.parametrize("shared", [True, False])
    def test_matches_scalar_fits_on_covid_resamples(self, shared):
        data = scenario_data("covid", 1)
        indices = np.random.default_rng(2).integers(0, 100, size=(50, 100))
        X, (beta, settled) = batch_ps_fits(data, indices, shared)
        assert settled.sum() >= 45
        for j, idx in enumerate(indices):
            try:
                fit = fit_logistic(X[idx], data.treatment[idx])
            except EstimationError:
                assert not settled[j]
                continue
            if settled[j]:
                np.testing.assert_allclose(
                    beta[j], fit.coefficients, rtol=0, atol=1e-10
                )

    @pytest.mark.parametrize("scenario,beta0", [("covid", None), ("austin", -1.5)])
    def test_shared_design_matches_its_broadcast(self, scenario, beta0):
        data = scenario_data(scenario, 1, beta0=beta0)
        indices = np.random.default_rng(2).integers(0, 100, size=(50, 100))
        _, (beta, settled) = batch_ps_fits(data, indices, shared=True)
        _, (beta3, settled3) = batch_ps_fits(data, indices, shared=False)
        assert settled.tolist() == settled3.tolist()
        np.testing.assert_allclose(beta, beta3, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("ratio,fits", [(3e-11, False), (3e-9, True)])
    def test_pivot_ratio_near_the_threshold_decides_like_scalar(self, ratio, fits):
        # the last column scaled so the design's pivot ratio is ``ratio``:
        # far below the Cholesky bound, so the QR check decides, and the
        # scalar fit raises RankDeficient exactly when the batch unsettles
        data = scenario_data("covid", 1)
        X = _intercept_design(*data.covariates.T)
        piv = np.abs(np.diag(np.linalg.qr(X, mode="r")))
        X[:, -1] *= ratio * piv.max() / piv[-1]
        indices = np.random.default_rng(2).integers(0, 100, size=(20, 100))
        beta, status, _ = fit_logistic_batch(
            X, data.treatment, resample_counts(indices, 100)
        )
        assert (status <= PLATEAU).tolist() == [fits] * 20
        assert status.tolist() == [CONVERGED if fits else RANK_DEFICIENT] * 20
        for j, idx in enumerate(indices):
            if not fits:
                with pytest.raises(RankDeficientError):
                    fit_logistic(X[idx], data.treatment[idx])
                continue
            fit = fit_logistic(X[idx], data.treatment[idx])
            np.testing.assert_allclose(beta[j], fit.coefficients, rtol=1e-7)

    def test_all_zero_dummy_column_is_unsettled(self):
        data = scenario_data("covid", 3)
        n = data.n_subjects
        # column 3 is the clinical-status-1 dummy; drop every row that has it
        keep = np.flatnonzero(data.covariates[:, 2] == 0)
        rng = np.random.default_rng(4)
        indices = rng.integers(0, n, size=(12, n))
        indices[5] = rng.choice(keep, size=n)
        X, (beta, settled) = batch_ps_fits(data, indices)
        # its Gram is singular, so the block's batched Cholesky raises
        counts = resample_counts(indices[5:6], n)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky((X.T * counts) @ X)
        with pytest.raises(RankDeficientError):
            fit_logistic(X[indices[5]], data.treatment[indices[5]])
        assert not settled[5]
        assert (beta[5] == 0).all()
        for j in np.flatnonzero(np.arange(12) != 5):
            assert settled[j]
            fit = fit_logistic(X[indices[j]], data.treatment[indices[j]])
            np.testing.assert_allclose(beta[j], fit.coefficients, rtol=0, atol=1e-10)

    def test_plateau_settles_iff_scalar_accepts_it(self):
        data = scenario_data("austin", 0, beta0=-1.5)
        indices = np.random.default_rng(0).integers(0, 100, size=(100, 100))
        X, (beta, settled) = batch_ps_fits(data, indices)
        at_cap = 0
        for j, idx in enumerate(indices):
            try:
                fit = fit_logistic(X[idx], data.treatment[idx])
            except NotConvergedError:
                at_cap += 1
                assert not settled[j]
                continue
            if fit.iterations == IRLS_MAX_ITER:  # plateau-accepted
                at_cap += 1
                assert settled[j]
                np.testing.assert_allclose(
                    beta[j], fit.coefficients, rtol=0, atol=1e-4
                )
        assert at_cap >= 3

    def test_non_finite_design_is_unsettled(self):
        column = np.tile(np.arange(6.0), (2, 1))
        column[1, 0] = np.inf
        y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        beta, status, _ = fit_logistic_batch(
            np.ones((6, 1)), y, np.ones((2, 6)), column=column
        )
        assert (status <= PLATEAU).tolist() == [True, False]
        X0 = np.column_stack([np.ones(6), column[0]])
        np.testing.assert_allclose(
            beta[0], fit_logistic(X0, y).coefficients, rtol=0, atol=1e-10
        )


class TestStatusCodes:
    """One constructed input per status code of the IRLS kernel, and the
    exception :func:`fit_logistic` raises for each failure code."""

    # complete separation on x: a boundary walk whose deviance plateaus
    SEPARATED_X = np.column_stack(
        [np.ones(6), [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]]
    )
    SEPARATED_Y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])

    def test_all_zero_column_is_rank_deficient(self):
        X = np.column_stack([np.ones(8), np.arange(8.0), np.zeros(8)])
        y = np.tile([0.0, 1.0], 4)
        _, status, iterations = fit_logistic_batch(X, y, np.ones((1, 8)))
        assert status.tolist() == [RANK_DEFICIENT]
        assert iterations.tolist() == [0]
        with pytest.raises(RankDeficientError):
            fit_logistic(X, y)

    def test_fewer_rows_than_columns_is_rank_deficient(self):
        X = np.array([[1.0, 0.0, 2.0], [1.0, 1.0, 3.0]])
        _, status, _ = fit_logistic_batch(X, [0.0, 1.0], np.ones((1, 2)))
        assert status.tolist() == [RANK_DEFICIENT]

    def test_separated_walk_plateaus_at_the_cap(self):
        X, y = self.SEPARATED_X, self.SEPARATED_Y
        _, status, iterations = fit_logistic_batch(X, y, np.ones((1, 6)))
        assert status.tolist() == [PLATEAU]
        assert iterations.tolist() == [IRLS_MAX_ITER]
        fit = fit_logistic(X, y)
        assert fit.separation_flag and fit.iterations == IRLS_MAX_ITER

    def test_heavy_separated_walk_does_not_plateau(self):
        # weights of 1e12 keep the deviance far above the plateau's 0.1
        # floor, so it still falls by a constant share per iteration
        X, y = self.SEPARATED_X, self.SEPARATED_Y
        w = np.full(6, 1e12)
        _, status, iterations = fit_logistic_batch(X, y, w[None])
        assert status.tolist() == [NOT_CONVERGED]
        assert iterations.tolist() == [IRLS_MAX_ITER]
        with pytest.raises(NotConvergedError):
            fit_logistic(X, y, weights=w)

    def test_later_pivot_failure_does_not_converge(self):
        # the walk saturates the rows that carry the last column, so a later
        # factorisation fails the pivot check; the first one passes
        X = np.array([
            [1.0, 0.6, -0.2], [1.0, -17.4, -0.3], [1.0, 0.6, -0.1],
            [1.0, -1.2, 0.1], [1.0, -1.6, 1.5],
        ])
        y = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        w = np.array([1.0, 3.0, 1.0, 3.0, 3.0])
        _, status, iterations = fit_logistic_batch(X, y, w[None])
        assert status.tolist() == [NOT_CONVERGED]
        assert 0 < iterations[0] < IRLS_MAX_ITER
        with pytest.raises(NotConvergedError):
            fit_logistic(X, y, weights=w)

    def test_non_finite_design_entry(self):
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        X[0, 1] = np.inf
        y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        counts = np.ones((2, 6))
        counts[1, 0] = 0.0  # the second resample leaves the bad row out
        beta, status, _ = fit_logistic_batch(X, y, counts)
        assert status.tolist() == [NON_FINITE, CONVERGED]
        np.testing.assert_allclose(
            beta[1], fit_logistic(X[1:], y[1:]).coefficients, rtol=0, atol=1e-10
        )
        with pytest.raises(ValueError):
            fit_logistic(X, y)

    def test_converged_rows_match_the_oracle_on_covid_resamples(self):
        data = scenario_data("covid", 12)
        indices = np.random.default_rng(13).integers(0, 100, size=(40, 100))
        X = _intercept_design(*data.covariates.T)
        beta, status, _ = fit_logistic_batch(
            X, data.treatment, resample_counts(indices, 100)
        )
        assert (status == CONVERGED).sum() >= 35
        for j in np.flatnonzero(status == CONVERGED):
            idx = indices[j]
            np.testing.assert_allclose(
                beta[j], irls_oracle(X[idx], data.treatment[idx]), rtol=0, atol=1e-8
            )


def q_model_inputs(scenario, beta0, seed, q_spec, b=60):
    """The shared Q block, response, resample counts and per-resample part
    of ``b`` resamples of one dataset, as the bootstrap builds them."""
    data = scenario_data(scenario, seed, beta0=beta0)
    indices = np.random.default_rng(seed + 1).integers(0, 100, size=(b, 100))
    counts = resample_counts(indices, 100)
    X_ps = _intercept_design(*data.covariates.T)
    logits = fit_logistic_batch(X_ps, data.treatment, counts)[0] @ X_ps.T
    if q_spec == "simple_dr":
        part = {"column": signed_inverse_probability(data.treatment, logits)}
    else:
        expanded = np.take_along_axis(logits, indices, axis=1)
        part = {"strata": quintile_strata(logits, expanded)[0]}
    X = _intercept_design(data.treatment, *data.covariates.T)
    return X, data.outcome, counts, part


class TestStructuredDesigns:
    """A shared block plus one per-resample part against one-row fits of
    the dense designs (:func:`helpers.dense_design`)."""

    @pytest.mark.parametrize("q_spec", ["simple_dr", "dr_quintiles"])
    @pytest.mark.parametrize("scenario,beta0", [("covid", None), ("austin", -1.5)])
    def test_matches_one_row_fits_of_the_dense_designs(self, scenario, beta0, q_spec):
        X, y, counts, part = q_model_inputs(scenario, beta0, 21, q_spec)
        beta, status, iterations = fit_logistic_batch(X, y, counts, **part)
        dense = dense_design(X, **part)
        assert dense.shape == (60, 100, beta.shape[1])
        for j, design in enumerate(dense):
            (coef,), (code,), (its,) = fit_logistic_batch(design, y, counts[j][None])
            assert (status[j], iterations[j]) == (code, its)
            if code == CONVERGED:
                np.testing.assert_allclose(beta[j], coef, rtol=0, atol=1e-10)
        assert (status == CONVERGED).sum() >= 30

    def test_inf_column_counts_only_where_drawn(self):
        X, y, counts, part = q_model_inputs("covid", None, 22, "simple_dr", b=2)
        column = part["column"].copy()
        # a row drawn by resample 0 only gets an overflowed covariate
        i = np.flatnonzero((counts[0] > 0) & (counts[1] == 0))[0]
        column[:, i] = np.inf
        beta, status, _ = fit_logistic_batch(X, y, counts, column=column)
        assert status.tolist() == [NON_FINITE, CONVERGED]
        rows = np.repeat(np.arange(100), counts[1].astype(int))
        design = np.column_stack([X, part["column"][1]])[rows]
        np.testing.assert_allclose(
            beta[1], fit_logistic(design, y[rows]).coefficients, rtol=0, atol=1e-10
        )

    def test_empty_stratum_is_rank_deficient(self):
        X, y, counts, part = q_model_inputs("covid", None, 23, "dr_quintiles", b=3)
        strata = part["strata"].copy()
        strata[1][strata[1] == 3] = 2  # nothing left in stratum 3
        _, status, iterations = fit_logistic_batch(X, y, counts, strata=strata)
        assert status[1] == RANK_DEFICIENT and iterations[1] == 0
        _, alone, _ = fit_logistic_batch(X, y, counts[[0, 2]], strata=strata[[0, 2]])
        assert status[[0, 2]].tolist() == alone.tolist()
        assert (alone <= PLATEAU).all()

    def test_fewer_rows_than_columns_is_rank_deficient(self):
        X = np.column_stack([np.ones(4), [0.0, 1.0, 0.0, 1.0]])
        strata = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
        _, status, _ = fit_logistic_batch(
            X, [0.0, 1.0, 1.0, 0.0], np.ones((2, 4)), strata=strata
        )
        assert status.tolist() == [RANK_DEFICIENT] * 2

    @pytest.mark.parametrize("q_spec", [None, "dr_quintiles"])
    def test_only_the_singular_row_takes_the_qr_step(self, monkeypatch, q_spec):
        # row 5's Gram is singular, so the batched Cholesky raises for the
        # stack; the kernel finds that row and gives the QR step to it alone
        data = scenario_data("covid", 3)
        n = data.n_subjects
        rng = np.random.default_rng(4)
        indices = rng.integers(0, n, size=(12, n))
        if q_spec is None:
            X, y, part = _intercept_design(*data.covariates.T), data.treatment, {}
            # column 3 is the clinical-status-1 dummy; drop every row with it
            indices[5] = rng.choice(np.flatnonzero(data.covariates[:, 2] == 0), n)
            counts = resample_counts(indices, n)
        else:
            X, y, counts, part = q_model_inputs("covid", None, 3, q_spec, b=12)
            part["strata"][5][part["strata"][5] == 3] = 2  # stratum 3 empty
        real = glm._qr_steps
        seen = []

        def spy(X, irls_w, score):
            seen.append(irls_w.copy())
            return real(X, irls_w, score)

        monkeypatch.setattr(glm, "_qr_steps", spy)
        beta, status, _ = fit_logistic_batch(X, y, counts, **part)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], 0.25 * counts[5:6])  # zero start
        assert status[5] == RANK_DEFICIENT
        others = np.arange(12) != 5
        assert (status[others] <= PLATEAU).all()
        part = {key: value[others] for key, value in part.items()}
        without, status_without, _ = fit_logistic_batch(X, y, counts[others], **part)
        np.testing.assert_array_equal(beta[others], without)
        assert status_without.tolist() == status[others].tolist()


def oracle_point(data, q_spec, logits, estimand):
    """The point and failure tag of :func:`helpers.gcomp_oracle` for the
    estimand, and whether its Q fit ran to the iteration cap (a fit
    accepted on the deviance plateau does)."""
    try:
        m1, m0, iterations = gcomp_oracle(data, q_spec, logits)
    except EstimationError as exc:
        return None, exc.reason, False
    at_cap = iterations == IRLS_MAX_ITER
    if estimand == ESTIMAND_RD:
        return m1 - m0, None, at_cap
    if not (0.0 < m1 < 1.0 and 0.0 < m0 < 1.0):
        return None, "ExtremeOR", at_cap
    point = math.log(m1 / (1.0 - m1)) - math.log(m0 / (1.0 - m0))
    if point >= math.log(OR_FAILURE_THRESHOLD):
        return None, "ExtremeOR", at_cap
    return point, None, at_cap


class TestPointAgainstDenseOracle:
    """Each g-computation point, the one-row call of the batched Q-model
    path, against the dense oracle."""

    @pytest.mark.parametrize(
        "scenario,beta0,n,beta_trt",
        [("covid", None, 100, 0.5), ("austin", -1.5, 100, 1.0), ("austin", -1.5, 40, 1.0)],
    )
    def test_tags_and_points_match(self, scenario, beta0, n, beta_trt):
        spec = make_scenario(scenario, n, beta_trt, beta0)
        tags, compared = set(), 0
        for seed in range(20):
            data = generate(spec, np.random.default_rng(seed))[0]
            ps = estimate_ps(data)
            for q_spec in ("plain", "simple_dr", "dr_quintiles"):
                logits = None if q_spec == "plain" else ps.logits
                method = "gcomp" if q_spec == "plain" else "gcomp_" + q_spec
                for estimand in (ESTIMAND_RD, ESTIMAND_LOG_OR):
                    est = estimate_effect(data, method, estimand, ps)
                    point, tag, at_cap = oracle_point(data, q_spec, logits, estimand)
                    assert est.failure_reason == tag, (seed, method, estimand)
                    tags.add(tag)
                    if tag is None and not at_cap:
                        assert est.point == pytest.approx(point, rel=0, abs=1e-10)
                        compared += 1
        assert compared >= 40
        if n == 40:
            assert {"ExtremeOR", "NotConverged", "RankDeficient"} <= tags


def scalar_ci(data, q_spec, estimand, replications, rng):
    """The g-computation bootstrap as an explicit loop of dense scalar fits
    (:func:`helpers.gcomp_oracle`)."""
    n = data.n_subjects
    values, dropped = [], 0
    for indices in rng.integers(0, n, size=(replications, n)):
        resample = take_rows(data, indices)
        try:
            if resample.n_treated in (0, n):
                raise RankDeficientError("single-arm")
            logits = None if q_spec == "plain" else estimate_ps(resample).logits
            value = float(ESTIMANDS[estimand].contrast(*gcomp_oracle(resample, q_spec, logits)[:2]))
        except EstimationError:
            dropped += 1
            continue
        if np.isnan(value):  # a log odds ratio on the boundary
            dropped += 1
        else:
            values.append(value)
    lo, hi = np.quantile(values, bootstrap_module.PERCENTILES)
    return (lo, hi), dropped


def _gcomp_ci(data, q_spec, estimand, replications, rng):
    """The bootstrap pass with one Q-model spec: its one interval."""
    method = next(m for m, row in METHODS[estimand].items() if row.q_spec == q_spec)
    estimate = EffectEstimate(estimand, method, 0.0)
    (est,) = _with_gcomp_cis(data, [estimate], replications, rng)
    return est.ci


def counted_ci(monkeypatch, data, q_spec, estimand, replications, rng):
    """``_gcomp_ci`` plus the number of resamples it dropped."""
    real = bootstrap_module.bootstrap_percentile_ci
    dropped = []

    def spy(data, estimator, replications, rng):
        def counting(indices):
            values = estimator(indices)
            dropped.append(int(np.isnan(values).sum()))
            return values

        return real(data, counting, replications, rng)

    monkeypatch.setattr(estimators, "bootstrap_percentile_ci", spy)
    return _gcomp_ci(data, q_spec, estimand, replications, rng), sum(dropped)


class TestBatchedGcompCi:
    @pytest.mark.parametrize("q_spec", ["plain", "simple_dr", "dr_quintiles"])
    # each id names the estimand's contrast
    @pytest.mark.parametrize(
        "estimand", [ESTIMAND_RD, ESTIMAND_LOG_OR], ids=lambda e: ESTIMANDS[e].contrast.__name__
    )
    def test_matches_scalar_loop(self, monkeypatch, q_spec, estimand):
        data = scenario_data("covid", 5)
        replications = 40
        expected, expected_dropped = scalar_ci(
            data, q_spec, estimand, replications, np.random.default_rng(6)
        )
        ci, dropped = counted_ci(
            monkeypatch, data, q_spec, estimand, replications, np.random.default_rng(6)
        )
        np.testing.assert_allclose(ci, expected, rtol=0, atol=1e-10)
        assert dropped == expected_dropped

    def test_drops_match_scalar_loop_on_separated_data(self, monkeypatch):
        data = scenario_data("austin", 1, beta0=-1.5)
        replications = 40
        expected, expected_dropped = scalar_ci(
            data, "simple_dr", ESTIMAND_LOG_OR, replications, np.random.default_rng(7)
        )
        ci, dropped = counted_ci(
            monkeypatch, data, "simple_dr", ESTIMAND_LOG_OR, replications,
            np.random.default_rng(7),
        )
        assert expected_dropped > 0
        assert dropped == expected_dropped
        np.testing.assert_allclose(ci, expected, rtol=0, atol=1e-4)

    @pytest.mark.parametrize("q_spec", ["plain", "simple_dr", "dr_quintiles"])
    def test_same_interval_in_one_block_or_several(self, monkeypatch, q_spec):
        data = scenario_data("covid", 8)
        replications = 30
        real = bootstrap_module.bootstrap_percentile_ci
        blocks = []

        def spy(data, estimator, replications, rng):
            def recording(indices):
                blocks.append(len(indices))
                return estimator(indices)

            return real(data, recording, replications, rng)

        monkeypatch.setattr(estimators, "bootstrap_percentile_ci", spy)
        one = _gcomp_ci(data, q_spec, ESTIMAND_RD, replications, np.random.default_rng(9))
        assert blocks == [30]
        # 30 resamples of n=100 over 400 doubles a block: 8 blocks of 4 or less
        monkeypatch.setattr(bootstrap_module, "BATCH_DOUBLES", 400)
        blocks.clear()
        several = _gcomp_ci(
            data, q_spec, ESTIMAND_RD, replications, np.random.default_rng(9)
        )
        assert blocks == [4] * 7 + [2]
        np.testing.assert_allclose(several, one, rtol=0, atol=1e-12)


class TestNonFiniteGcomp:
    @staticmethod
    def scores(data, logits):
        return PropensityScores(expit(logits), logits)

    def test_overflowed_fitted_design_fails_as_separation(self):
        data = scenario_data("covid", 10, n=60)
        logits = np.linspace(-2.0, 1.0, data.n_subjects)
        logits[np.flatnonzero(data.treatment == 1)[0]] = -800.0  # 1/p overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_effect(
                data, "gcomp_simple_dr", ESTIMAND_RD, self.scores(data, logits)
            )
        assert est.failed
        assert est.failure_reason == "Separation"

    def test_overflow_only_in_counterfactual_design_keeps_the_limit(self):
        data = scenario_data("covid", 10, n=60)
        logits = np.linspace(-2.0, 1.0, data.n_subjects)
        logits[np.flatnonzero(data.treatment == 1)[0]] = 800.0  # 1/(1-p) unused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_effect(
                data, "gcomp_simple_dr", ESTIMAND_RD, self.scores(data, logits)
            )
        assert not est.failed
        assert -1.0 <= est.point <= 1.0

    def test_counterfactual_overflow_predicts_the_limit(self):
        # a treated subject at logit 800 has a -inf covariate under a = 0;
        # its prediction there is expit(+-inf), exactly 0 or 1
        data = scenario_data("covid", 10, n=60)
        i = np.flatnonzero(data.treatment == 1)[0]
        logits = np.linspace(-2.0, 1.0, data.n_subjects)
        logits[i] = 800.0
        (m1,), (m0,), _ = _q_means(data, "simple_dr", np.ones((1, 60)), logits[None], None)
        X = gcomp_design(data, "simple_dr", data.treatment, logits)
        coef = fit_logistic(X, data.outcome).coefficients
        X0 = gcomp_design(data, "simple_dr", np.zeros(60), logits)
        assert X0[i, -1] == -np.inf and np.isfinite(np.delete(X0, i, axis=0)).all()
        prediction = expit(np.delete(X0, i, axis=0) @ coef)
        limit = 1.0 if coef[-1] < 0 else 0.0
        assert m0 == pytest.approx((prediction.sum() + limit) / 60, rel=1e-13)

    def test_huge_column_entry_outside_the_resample_fits_quietly(self):
        # a control at logit 709 has signed inverse probability -8e307; its
        # count is 0, and once the column's coefficient passes about 2.2 its
        # linear predictor overflows to -inf, which the fit must not warn of
        rng = np.random.default_rng(5)
        n = 200
        a = (rng.random(n) < 0.5).astype(float)
        logits = rng.normal(scale=0.7, size=n)
        i = np.flatnonzero(a == 0)[0]
        logits[i] = 709.0
        column = signed_inverse_probability(a, logits)
        assert column[i] < -8e307
        centre = np.where(a == 1, 2.0, -2.0)
        y = (rng.random(n) < expit(3.0 * (np.clip(column, -50, 50) - centre))).astype(float)
        X = np.column_stack([np.ones(n), a])
        counts = np.ones((1, n))
        counts[0, i] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta, status, _ = fit_logistic_batch(X, y, counts, column=column[None])
        keep = np.arange(n) != i
        without, _, _ = fit_logistic_batch(
            X[keep], y[keep], counts[:, keep], column=column[None, keep]
        )
        assert status[0] == CONVERGED and abs(beta[0, 2]) > 2.2
        np.testing.assert_allclose(beta, without, rtol=0, atol=1e-10)

    def test_signed_covariate_is_the_two_branch_formula(self):
        eta = np.random.default_rng(11).normal(scale=3.0, size=50)
        a = (np.arange(50) % 3 == 0).astype(float)
        expected = np.where(a == 1, 1.0 + np.exp(-eta), -(1.0 + np.exp(eta)))
        assert np.array_equal(signed_inverse_probability(a, eta), expected)
