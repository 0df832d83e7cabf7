import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_triangular
from scipy.special import expit
from scipy.stats import norm

from helpers import weighted_sandwich_covariance
from smallcausal import blas, glm
from smallcausal.errors import (
    LeverageOneError,
    NotConvergedError,
    RankDeficientError,
)
from smallcausal.estimators import OR_METHODS, RD_METHODS, estimate_effect
from smallcausal.glm import (
    IRLS_MAX_ITER,
    PLATEAU,
    fit_logistic,
    fit_logistic_batch,
    fit_ols,
    hc3_covariance,
    wald_ci,
)
from smallcausal.propensity import estimate_ps, iptw_weights
from smallcausal.simulation import generate, make_scenario, run_replicate


def random_design(seed, n=30, k=2, binary_y=False):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, k))])
    if binary_y:
        y = (rng.random(n) < 0.3 + 0.4 * (X[:, 1] > 0)).astype(float)
    else:
        y = rng.normal(size=n)
    return X, y


class TestFitOls:
    def test_intercept_only_is_mean(self):
        X = np.ones((4, 1))
        y = np.array([0.0, 1.0, 1.0, 0.0])
        fit = fit_ols(X, y)
        assert fit.coefficients == pytest.approx([0.5])

    def test_two_group_mean_difference(self):
        a = np.array([0.0, 0.0, 1.0, 1.0])
        X = np.column_stack([np.ones(4), a])
        y = np.array([0.0, 1.0, 1.0, 1.0])
        fit = fit_ols(X, y)
        assert fit.coefficients[1] == pytest.approx(0.5)

    def test_matches_normal_equations_oracle(self):
        # 6 rows, intercept + one continuous covariate; solve X'Xb = X'y by
        # explicit 2x2 inversion
        x = np.array([1.3, -0.4, 2.2, 0.7, -1.1, 0.5])
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 1.0])
        X = np.column_stack([np.ones(6), x])
        s_x, s_xx = x.sum(), (x * x).sum()
        s_y, s_xy = y.sum(), (x * y).sum()
        det = 6 * s_xx - s_x * s_x
        beta0 = (s_xx * s_y - s_x * s_xy) / det
        beta1 = (6 * s_xy - s_x * s_y) / det
        fit = fit_ols(X, y)
        assert fit.coefficients == pytest.approx([beta0, beta1], abs=1e-10)

    def test_rank_deficient_raises(self):
        X = np.column_stack([np.ones(5), np.ones(5)])
        with pytest.raises(RankDeficientError):
            fit_ols(X, np.zeros(5))

    def test_more_columns_than_rows_raises(self):
        with pytest.raises(RankDeficientError):
            fit_ols(np.ones((2, 3)), np.zeros(2))

    @pytest.mark.parametrize(
        "X, y",
        [
            (np.ones((4, 1)), np.full(4, 1e308)),  # Q'y overflows
            (np.full((3, 1), 1e308), np.ones(3)),  # so does R
        ],
    )
    def test_overflow_inside_the_qr_raises(self, X, y):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="infs"):
            fit_ols(X, y)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_residuals_orthogonal_to_design(self, seed):
        X, y = random_design(seed)
        fit = fit_ols(X, y)
        assert np.abs(X.T @ fit.residuals).max() <= 1e-8 * np.linalg.norm(y)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_hat_diagonals(self, seed):
        X, y = random_design(seed, k=3)
        fit = fit_ols(X, y)
        assert (fit.hat_diagonals >= 0).all()
        assert (fit.hat_diagonals < 1).all()
        assert fit.hat_diagonals.sum() == pytest.approx(X.shape[1], abs=1e-8)


class TestHc3:
    def test_perfect_fit_gives_zero(self):
        X = np.column_stack([np.ones(4), np.array([1.0, 2.0, 3.0, 4.0])])
        y = 2.0 + 3.0 * X[:, 1]
        fit = fit_ols(X, y)
        assert np.allclose(hc3_covariance(fit, X), 0.0, atol=1e-20)

    def test_intercept_only_two_points(self):
        # h_ii = 1/2, e = +/- 1/2: sum e^2/(1-h)^2 / N^2 = 2 / 4 = 0.5
        X = np.ones((2, 1))
        y = np.array([0.0, 1.0])
        fit = fit_ols(X, y)
        assert hc3_covariance(fit, X)[0, 0] == pytest.approx(0.5)

    def test_element_by_element_oracle(self):
        x = np.array([0.2, -1.4, 0.9, 2.3, -0.6])
        X = np.column_stack([np.ones(5), x])
        y = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        fit = fit_ols(X, y)
        # brute-force the sandwich formula
        xtx_inv = np.linalg.inv(X.T @ X)
        h = np.array([X[i] @ xtx_inv @ X[i] for i in range(5)])
        meat = np.zeros((2, 2))
        for i in range(5):
            e = y[i] - X[i] @ fit.coefficients
            meat += np.outer(X[i], X[i]) * e * e / (1 - h[i]) ** 2
        expected = xtx_inv @ meat @ xtx_inv
        assert np.allclose(hc3_covariance(fit, X), expected, atol=1e-12)

    def test_leverage_one_raises(self):
        # dummy column with a single 1 fits that row exactly
        d = np.array([0.0, 0.0, 0.0, 1.0])
        X = np.column_stack([np.ones(4), d])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        fit = fit_ols(X, y)
        with pytest.raises(LeverageOneError):
            hc3_covariance(fit, X)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_hc3_dominates_hc0(self, seed):
        X, y = random_design(seed, k=2)
        fit = fit_ols(X, y)
        hc3 = hc3_covariance(fit, X)
        assert (np.diag(hc3) >= np.diag(fit.covariance) - 1e-15).all()


class TestFitLogistic:
    def test_intercept_only_logit_of_proportion(self):
        X = np.ones((4, 1))
        y = np.array([1.0, 1.0, 1.0, 0.0])
        fit = fit_logistic(X, y)
        assert fit.iterations < IRLS_MAX_ITER
        assert fit.coefficients[0] == pytest.approx(math.log(3.0), abs=1e-8)

    def test_two_by_two_table_slope(self):
        # 14/20 events in one arm, 2/16 in the other:
        # slope = log((14/6)/(2/14)) = log(49/3)
        a = np.repeat([1.0, 0.0], [20, 16])
        y = np.concatenate([np.ones(14), np.zeros(6), np.ones(2), np.zeros(14)])
        X = np.column_stack([np.ones(36), a])
        fit = fit_logistic(X, y)
        assert fit.iterations < IRLS_MAX_ITER
        assert fit.coefficients[1] == pytest.approx(math.log(49.0 / 3.0), abs=1e-8)
        assert not fit.separation_flag

    def test_complete_separation_is_flagged(self):
        x = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        y = (x > 0).astype(float)
        X = np.column_stack([np.ones(6), x])
        try:
            fit = fit_logistic(X, y)
        except NotConvergedError:
            return
        assert fit.separation_flag

    def test_all_one_response_converges_at_boundary(self):
        # boundary walk: the score is still above IRLS_SCORE_TOL at the cap,
        # so the deviance plateau accepts the fit and the flag marks it
        X = np.ones((20, 1))
        fit = fit_logistic(X, np.ones(20))
        assert fit.iterations == IRLS_MAX_ITER
        assert fit_logistic_batch(X, np.ones(20), np.ones((1, 20)))[1] == [PLATEAU]
        assert fit.separation_flag
        assert expit(X @ fit.coefficients).min() > 1.0 - 1e-7

    def test_rank_deficient_raises(self):
        X = np.column_stack([np.ones(8), np.ones(8)])
        y = np.tile([0.0, 1.0], 4)
        with pytest.raises(RankDeficientError):
            fit_logistic(X, y)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_score_identity_and_mean_probability(self, seed):
        X, y = random_design(seed, n=60, k=2, binary_y=True)
        fit = fit_logistic(X, y)
        prob = expit(X @ fit.coefficients)
        assert np.abs(X.T @ (y - prob)).max() <= 1e-6
        assert prob.mean() == pytest.approx(y.mean(), abs=1e-6)
        assert 0.0 < prob.min() <= prob.max() < 1.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_label_symmetry(self, seed):
        X, y = random_design(seed, n=60, k=2, binary_y=True)
        fit = fit_logistic(X, y)
        flipped = fit_logistic(X, 1.0 - y)
        assert np.abs(fit.coefficients + flipped.coefficients).max() <= 1e-6

    @given(st.integers(0, 10_000), st.sampled_from([-3.0, -0.5, 0.25, 2.0, 10.0]))
    @settings(max_examples=25, deadline=None)
    def test_affine_invariance_of_probabilities(self, seed, c):
        X, y = random_design(seed, n=60, k=2, binary_y=True)
        fit = fit_logistic(X, y)
        X2 = X.copy()
        X2[:, 1] *= c
        rescaled = fit_logistic(X2, y)
        prob = expit(X @ fit.coefficients)
        assert np.abs(prob - expit(X2 @ rescaled.coefficients)).max() <= 1e-8
        assert rescaled.coefficients[1] == pytest.approx(
            fit.coefficients[1] / c, rel=1e-6
        )


class TestWeightedSandwich:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_unweighted_fit_is_the_unit_weight_fit_bit_for_bit(self, seed):
        X, y = random_design(seed, k=3)
        plain = fit_ols(X, y)
        unit = fit_ols(X, y, weights=np.ones(len(y)))
        for name in ("coefficients", "residuals", "hat_diagonals", "covariance"):
            np.testing.assert_array_equal(getattr(plain, name), getattr(unit, name))
        assert plain.weights is None
        hc3_covariance(plain, X)
        with pytest.raises(ValueError, match="unweighted"):
            hc3_covariance(unit, X)

    def test_unit_weights_reduce_to_hc0(self):
        X, y = random_design(7, n=25, k=2)
        fit = fit_ols(X, y)
        sw = weighted_sandwich_covariance(fit, X, y, np.ones(len(y)))
        assert np.allclose(sw, fit.covariance, atol=1e-12)

    def test_two_stratum_hand_computation(self):
        g = np.array([0.0, 0.0, 1.0, 1.0])
        X = np.column_stack([np.ones(4), g])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        w = np.array([1.0, 1.0, 2.0, 2.0])
        fit = fit_ols(X, y, weights=w)
        got = weighted_sandwich_covariance(fit, X, y, w)
        # brute-force sums
        e = y - X @ fit.coefficients
        bread = sum(w[i] * np.outer(X[i], X[i]) for i in range(4))
        meat = sum(w[i] ** 2 * e[i] ** 2 * np.outer(X[i], X[i]) for i in range(4))
        expected = np.linalg.inv(bread) @ meat @ np.linalg.inv(bread)
        assert np.allclose(got, expected, atol=1e-12)

    def test_doubling_weights_changes_nothing(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(30), rng.normal(size=30)])
        y = rng.normal(size=30)
        w = rng.uniform(0.5, 4.0, size=30)
        fit1 = fit_ols(X, y, weights=w)
        fit2 = fit_ols(X, y, weights=2.0 * w)
        assert np.allclose(fit1.coefficients, fit2.coefficients, atol=1e-12)
        cov1 = weighted_sandwich_covariance(fit1, X, y, w)
        cov2 = weighted_sandwich_covariance(fit2, X, y, 2.0 * w)
        assert np.allclose(cov1, cov2, atol=1e-12)

    def test_weighted_logistic_sandwich_is_symmetric_psd(self):
        X, y = random_design(11, n=80, k=2, binary_y=True)
        w = np.random.default_rng(11).uniform(0.5, 3.0, size=80)
        fit = fit_logistic(X, y, weights=w)
        cov = weighted_sandwich_covariance(fit, X, y, w)
        assert np.allclose(cov, cov.T, atol=1e-12)
        assert (np.linalg.eigvalsh(cov) >= -1e-12).all()

    def test_iptw_or_covariance_is_the_sandwich(self):
        # the iptw OR's interval comes from the weighted fit's covariance
        spec = make_scenario("covid", 100, 0.87)
        data, _ = generate(spec, np.random.default_rng(2007))
        ps = estimate_ps(data)
        w = iptw_weights(ps, data.treatment)
        X = np.column_stack([np.ones(100), data.treatment])
        fit = fit_logistic(X, data.outcome, weights=w)
        expected = weighted_sandwich_covariance(fit, X, data.outcome, w)
        assert np.abs(fit.covariance - expected).max() <= 1e-10
        est = estimate_effect(data, "iptw", "or", ps)
        assert est.se == math.sqrt(fit.covariance[1, 1])


class TestExpit:
    """``glm.expit`` is scipy's expit without scipy."""

    def test_scipy_bits(self):
        x = np.r_[np.linspace(-709.0, 745.0, 1_000_001), -800.0, 800.0, -np.inf, np.inf]
        np.testing.assert_array_equal(glm.expit(x), expit(x))

    def test_within_one_subnormal_ulp_near_underflow(self):
        # the C library's complex exp scales arguments in (709, 709.78)
        x = np.linspace(-709.78, -709.0, 100_001)
        assert np.abs(glm.expit(x) - expit(x)).max() <= np.nextafter(0.0, 1.0)


class TestWaldCi:
    def test_unit_se(self):
        lo, hi = wald_ci(0.0, 1.0)
        assert lo == pytest.approx(-1.959963985, abs=1e-6)
        assert hi == pytest.approx(1.959963985, abs=1e-6)

    def test_degenerate(self):
        assert wald_ci(0.4, 0.0) == (0.4, 0.4)

    def test_arithmetic(self):
        lo, hi = wald_ci(0.16, 0.05)
        assert lo == pytest.approx(0.16 - 1.959963985 * 0.05, abs=1e-9)
        assert hi == pytest.approx(0.16 + 1.959963985 * 0.05, abs=1e-9)
        assert (round(lo, 3), round(hi, 3)) == (0.062, 0.258)

    def test_z_is_the_normal_quantile_bit_for_bit(self):
        assert glm.WALD_Z == norm.ppf(0.5 * (1.0 + glm.WALD_LEVEL))
        assert wald_ci(0.0, 1.0) == (-glm.WALD_Z, glm.WALD_Z)


class TestSolveR:
    """``glm._solve_r`` calls LAPACK's trtrs as scipy's solve_triangular
    does for a C-ordered upper triangle, so both give the same bits; where
    numpy's OpenBLAS trtrs is not found, it solves the same system."""

    @pytest.mark.parametrize(
        "scenario, beta0, binding",
        [
            pytest.param("covid", None, "ctypes", id="covid-None"),
            pytest.param("austin", -1.5, "ctypes", id="austin--1.5"),
            pytest.param("covid", None, "fallback", id="covid-None-fallback"),
            pytest.param("austin", -1.5, "fallback", id="austin--1.5-fallback"),
        ],
    )
    @pytest.mark.parametrize("n", [100, 1000])
    @pytest.mark.parametrize("trans", [0, 1])
    def test_bit_identical_to_solve_triangular(
        self, monkeypatch, scenario, beta0, binding, n, trans
    ):
        if binding == "ctypes" and glm._DTRTRS is None:
            pytest.skip("numpy's OpenBLAS dtrtrs is not found here")
        if binding == "fallback":  # as where no numpy OpenBLAS is found
            monkeypatch.setattr(blas, "_loaded_libraries", lambda: [])
            monkeypatch.setattr(glm, "_DTRTRS", blas.scipy_dtrtrs())
            assert glm._DTRTRS is None
        rng = np.random.default_rng(n)
        data = generate(make_scenario(scenario, n, 0.5, beta0), rng)[0]
        X = np.column_stack([np.ones(n), data.treatment, data.covariates])
        M = (np.sqrt(rng.uniform(0.05, 0.25, n))[:, None] * X)[None]
        # the reduced R of fit_ols; the stacked R of a weighted design, and
        # the top block of its raw QR as the one-row QR step reads it, with
        # Householder vectors below the diagonal; a 1 x 1 R, which scipy
        # also sees as Fortran ordered
        factors = [
            np.linalg.qr(X)[1],
            np.linalg.qr(M, mode="r")[0],
            np.swapaxes(np.linalg.qr(M, mode="raw")[0], 1, 2)[0, : X.shape[1]],
            np.linalg.qr(X[:, :1], mode="r"),
        ]
        for R in factors:
            b = rng.normal(size=len(R)) * 10.0 ** rng.integers(-3, 4)
            got, expected = glm._solve_r(R, b, trans), solve_triangular(R, b, trans=trans)
            if binding == "ctypes":
                np.testing.assert_array_equal(got, expected)
            else:
                np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


class TestOneBlasPool:
    """Every fit stays on numpy's BLAS: the triangular solves take vectors
    only, so the thread pool scipy ships beside numpy's is never woken."""

    @pytest.mark.parametrize(
        "scenario, beta0, n, estimand, methods, bootstrap",
        [
            ("covid", None, 1000, "rd", RD_METHODS, 0),
            ("austin", -1.5, 100, "or", OR_METHODS, 20),
        ],
    )
    def test_scipy_solves_get_vectors_only(
        self, monkeypatch, scenario, beta0, n, estimand, methods, bootstrap
    ):
        shapes = []

        solve_r = glm._solve_r

        def recording_solve(R, b, *args, **kwargs):
            shapes.append(np.shape(b))
            return solve_r(R, b, *args, **kwargs)

        monkeypatch.setattr(glm, "_solve_r", recording_solve)
        spec = make_scenario(scenario, n, 1.0, beta0)
        estimates = run_replicate(spec, methods, estimand, bootstrap, 7, 0)
        assert any(not est.failed for est in estimates.values())
        assert shapes and all(len(shape) == 1 for shape in shapes)

    @pytest.mark.parametrize("scenario, beta0", [("covid", None), ("austin", -1.5)])
    def test_xtx_inverse_matches_the_triangular_solve(self, scenario, beta0):
        for n, seed in ((100, 0), (1000, 1)):
            spec = make_scenario(scenario, n, 0.5, beta0)
            data = generate(spec, np.random.default_rng(seed))[0]
            X = np.column_stack([np.ones(n), data.treatment, data.covariates])
            R = np.linalg.qr(X, mode="r")
            r_inv = solve_triangular(R, np.eye(R.shape[0]))
            expected = r_inv @ r_inv.T
            got = glm._xtx_inverse(R)
            assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()
