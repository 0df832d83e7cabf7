"""Acceptance gate: every reproduction criterion at its stated tolerance.

Each test prints one PASS/FAIL line per checked quantity (run with ``-s`` to
see them on success) and fails if any check misses its tolerance.
"""

import time

import numpy as np
import pytest
from scipy.special import expit

from helpers import greedy_match_oracle, summarize_oracle
from smallcausal.data import Dataset
from smallcausal.estimators import (
    ESTIMAND_RD,
    RD_METHODS,
    EffectEstimate,
    estimate_effect,
)
from smallcausal.glm import fit_logistic, fit_ols, hc3_covariance
from smallcausal.propensity import (
    estimate_ps,
    iptw_weights,
    match_caliper,
)
from smallcausal.simulation import (
    ScenarioSpec,
    generate,
    make_scenario,
    run_study,
    summarize,
    true_marginal_effect,
)
from smallcausal.streams import derive_substream


def run_checks(checks):
    failures = []
    for label, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        print(f"  [{status}] {label}: {detail}")
        if not ok:
            failures.append(f"{label}: {detail}")
    assert not failures, "; ".join(failures)


def within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


def test_criterion_1_treated_fractions():
    t0 = time.time()
    cases = [
        ("covid", None, 0.552),
        ("covid", -1.8, 0.656),
        ("covid", -1.0, 0.797),
        ("unmeasured", None, 0.538),
        ("austin", None, 0.494),
        ("austin", -1.5, 0.801),
    ]
    checks = []
    for scen, b0, expect in cases:
        spec = make_scenario(scen, 1_000_000, 0.0, b0)
        data, _ = generate(spec, derive_substream(101, scen, 0, "data"))
        frac = data.treatment.mean()
        checks.append(
            (
                f"treated fraction {scen} b0={b0 if b0 is not None else 'default'}",
                abs(frac - expect) <= 0.003,
                f"got {frac:.4f}, expect {expect:.3f} +/- 0.003",
            )
        )
    elapsed = time.time() - t0
    checks.append(("criterion-1 runtime", elapsed < 60, f"{elapsed:.0f}s < 60s"))
    run_checks(checks)


def test_criterion_2_calibration_oracle():
    t0 = time.time()
    rd_cases = [
        ("covid", 0.8678, 0.160),
        ("covid", 3.128, 0.400),
        ("unmeasured", 1.1111, 0.16),
        ("unmeasured", 3.71, 0.40),
        ("austin", 1.032, 0.16),
        ("austin", 2.448, 0.40),
    ]
    checks = []
    for scen, beta_trt, expect in rd_cases:
        spec = make_scenario(scen, 10_000, beta_trt)
        rd = true_marginal_effect(spec, "rd")
        checks.append(
            (
                f"marginal RD {scen} beta_trt={beta_trt}",
                abs(rd - expect) <= 0.005,
                f"got {rd:.4f}, expect {expect} +/- 0.005",
            )
        )
    or_cases = [("covid", 0.8678, 2.0, 0.05), ("covid", 2.7565, 10.0, 0.3)]
    for scen, beta_trt, expect, tol in or_cases:
        spec = make_scenario(scen, 10_000, beta_trt)
        odds = np.exp(true_marginal_effect(spec, "or"))
        checks.append(
            (
                f"marginal OR {scen} beta_trt={beta_trt}",
                abs(odds - expect) <= tol,
                f"got {odds:.3f}, expect {expect} +/- {tol}",
            )
        )
    elapsed = time.time() - t0
    checks.append(("criterion-2 runtime", elapsed < 300, f"{elapsed:.0f}s < 300s"))
    run_checks(checks)


def test_criterion_3_fast_estimators_n1000():
    # 2000 replicates, no bootstrap intervals needed: the gated quantities
    # are point-estimator RMSEs plus the two closed-form interval lengths
    methods = ("crude", "cov_adjusted", "ps_covariate", "iptw", "gcomp_dr_quintiles")
    spec = make_scenario("covid", 1000, 0.0)
    _, summary = run_study(spec, methods, "rd", 2000, 0, 103, 0.0, workers=1)
    rmse_targets = {
        "crude": 0.1319,
        "cov_adjusted": 0.0304,
        "ps_covariate": 0.03046,
        "iptw": 0.03058,
        "gcomp_dr_quintiles": 0.03002,
    }
    checks = []
    for m, target in rmse_targets.items():
        got = summary[m].rmse
        checks.append(
            (
                f"RMSE {m}",
                within(got, target, 0.10),
                f"got {got:.5f}, expect {target} +/- 10%",
            )
        )
    ci_targets = {"iptw": 0.04152, "cov_adjusted": 0.121}
    for m, target in ci_targets.items():
        got = summary[m].median_ci_length
        checks.append(
            (
                f"median CI length {m}",
                within(got, target, 0.10),
                f"got {got:.5f}, expect {target} +/- 10%",
            )
        )
    run_checks(checks)


def test_criterion_4_small_n_and_aipw_failures():
    spec100 = make_scenario("covid", 100, 3.128)
    true_rd = true_marginal_effect(spec100, "rd")
    _, s100 = run_study(
        spec100, ("cov_adjusted", "aipw"), "rd", 2000, 0, 104, true_rd, workers=1
    )
    spec40 = make_scenario("covid", 40, 3.128)
    _, s40 = run_study(spec40, ("aipw",), "rd", 2000, 0, 104, true_rd, workers=1)

    cov = s100["cov_adjusted"]
    checks = [
        (
            "cov_adjusted RMSE (N=100)",
            within(cov.rmse, 0.08743, 0.10),
            f"got {cov.rmse:.5f}, expect 0.08743 +/- 10%",
        ),
        (
            "cov_adjusted MAE (N=100)",
            within(cov.mae, 0.05963, 0.10),
            f"got {cov.mae:.5f}, expect 0.05963 +/- 10%",
        ),
        (
            "aipw failures (N=100)",
            s100["aipw"].n_failures <= 5,
            f"got {s100['aipw'].n_failures}, expect 0 +/- 5",
        ),
        (
            "aipw failures (N=40)",
            30 <= s40["aipw"].n_failures <= 100,
            f"got {s40['aipw'].n_failures}, expect in [30, 100]",
        ),
    ]
    run_checks(checks)


def test_criterion_5_unmeasured_confounding_signature():
    spec = make_scenario("unmeasured", 1000, 0.0)
    _, summary = run_study(spec, RD_METHODS, "rd", 2000, 0, 105, 0.0, workers=1)
    checks = []
    for m in RD_METHODS:
        got = summary[m].rmse
        checks.append(
            (f"RMSE {m} >= 0.25", got is not None and got >= 0.25, f"got {got:.4f}")
        )
    crude_rmse = summary["crude"].rmse
    adj_rmse = summary["cov_adjusted"].rmse
    checks.append(
        (
            "crude RMSE > cov_adjusted RMSE",
            crude_rmse > adj_rmse,
            f"{crude_rmse:.4f} > {adj_rmse:.4f}",
        )
    )
    adj_cov = summary["cov_adjusted"].coverage
    checks.append(
        ("cov_adjusted coverage < 50%", adj_cov < 0.5, f"got {adj_cov:.3f}")
    )
    run_checks(checks)


def _score_identity_check():
    rng = np.random.default_rng(61)
    X = np.column_stack([np.ones(200), rng.normal(size=(200, 2))])
    y = (rng.random(200) < 0.4).astype(float)
    fit = fit_logistic(X, y)
    worst = np.abs(X.T @ (y - expit(X @ fit.coefficients))).max()
    return worst <= 1e-6, f"max |X'(y-p)| = {worst:.2e} <= 1e-6"


def _hc3_dominance_check():
    rng = np.random.default_rng(62)
    worst = -np.inf
    for _ in range(50):
        X = np.column_stack([np.ones(25), rng.normal(size=(25, 2))])
        y = rng.normal(size=25)
        fit = fit_ols(X, y)
        gap = (np.diag(fit.covariance) - np.diag(hc3_covariance(fit, X))).max()
        worst = max(worst, gap)
    return worst <= 1e-12, f"max (HC0 - HC3) diagonal gap = {worst:.2e} <= 0"


def _matching_oracle_check():
    rng = np.random.default_rng(63)
    from smallcausal.propensity import PropensityScores

    for trial in range(200):
        n = int(rng.integers(10, 61))
        logits = np.round(rng.normal(size=n), 3)  # ties occur after rounding
        treatment = (rng.random(n) < rng.uniform(0.25, 0.75)).astype(float)
        if treatment.sum() in (0, n):
            continue
        p = 1 / (1 + np.exp(-logits))
        ps = PropensityScores(p, logits)
        caliper = 0.2 * np.std(logits, ddof=1)
        expected = greedy_match_oracle(logits, p, treatment, caliper)
        try:
            got = list(match_caliper(ps, treatment).pairs)
        except Exception:
            got = []
        if got != expected:
            return False, f"mismatch on trial {trial} (n={n})"
    return True, "200 random instances identical to the brute-force matcher"


def _gcomp_collapse_check():
    rng = np.random.default_rng(64)
    worst = 0.0
    for _ in range(20):
        n = 40
        a = (rng.random(n) < 0.5).astype(float)
        y = (rng.random(n) < 0.3 + 0.3 * a).astype(float)
        if a.sum() in (0, n) or y.sum() in (0, n):
            continue
        data = Dataset(np.zeros((n, 0)), a, y)
        gc = estimate_effect(data, "gcomp", ESTIMAND_RD)
        cr = estimate_effect(data, "crude", ESTIMAND_RD)
        if gc.failed or cr.failed:
            continue
        worst = max(worst, abs(gc.point - cr.point))
    return worst <= 1e-10, f"max |gcomp - crude| = {worst:.2e} <= 1e-10"


def _aipw_oracle_check():
    rng = np.random.default_rng(65)
    from smallcausal.propensity import PropensityScores

    x = rng.normal(size=(8, 1))
    a = np.array([1, 0, 1, 1, 0, 1, 0, 0], dtype=float)
    y = np.array([1, 0, 0, 1, 1, 1, 0, 0], dtype=float)
    data = Dataset(x, a, y)
    p = rng.uniform(0.3, 0.7, 8)
    ps = PropensityScores(p, np.log(p / (1 - p)))
    est = estimate_effect(data, "aipw", ESTIMAND_RD, ps)
    if est.failed:
        return False, f"aipw failed: {est.failure_reason}"
    X = np.column_stack([np.ones(8), x])
    m = {}
    for arm in (1.0, 0.0):
        rows = a == arm
        fit = fit_logistic(X[rows], y[rows])
        m[arm] = 1 / (1 + np.exp(-(X @ fit.coefficients)))
    total = 0.0
    for i in range(8):
        t1 = a[i] * y[i] / p[i] - (a[i] - p[i]) / p[i] * m[1.0][i]
        t0 = (1 - a[i]) * y[i] / (1 - p[i]) + (a[i] - p[i]) / (1 - p[i]) * m[0.0][i]
        total += t1 - t0
    oracle = total / 8
    return (
        abs(est.point - oracle) <= 1e-10,
        f"|aipw - term-by-term oracle| = {abs(est.point - oracle):.2e} <= 1e-10",
    )


def _dr_misspecification_check():
    base = make_scenario("unmeasured", 20_000, 1.1111)
    full_spec = ScenarioSpec(
        "unmeasured",
        base.beta,
        base.alpha,
        base.beta_trt,
        base.n_subjects,
        (True,) * 6,
    )
    reps = 200
    points = {k: [] for k in ("ps_ok_dr", "ps_ok_aipw", "q_ok_dr", "q_ok_aipw")}
    truths = []
    for i in range(reps):
        full, truth = generate(full_spec, derive_substream(66, "drprop", i, "data"))
        truths.append(truth.marginal_rd)
        masked = Dataset(
            full.covariates[:, :5],
            full.treatment,
            full.outcome,
        )
        ps_good = estimate_ps(full)
        ps_bad = estimate_ps(masked)
        for key, est in (
            ("ps_ok_dr", estimate_effect(masked, "gcomp_simple_dr", ESTIMAND_RD, ps_good)),
            ("ps_ok_aipw", estimate_effect(masked, "aipw", ESTIMAND_RD, ps_good)),
            ("q_ok_dr", estimate_effect(full, "gcomp_simple_dr", ESTIMAND_RD, ps_bad)),
            ("q_ok_aipw", estimate_effect(full, "aipw", ESTIMAND_RD, ps_bad)),
        ):
            if not est.failed:
                points[key].append(est.point)
    true_rd = float(np.mean(truths))
    worst_label, worst = None, 0.0
    for key, pts in points.items():
        bias = abs(float(np.mean(pts)) - true_rd)
        if bias > worst:
            worst_label, worst = key, bias
    return worst <= 0.01, f"max |mean bias| = {worst:.5f} ({worst_label}) <= 0.01"


def _bootstrap_determinism_check():
    spec = make_scenario("covid", 50, 0.0)
    r1, _ = run_study(spec, ("gcomp",), "rd", 4, 16, 67, 0.0, workers=1)
    r2, _ = run_study(spec, ("gcomp",), "rd", 4, 16, 67, 0.0, workers=4)
    same = all(a["gcomp"] == b["gcomp"] for a, b in zip(r1, r2))
    return same, "bootstrap intervals bit-identical for 1 vs 4 workers"


def _summarize_oracle_check():
    rng = np.random.default_rng(68)
    results = []
    for i in range(50):
        if rng.random() < 0.15:
            est = EffectEstimate(
                ESTIMAND_RD, "m", None, failed=True, failure_reason="NoPairs"
            )
        else:
            pt = float(rng.normal(0.1, 0.2))
            se = float(rng.uniform(0.02, 0.3))
            est = EffectEstimate(ESTIMAND_RD, "m", pt, se, (pt - se, pt + se))
        results.append({"m": est})
    got = summarize(results, 0.1)["m"]
    ests = [r["m"] for r in results]
    want = summarize_oracle(
        [e.point for e in ests],
        [e.ci[0] if e.ci else None for e in ests],
        [e.ci[1] if e.ci else None for e in ests],
        [e.failed for e in ests],
        0.1,
    )
    deltas = [
        abs(got.mean_bias - want["mean_bias"]),
        abs(got.rmse - want["rmse"]),
        abs(got.mae - want["mae"]),
        abs(got.coverage - want["coverage"]),
        abs(got.median_ci_length - want["median_ci_length"]),
        abs(got.n_failures - want["n_failures"]),
    ]
    return max(deltas) <= 1e-12, f"max metric delta = {max(deltas):.2e} <= 1e-12"


def _weight_sums_check():
    spec = make_scenario("covid", 10_000, 0.0)
    data, _ = generate(spec, derive_substream(69, "covid", 0, "data"))
    ps = estimate_ps(data)
    w = iptw_weights(ps, data.treatment)
    t = data.treatment == 1
    ok = (
        abs(w[t].sum() - data.n_subjects) <= 0.05 * data.n_subjects
        and abs(w[~t].sum() - data.n_subjects) <= 0.05 * data.n_subjects
    )
    return ok, (
        f"treated weight total {w[t].sum():.0f}, control {w[~t].sum():.0f}, "
        f"each within 5% of n={data.n_subjects}"
    )


def _iptw_balance_check():
    spec = make_scenario("covid", 100_000, 0.0)
    data, _ = generate(spec, derive_substream(70, "covid", 0, "data"))
    ps = estimate_ps(data)
    w = iptw_weights(ps, data.treatment)
    t = data.treatment == 1
    worst = 0.0
    for j in range(data.n_covariates):
        col = data.covariates[:, j]
        weighted = (w[t] * col[t]).sum() / w[t].sum()
        overall = col.mean()
        sd = col.std()
        worst = max(worst, abs(weighted - overall) / sd)
    return worst <= 0.02, f"max standardized imbalance = {worst:.4f} <= 0.02"


def test_criterion_6_property_suite():
    checks = [
        ("logistic score identity", *_score_identity_check()),
        ("HC3 dominates HC0", *_hc3_dominance_check()),
        ("matching equals brute-force oracle", *_matching_oracle_check()),
        ("g-computation collapses to crude RD", *_gcomp_collapse_check()),
        ("AIPW equals term-by-term oracle", *_aipw_oracle_check()),
        ("IPTW weight totals (Horvitz-Thompson)", *_weight_sums_check()),
        ("IPTW weighted covariate balance", *_iptw_balance_check()),
        ("DR bias under single-model misspecification", *_dr_misspecification_check()),
        ("bootstrap determinism across workers", *_bootstrap_determinism_check()),
        ("summarize equals spreadsheet oracle", *_summarize_oracle_check()),
    ]
    run_checks(checks)


def test_criterion_7_known_non_reproductions_documented():
    # matched-analysis interval lengths/failure counts and the match-GEE
    # column are intentionally not reproduced; this records the fact.
    print(
        "  [INFO] not reproduced by design: matched-method CI lengths and "
        "matched failure counts; figure-only coverage values; match-GEE."
    )
    assert True
