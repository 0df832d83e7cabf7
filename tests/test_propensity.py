import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import expit

from helpers import greedy_match_oracle, irls_oracle, mask_match_oracle
from smallcausal.data import Dataset
from smallcausal.errors import NoPairsError, SeparationError
from smallcausal.propensity import (
    PropensityScores,
    estimate_ps,
    iptw_weights,
    match_caliper,
    quintile_strata,
)
from smallcausal.simulation import generate, make_scenario
from smallcausal.streams import derive_substream


def make_dataset(rng, n, k=3, confounded=True):
    x = rng.normal(size=(n, k))
    eta = 0.6 * x[:, 0] - 0.4 * x[:, 1] if confounded else np.zeros(n)
    a = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    y = (rng.random(n) < 0.5).astype(float)
    return Dataset(x, a, y)


def scores_from_logits(logits, treatment=None):
    """Wrap raw logits for tests that exercise matching/weighting directly."""
    logits = np.asarray(logits, float)
    return PropensityScores(1.0 / (1.0 + np.exp(-logits)), logits)


class TestEstimatePs:
    def test_null_model_probabilities_concentrate(self):
        rng = np.random.default_rng(0)
        devs = []
        for n in (2000, 50_000):
            x = rng.normal(size=(n, 2))
            a = (rng.random(n) < 0.5).astype(float)
            data = Dataset(x, a, np.zeros(n))
            ps = estimate_ps(data)
            devs.append(np.abs(ps.probabilities - a.mean()).max())
        assert devs[1] < devs[0]
        assert devs[1] < 0.02

    def test_mean_probability_equals_treated_fraction(self):
        data = make_dataset(np.random.default_rng(1), 300)
        ps = estimate_ps(data)
        assert ps.probabilities.mean() == pytest.approx(
            data.treatment.mean(), abs=1e-6
        )

    def test_logits_match_probabilities(self):
        data = make_dataset(np.random.default_rng(2), 200)
        ps = estimate_ps(data)
        assert np.allclose(
            ps.logits, np.log(ps.probabilities / (1 - ps.probabilities)), atol=1e-10
        )

    def test_matches_independent_irls_oracle(self):
        rng = np.random.default_rng(3)
        x = np.array(
            [0.5, -1.2, 0.3, 2.0, -0.7, 1.1, -0.2, 0.9, -1.5, 0.4, 1.8, -0.9]
        )
        a = np.array([1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0], dtype=float)
        data = Dataset(x[:, None], a, rng.integers(0, 2, 12).astype(float))
        ps = estimate_ps(data)
        X = np.column_stack([np.ones(12), x])
        beta = irls_oracle(X, a)
        oracle_p = 1.0 / (1.0 + np.exp(-(X @ beta)))
        assert np.abs(ps.probabilities - oracle_p).max() < 1e-8

    def test_single_arm_rejected(self):
        n = 10
        data = Dataset(np.zeros((n, 1)), np.ones(n), np.zeros(n))
        with pytest.raises(ValueError):
            estimate_ps(data)


class TestMatchCaliper:
    def test_nearest_within_caliper(self):
        # caliper_sd_multiplier chosen so the width is large enough for the
        # 0.05 neighbour but not the 2.0 one
        logits = np.array([0.0, 0.05, 2.0])
        treatment = np.array([1.0, 0.0, 0.0])
        ps = scores_from_logits(logits)
        sd = np.std(logits, ddof=1)
        m = match_caliper(ps, treatment, caliper_sd_multiplier=0.5 / sd)
        assert m.pairs == ((0, 1),)
        # the width is the multiplier times the SD: 0.04 excludes the neighbour
        with pytest.raises(NoPairsError):
            match_caliper(ps, treatment, caliper_sd_multiplier=0.04 / sd)

    def test_caliper_exclusion_raises(self):
        logits = np.array([0.0, 2.0])
        treatment = np.array([1.0, 0.0])
        ps = scores_from_logits(logits)
        sd = np.std(logits, ddof=1)
        with pytest.raises(NoPairsError):
            match_caliper(ps, treatment, caliper_sd_multiplier=0.5 / sd)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n_t, n_c = 20, 16
            logits = rng.normal(size=n_t + n_c)
            treatment = np.concatenate([np.ones(n_t), np.zeros(n_c)])
            perm = rng.permutation(n_t + n_c)
            logits, treatment = logits[perm], treatment[perm]
            ps = scores_from_logits(logits)
            caliper = 0.2 * np.std(logits, ddof=1)
            expected = greedy_match_oracle(
                logits, ps.probabilities, treatment, caliper
            )
            got = match_caliper(ps, treatment)
            assert list(got.pairs) == expected

    def test_no_caliper_matches_everyone(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=30)
        treatment = (rng.random(30) < 0.4).astype(float)
        ps = scores_from_logits(logits)
        m = match_caliper(ps, treatment, caliper_sd_multiplier=np.inf)
        assert m.n_pairs == min(int(treatment.sum()), int((1 - treatment).sum()))

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=40)
        treatment = (rng.random(40) < 0.5).astype(float)
        ps = scores_from_logits(logits)
        assert match_caliper(ps, treatment).pairs == match_caliper(ps, treatment).pairs

    def test_matches_the_mask_loop_on_scenario_data(self):
        # austin at beta0 -1.5 is about 80% treated, so its controls run out;
        # rounded logits tie in both the treated order and the distances; the
        # 0.01 SD caliper skips treated subjects
        skipped = ties = 0
        for scenario, beta0 in (("covid", None), ("austin", -1.5), ("unmeasured", None)):
            for n, seed in ((100, 0), (100, 1), (1000, 2)):
                spec = make_scenario(scenario, n, 0.5, beta0)
                data = generate(spec, np.random.default_rng(seed))[0]
                fitted = estimate_ps(data).logits
                for logits in (fitted, np.round(fitted, 1)):
                    ps = PropensityScores(expit(logits), logits)
                    ties += np.unique(logits).size < n
                    sd = np.std(logits, ddof=1)
                    for multiplier in (0.2, 0.01, np.inf):
                        expected = mask_match_oracle(
                            logits, ps.probabilities, data.treatment, multiplier * sd
                        )
                        if not expected:
                            with pytest.raises(NoPairsError):
                                match_caliper(ps, data.treatment, multiplier)
                            continue
                        got = match_caliper(ps, data.treatment, multiplier)
                        assert list(got.pairs) == expected
                        full = min(data.n_treated, data.n_controls)
                        skipped += len(expected) < full
        assert skipped > 0 and ties > 0

    @pytest.mark.parametrize(
        "replicate, treated, won, lost, n_pairs, digest",
        [
            (13, 315, 30, 182, 352,
             "50c0c17290dccda9addf003901765b7168f27713041fb952c04ec8b03c5ac548"),
            (31, 417, 691, 496, 392,
             "9ed837fcec28ca7381427204766b5a4dc9ee4a7d8d63e5d07fde4680a504d14d"),
        ],
    )
    def test_pairs_pinned_where_rounding_decides_a_tie(
        self, replicate, treated, won, lost, n_pairs, digest
    ):
        # simulate --scenario covid --n 1000 --beta-trt 0 --seed 2007: the
        # treated subject sits midway between two controls in exact
        # arithmetic.  At replicate 13 the computed distances are equal and
        # the lower index wins; at replicate 31 rounding puts the higher
        # index nearer.  The sha256 of the pairs' repr pins every pair.
        spec = make_scenario("covid", 1000, 0.0, None)
        rng = derive_substream(2007, "covid", replicate, "data")
        data = generate(spec, rng)[0]
        ps = estimate_ps(data)
        logits = ps.logits
        gap_won = abs(logits[won] - logits[treated])
        gap_lost = abs(logits[lost] - logits[treated])
        assert gap_won <= gap_lost <= gap_won + 1e-12
        matched = match_caliper(ps, data.treatment)
        assert dict(matched.pairs)[treated] == won
        assert matched.n_pairs == n_pairs
        assert hashlib.sha256(repr(matched.pairs).encode()).hexdigest() == digest
        caliper = 0.2 * float(np.std(logits, ddof=1))
        assert list(matched.pairs) == mask_match_oracle(
            logits, ps.probabilities, data.treatment, caliper
        )

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-8, 8), st.booleans()), min_size=2, max_size=40
        ),
        st.sampled_from([0.1, 0.3, 1.0]),
        st.sampled_from([0.01, 0.2, np.inf]),
    )
    def test_matches_the_mask_loop_on_a_coarse_grid(
        self, subjects, step, multiplier
    ):
        # logits on a grid of half steps: control values repeat, treated
        # subjects sit midway between controls, and on the 0.1 and 0.3 grids
        # the rounding of the products decides those ties
        half_steps, treated = zip(*subjects)
        assume(any(treated) and not all(treated))
        logits = np.array(half_steps) * (step / 2)
        treatment = np.array(treated, dtype=float)
        ps = PropensityScores(expit(logits), logits)
        caliper = multiplier * float(np.std(logits, ddof=1))
        expected = mask_match_oracle(logits, ps.probabilities, treatment, caliper)
        if not expected:
            with pytest.raises(NoPairsError):
                match_caliper(ps, treatment, multiplier)
        else:
            assert list(match_caliper(ps, treatment, multiplier).pairs) == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 1])  # a treated or a control logit
    def test_non_finite_logit_forms_no_pair(self, bad, where):
        # a non-finite logit makes the caliper (a multiple of the SD of all
        # logits) NaN, so the mask loop finds no pair and matching refuses
        logits = np.array([0.1, 0.5, -0.2, 0.3, 0.1, 0.45])
        treatment = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        logits[where] = bad
        ps = PropensityScores(expit(logits), logits)
        for multiplier in (0.01, 0.2, np.inf):
            with np.errstate(invalid="ignore"):  # the SD of an inf
                caliper = multiplier * float(np.std(logits, ddof=1))
                assert mask_match_oracle(
                    logits, ps.probabilities, treatment, caliper
                ) == []
                with pytest.raises(NoPairsError):
                    match_caliper(ps, treatment, multiplier)

    def test_distances_within_caliper_and_no_reuse(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=60)
        treatment = (rng.random(60) < 0.5).astype(float)
        ps = scores_from_logits(logits)
        m = match_caliper(ps, treatment)
        controls = [c for _, c in m.pairs]
        assert len(controls) == len(set(controls))
        for t, c in m.pairs:
            assert abs(logits[t] - logits[c]) <= 0.2 * np.std(logits, ddof=1)


class TestInverseProbabilityWeights:
    def test_balanced_scores_give_weight_two(self):
        ps = scores_from_logits(np.zeros(6))
        w = iptw_weights(ps, np.array([1, 0, 1, 0, 1, 0.0]))
        assert np.allclose(w, 2.0)

    def test_formula(self):
        logit = np.log(0.8 / 0.2)
        ps = scores_from_logits([logit, logit])
        w = iptw_weights(ps, np.array([1.0, 0.0]))
        assert w[0] == pytest.approx(1.25)
        assert w[1] == pytest.approx(5.0)

    def test_unused_branch_overflow_is_silent(self):
        # a treated subject at logit 800 and a control at -800: the branch
        # each would overflow in belongs to the other arm
        logits = np.array([800.0, -800.0, 0.0, 0.0])
        ps = PropensityScores(expit(logits), logits)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = iptw_weights(ps, np.array([1.0, 0.0, 1.0, 0.0]))
        assert w.tolist() == [1.0, 1.0, 2.0, 2.0]

    def test_used_branch_overflow_raises_separation(self):
        logits = np.array([-800.0, 0.0])
        ps = PropensityScores(expit(logits), logits)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeparationError):
                iptw_weights(ps, np.array([1.0, 0.0]))

    def test_all_weights_exceed_one(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(scale=3, size=200)
        ps = scores_from_logits(logits)
        w = iptw_weights(ps, (rng.random(200) < 0.5).astype(float))
        assert (w > 1.0).all()


class TestQuintileStrata:
    def test_even_split(self):
        logits = np.arange(1.0, 11.0)
        stratum, n_distinct = quintile_strata(logits, logits)
        assert [int((stratum == s).sum()) for s in range(5)] == [2, 2, 2, 2, 2]
        assert n_distinct == 10

    def test_degenerate_has_one_distinct_value(self):
        # gcomp_dr_quintiles fails such scores as DegenerateStrata
        logits = np.zeros(20)
        assert quintile_strata(logits, logits)[1] == 1

    def test_one_stratum_per_subject(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=57)
        stratum, _ = quintile_strata(logits, logits)
        assert stratum.shape == (57,)
        assert set(np.unique(stratum)) <= {0, 1, 2, 3, 4}

    def test_sizes_match_sort_oracle(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=100)
        stratum, _ = quintile_strata(logits, logits)
        sizes = [int((stratum == s).sum()) for s in range(5)]
        # sort-based oracle: strata are consecutive blocks of the sorted order
        order = np.argsort(logits)
        oracle_sizes = [0] * 5
        for rank, idx in enumerate(order):
            oracle_sizes[min(rank // 20, 4)] += 1
        for got, want in zip(sizes, oracle_sizes):
            assert abs(got - want) <= 1
