"""One bootstrap pass per dataset, shared by every g-computation method.

A method's interval depends on the data and the random stream alone: not on
which other methods were requested, in what order, or whether one of them
failed before the pass.
"""

import numpy as np
import pytest

from smallcausal import bootstrap as bootstrap_module
from smallcausal import estimators
from smallcausal.errors import SeparationError
from smallcausal.estimators import (
    ESTIMAND_LOG_OR,
    ESTIMAND_RD,
    METHODS,
    _gcomp_batch_means,
    estimate_effect,
    estimate_effects,
)
from smallcausal.propensity import estimate_ps
from smallcausal.simulation import generate, make_scenario

CASES = [
    ("covid", None, ESTIMAND_RD),
    ("covid", None, ESTIMAND_LOG_OR),
    ("austin", -1.5, ESTIMAND_LOG_OR),
]
REPLICATIONS = 30


def scenario_data(scenario, beta0, seed=3, n=100):
    spec = make_scenario(scenario, n, 0.5, beta0)
    return generate(spec, np.random.default_rng(seed))[0]


def gcomp_ids(estimand):
    return tuple(m for m, row in METHODS[estimand].items() if row.q_spec)


def cis(data, methods, estimand, seed=11, bootstrap=REPLICATIONS):
    out = estimate_effects(data, methods, estimand, bootstrap, np.random.default_rng(seed))
    return {m: out[m] for m in gcomp_ids(estimand) if m in out}


@pytest.mark.parametrize("scenario, beta0, estimand", CASES)
def test_interval_does_not_depend_on_the_method_subset_or_order(
    scenario, beta0, estimand
):
    data = scenario_data(scenario, beta0)
    registry_order = tuple(METHODS[estimand])
    together = cis(data, registry_order, estimand)
    reversed_order = cis(data, registry_order[::-1], estimand)
    for method in gcomp_ids(estimand):
        alone = cis(data, (method,), estimand)[method]
        assert alone.ci is not None
        assert together[method].ci == alone.ci
        assert reversed_order[method].ci == alone.ci


@pytest.mark.parametrize("estimand", [ESTIMAND_RD, ESTIMAND_LOG_OR])
def test_propensity_failure_leaves_the_plain_interval_alone(monkeypatch, estimand):
    data = scenario_data("covid", None)
    alone = cis(data, ("gcomp",), estimand)["gcomp"]

    def failing_ps(data):
        raise SeparationError("forced")

    monkeypatch.setattr(estimators, "estimate_ps", failing_ps)
    methods = tuple(METHODS[estimand])
    for order in (methods, methods[::-1]):
        out = cis(data, order, estimand)
        assert out["gcomp"] == alone
        assert out["gcomp_simple_dr"].failure_reason == "Separation"
        assert out["gcomp_dr_quintiles"].failure_reason == "Separation"


@pytest.mark.parametrize("scenario, beta0, estimand", CASES)
def test_standalone_interval_equals_the_shared_one(scenario, beta0, estimand):
    data = scenario_data(scenario, beta0)
    ps = estimate_ps(data)
    shared = cis(data, tuple(METHODS[estimand]), estimand)
    for method in gcomp_ids(estimand):
        rng = np.random.default_rng(11)
        alone = estimate_effect(data, method, estimand, ps, None, REPLICATIONS, rng)
        assert alone == shared[method]


@pytest.mark.parametrize("scenario, beta0", [("covid", None), ("austin", -1.5)])
def test_shared_pass_gives_each_spec_its_one_spec_values(scenario, beta0):
    data = scenario_data(scenario, beta0, seed=1)
    indices = np.random.default_rng(5).integers(0, data.n_subjects, size=(40, 100))
    q_specs = ("dr_quintiles", "plain", "simple_dr")
    shared = _gcomp_batch_means(data, q_specs, indices)
    for q_spec, means in zip(q_specs, shared):
        (alone,) = _gcomp_batch_means(data, (q_spec,), indices)
        np.testing.assert_array_equal(means[0], alone[0])
        np.testing.assert_array_equal(means[1], alone[1])


def test_a_collapse_fails_only_its_own_method(monkeypatch):
    # no resample may drop: plain keeps all of them here, simple_dr does not
    data = scenario_data("austin", -1.5, seed=1)
    monkeypatch.setattr(bootstrap_module, "MAX_FAILURE_FRACTION", 0.0)
    out = cis(data, gcomp_ids(ESTIMAND_LOG_OR), ESTIMAND_LOG_OR, bootstrap=40)
    assert out["gcomp_simple_dr"].failure_reason == "BootstrapCollapse"
    assert not out["gcomp"].failed and out["gcomp"].ci is not None


def test_no_draw_without_bootstrap():
    data = scenario_data("covid", None)
    rng = np.random.default_rng(2)
    state = rng.bit_generator.state
    out = estimate_effects(data, tuple(METHODS[ESTIMAND_RD]), ESTIMAND_RD, 0, rng)
    assert all(est.ci is None for est in out.values() if est.method.startswith("gcomp"))
    assert rng.bit_generator.state == state
