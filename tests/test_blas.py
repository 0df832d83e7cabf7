"""One BLAS thread per process: in the command line and in every pool worker;
and truths that do not depend on the thread count."""

import concurrent.futures
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import pytest
from scipy.special import expit

from smallcausal import simulation
from smallcausal.blas import cap_blas_threads, loaded_openblas
from smallcausal.cli import main
from smallcausal.estimators import ESTIMANDS
from smallcausal.simulation import SCENARIO_IDS, make_scenario, run_study, true_marginal_effect

# numpy's OpenBLAS is the 64-bit-integer build
NUMPY_OPENBLAS = "libscipy_openblas64_"


def numpy_openblas():
    for path, set_threads, get_threads in loaded_openblas():
        if os.path.basename(path).startswith(NUMPY_OPENBLAS):
            return set_threads, get_threads
    pytest.skip("numpy's OpenBLAS is not a known build here")


def numpy_openblas_threads():
    return numpy_openblas()[1]()


def numpy_entry(report):
    (entry,) = [e for e in report if e["library"].startswith(NUMPY_OPENBLAS)]
    return entry


@pytest.fixture
def two_numpy_threads():
    """numpy's OpenBLAS at two threads for the test, restored afterwards."""
    set_threads, get_threads = numpy_openblas()
    original = get_threads()
    set_threads(2)
    yield
    set_threads(original)


def test_cli_main_leaves_one_thread(tmp_path, two_numpy_threads):
    assert numpy_openblas_threads() == 2
    rc = main([
        "simulate", "--scenario", "covid", "--n", "40", "--replicates", "1",
        "--bootstrap", "0", "--beta-trt", "0", "--methods", "crude",
        "--workers", "1", "--out", str(tmp_path / "s"),
    ])
    assert rc == 0
    assert numpy_openblas_threads() == 1
    blas = json.loads((tmp_path / "s_meta.json").read_text())["blas"]
    entry = numpy_entry(blas)
    assert (entry["threads_before"], entry["threads_after"]) == (2, 1)


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_run_study_workers_run_one_thread(method, two_numpy_threads, monkeypatch):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    context = multiprocessing.get_context(method)
    probes = []

    class ProbedPool(ProcessPoolExecutor):
        """run_study's pool under ``method``; its first task reads the count."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, mp_context=context, **kwargs)
            probes.append(self.submit(cap_blas_threads))

    # run_study imports the pool class when it builds the pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ProbedPool)
    spec = make_scenario("covid", 40, 0.0)
    run_study(spec, ("crude",), "rd", 2, 0, 1, 0.0, workers=2)
    (probe,) = probes
    assert numpy_entry(probe.result(timeout=120))["threads_before"] == 1
    # a forked worker inherited 2; the parent keeps its own count
    assert numpy_openblas_threads() == 2


def test_worker_count_leaves_outputs_byte_identical(tmp_path):
    outputs = {}
    for workers in ("1", "2"):
        prefix = str(tmp_path / f"w{workers}")
        rc = main([
            "simulate", "--scenario", "covid", "--n", "1000", "--replicates", "4",
            "--bootstrap", "0", "--beta-trt", "0", "--seed", "2007",
            "--workers", workers, "--out", prefix,
        ])
        assert rc == 0
        outputs[workers] = [
            open(prefix + suffix, "rb").read()
            for suffix in ("_replicates.csv", "_summary.csv")
        ]
    assert outputs["1"] == outputs["2"]


TRUTH_GRID = [
    (scenario, estimand, beta_trt)
    for scenario in SCENARIO_IDS
    for estimand in ESTIMANDS
    for beta_trt in (0.25, 0.5, 0.8671875, 1.0, 2.0)
]


def test_truths_do_not_depend_on_the_thread_count():
    # the exact means are numpy's pairwise sums, not OpenBLAS's ddot, which
    # splits a long sum across its threads; each truth also lies within
    # 1e-15 of the contrast of exactly rounded sums
    set_threads, get_threads = numpy_openblas()
    original = get_threads()
    truths = {}
    try:
        for threads in (1, 2):
            set_threads(threads)
            truths[threads] = [
                true_marginal_effect(make_scenario(scenario, 100, beta_trt), estimand)
                for scenario, estimand, beta_trt in TRUTH_GRID
            ]
    finally:
        set_threads(original)
    assert truths[1] == truths[2]
    for scenario in SCENARIO_IDS:
        eta, prob = simulation._outcome_law(make_scenario(scenario, 100, 0.0))
        m0 = math.fsum(prob * expit(eta))
        for (s, estimand, beta_trt), truth in zip(TRUTH_GRID, truths[1]):
            if s == scenario:
                m1 = math.fsum(prob * expit(eta + beta_trt))
                assert abs(truth - ESTIMANDS[estimand].contrast(m1, m0)) <= 1e-15
