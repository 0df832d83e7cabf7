import csv
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import smallcausal
from smallcausal import simulation
from smallcausal.cli import (
    RunConfig,
    build_parser,
    load_config,
    main,
    read_dataset_csv,
)
from smallcausal.data import Dataset
from smallcausal.errors import ReplicateError
from smallcausal.estimators import estimate_effects, ESTIMAND_RD


def run_cli(*argv):
    return main(list(argv))


def study_counts_csv(path):
    rows = [("y", "a")]
    rows += [(1, 1)] * 14 + [(0, 1)] * 6 + [(1, 0)] * 2 + [(0, 0)] * 14
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs about a second and 38 MB at start-up
    src = os.path.dirname(os.path.dirname(smallcausal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, smallcausal.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"


class TestCalibrate:
    def test_target_zero_is_immediate_and_deterministic(self, tmp_path, capsys):
        args = [
            "calibrate", "--scenario", "covid", "--target-effect", "0",
            "--out", str(tmp_path / "a"),
        ]
        assert run_cli(*args) == 0
        first = (tmp_path / "a_calibration.json").read_bytes()
        assert run_cli(*args) == 0
        assert (tmp_path / "a_calibration.json").read_bytes() == first
        report = json.loads(first)
        assert report["beta_trt"] == 0.0

    def test_small_oracle_calibration(self, tmp_path):
        rc = run_cli(
            "calibrate", "--scenario", "covid", "--target-effect", "0.16",
            "--out", str(tmp_path / "c"),
        )
        assert rc == 0
        report = json.loads((tmp_path / "c_calibration.json").read_text())
        assert report["beta_trt"] == 0.8671875
        assert report["achieved_effect"] == pytest.approx(0.16, abs=0.002)

    def test_unreachable_target_fails_cleanly(self, tmp_path, capsys):
        rc = run_cli(
            "calibrate", "--scenario", "covid", "--target-effect", "0.95",
            "--out", str(tmp_path / "x"),
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestSimulate:
    def test_csv_schema_and_determinism(self, tmp_path):
        common = [
            "simulate", "--scenario", "covid", "--n", "40",
            "--replicates", "6", "--bootstrap", "0", "--beta-trt", "0",
            "--methods", "crude,cov_adjusted", "--seed", "7",
        ]
        rc = run_cli(*common, "--workers", "1", "--out", str(tmp_path / "w1"))
        assert rc == 0
        rc = run_cli(*common, "--workers", "4", "--out", str(tmp_path / "w4"))
        assert rc == 0
        rep1 = (tmp_path / "w1_replicates.csv").read_bytes()
        rep4 = (tmp_path / "w4_replicates.csv").read_bytes()
        assert rep1 == rep4
        sum1 = (tmp_path / "w1_summary.csv").read_bytes()
        sum4 = (tmp_path / "w4_summary.csv").read_bytes()
        assert sum1 == sum4
        with open(tmp_path / "w1_replicates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6 * 2  # replicates x methods
        assert rows[0]["estimand"] == "rd"

    @pytest.mark.parametrize("estimand", ["rd", "or"])
    def test_summary_recomputable_from_replicates(self, tmp_path, estimand):
        rc = run_cli(
            "simulate", "--scenario", "covid", "--n", "60", "--estimand", estimand,
            "--replicates", "8", "--bootstrap", "30", "--beta-trt", "0.5",
            "--methods", "crude,iptw,gcomp", "--seed", "3",
            "--workers", "1", "--out", str(tmp_path / "s"),
        )
        assert rc == 0
        meta = json.loads((tmp_path / "s_meta.json").read_text())
        true_effect = meta["true_effect"]
        rc = run_cli(
            "summarize",
            "--replicates-csv", str(tmp_path / "s_replicates.csv"),
            "--true-effect", str(true_effect),
            "--out", str(tmp_path / "re"),
        )
        assert rc == 0
        with open(tmp_path / "s_summary.csv", newline="") as fh:
            original = list(csv.reader(fh))
        with open(tmp_path / "re_summary.csv", newline="") as fh:
            recomputed = list(csv.reader(fh))
        assert original[0] == recomputed[0]
        assert all(row[4] != "" for row in original[1:])  # every method has CIs
        for row_a, row_b in zip(original[1:], recomputed[1:]):
            assert row_a[0] == row_b[0]
            for cell_a, cell_b in zip(row_a[1:], row_b[1:]):
                if cell_a == "" or cell_b == "":
                    assert cell_a == cell_b
                else:
                    assert float(cell_a) == pytest.approx(float(cell_b), abs=1e-12)

    @pytest.mark.parametrize("order", [("rd", "or"), ("or", "rd")])
    def test_summarize_refuses_mixed_estimands(self, tmp_path, capsys, order):
        # each OR row would overwrite the RD row of its replicate and method
        lines = []
        for estimand in order:
            rc = run_cli(
                "simulate", "--scenario", "covid", "--n", "40", "--estimand", estimand,
                "--replicates", "3", "--bootstrap", "0", "--beta-trt", "0.5",
                "--methods", "crude,iptw", "--workers", "1",
                "--out", str(tmp_path / estimand),
            )
            assert rc == 0
            text = (tmp_path / f"{estimand}_replicates.csv").read_text()
            lines += text.splitlines(keepends=True)[0 if not lines else 1:]
        mixed = tmp_path / "mixed.csv"
        mixed.write_text("".join(lines))
        rc = run_cli(
            "summarize", "--replicates-csv", str(mixed), "--true-effect", "0.1",
            "--out", str(tmp_path / "m"),
        )
        assert rc == 2
        assert "mixes estimands" in capsys.readouterr().err
        assert not (tmp_path / "m_summary.csv").exists()

    def test_calibration_ignores_the_treatment_intercept(self, tmp_path):
        # the truth and the calibrated coefficient depend only on the outcome model
        metas = []
        for name, extra in (("plain", []), ("b0", ["--beta0", "-1.5"])):
            rc = run_cli(
                "simulate", "--scenario", "austin", "--n", "40", "--replicates", "1",
                "--bootstrap", "0", "--methods", "crude", "--workers", "1",
                "--target-effect", "0.16", *extra, "--out", str(tmp_path / name),
            )
            assert rc == 0
            metas.append(json.loads((tmp_path / f"{name}_meta.json").read_text()))
        assert metas[0]["beta_trt"] == metas[1]["beta_trt"] == 1.03125
        assert metas[0]["true_effect"] == metas[1]["true_effect"]

    def test_requires_exactly_one_effect_spec(self, tmp_path, capsys):
        rc = run_cli(
            "simulate", "--scenario", "covid", "--n", "20",
            "--replicates", "2", "--out", str(tmp_path / "e"),
        )
        assert rc == 2

    def test_odds_ratio_estimand_end_to_end(self, tmp_path):
        rc = run_cli(
            "simulate", "--scenario", "covid", "--n", "80",
            "--replicates", "5", "--bootstrap", "0", "--beta-trt", "0.8678",
            "--estimand", "or", "--methods", "crude,match_conditional,gcomp",
            "--seed", "9", "--workers", "1", "--out", str(tmp_path / "or"),
        )
        assert rc == 0
        with open(tmp_path / "or_replicates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 15
        assert {r["estimand"] for r in rows} == {"or"}
        meta = json.loads((tmp_path / "or_meta.json").read_text())
        # the recorded truth is the log of the marginal odds ratio (~log 2)
        assert meta["true_effect"] == pytest.approx(np.log(2.0), abs=0.02)

    def test_duplicate_methods_refused(self, tmp_path, capsys):
        rc = run_cli(
            "simulate", "--scenario", "covid", "--n", "40",
            "--replicates", "2", "--bootstrap", "0", "--beta-trt", "0",
            "--methods", "crude,crude,iptw", "--workers", "1",
            "--out", str(tmp_path / "d"),
        )
        assert rc == 2
        assert "crude" in capsys.readouterr().err
        assert not (tmp_path / "d_replicates.csv").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--workers", "foo"),
            ("--workers", "-3"),
            ("--workers", "0"),
            ("--bootstrap", "1"),
            ("--bootstrap", "-5"),
            ("--replicates", "0"),
            ("--n", "-1"),
            ("--n", "0"),
            ("--n", "1"),
        ],
    )
    def test_bad_run_sizes_refused(self, tmp_path, capsys, flag, value):
        sizes = {"--n": "40", "--replicates": "2", "--bootstrap": "0", "--workers": "1"}
        sizes[flag] = value
        rc = run_cli(
            "simulate", "--scenario", "covid", "--beta-trt", "0",
            "--methods", "crude", *(item for pair in sizes.items() for item in pair),
            "--out", str(tmp_path / "b"),
        )
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "b_replicates.csv").exists()

    def test_no_bootstrap_and_auto_workers_stay_valid(self):
        args = build_parser().parse_args(
            ["simulate", "--bootstrap", "0", "--workers", "auto"]
        )
        cfg = load_config(args)
        assert cfg.bootstrap_b == 0 and cfg.workers == "auto"

    def test_auto_workers_follow_cpu_affinity(self, monkeypatch):
        cfg = RunConfig("simulate", workers="auto")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert cfg.resolved_workers() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cfg.resolved_workers() == 8
        assert RunConfig("simulate", workers="3").resolved_workers() == 3

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = {
            "scenario": "covid",
            "n": 30,
            "n_replicates": 4,
            "bootstrap_b": 0,
            "beta_trt": 0.0,
            "methods": ["crude"],
            "master_seed": 5,
            "workers": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = run_cli(
            "simulate", "--config", str(cfg_path),
            "--replicates", "3", "--out", str(tmp_path / "c"),
        )
        assert rc == 0
        with open(tmp_path / "c_replicates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3  # flag overrides the file's 4

    def test_setup_seconds_in_meta(self, tmp_path):
        common = [
            "simulate", "--scenario", "austin", "--n", "40", "--replicates", "2",
            "--bootstrap", "0", "--methods", "crude", "--workers", "1",
        ]
        assert run_cli(*common, "--target-effect", "0.1", "--out", str(tmp_path / "t")) == 0
        setup = json.loads((tmp_path / "t_meta.json").read_text())["setup_seconds"]
        assert set(setup) == {"calibration", "truth_oracle"}
        assert all(isinstance(v, float) and v >= 0.0 for v in setup.values())
        assert run_cli(*common, "--beta-trt", "0.5", "--out", str(tmp_path / "b")) == 0
        setup = json.loads((tmp_path / "b_meta.json").read_text())["setup_seconds"]
        assert setup["calibration"] is None and setup["truth_oracle"] >= 0.0

    def test_failure_counts_in_meta(self, tmp_path):
        rc = run_cli(
            "simulate", "--scenario", "austin", "--beta0", "-1.5", "--n", "40",
            "--estimand", "or", "--replicates", "6", "--bootstrap", "0",
            "--beta-trt", "1.0", "--workers", "1", "--out", str(tmp_path / "f"),
        )
        assert rc == 0
        failures = json.loads((tmp_path / "f_meta.json").read_text())["failures"]
        with open(tmp_path / "f_replicates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = {row["method"]: {} for row in rows}
        for row in rows:
            if row["failed"] == "true":
                tags = expected[row["method"]]
                tags[row["failure_reason"]] = tags.get(row["failure_reason"], 0) + 1
        assert failures == expected
        assert sum(sum(tags.values()) for tags in failures.values()) > 0

    def test_unexpected_replicate_error_names_the_replicate(self, tmp_path, monkeypatch):
        generate = simulation.generate
        calls = []

        def failing_generate(spec, rng):
            calls.append(None)
            if len(calls) == 3:
                raise ValueError("boom")
            return generate(spec, rng)

        monkeypatch.setattr(simulation, "generate", failing_generate)
        with pytest.raises(ReplicateError) as excinfo:
            run_cli(
                "simulate", "--scenario", "covid", "--n", "40", "--replicates", "4",
                "--bootstrap", "0", "--beta-trt", "0.5", "--methods", "crude",
                "--seed", "11", "--workers", "1", "--out", str(tmp_path / "x"),
            )
        message = "replicate 2 of scenario 'covid' at master seed 11 raised ValueError: boom"
        assert str(excinfo.value) == message
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert str(pickle.loads(pickle.dumps(excinfo.value))) == message


class TestAnalyze:
    def test_study_counts_crude(self, tmp_path, capsys):
        data_path = study_counts_csv(tmp_path / "d.csv")
        rc = run_cli(
            "analyze", "--data", str(data_path), "--methods", "crude",
            "--bootstrap", "0", "--out", str(tmp_path / "a"),
        )
        assert rc == 0
        report = json.loads((tmp_path / "a_estimates.json").read_text())
        assert report["estimates"]["crude"]["point"] == pytest.approx(0.575)

    def test_ps_methods_without_covariates_refused(self, tmp_path, capsys):
        data_path = study_counts_csv(tmp_path / "d.csv")
        rc = run_cli(
            "analyze", "--data", str(data_path), "--methods", "crude,iptw",
            "--out", str(tmp_path / "b"),
        )
        assert rc == 2
        assert "covariate" in capsys.readouterr().err

    def test_round_trip_equals_library(self, tmp_path):
        rng = np.random.default_rng(10)
        n = 36
        x1 = rng.normal(size=n).round(3)
        x2 = rng.integers(0, 3, n)
        a = (rng.random(n) < 0.5).astype(int)
        y = (rng.random(n) < 0.4 + 0.2 * a).astype(int)
        path = tmp_path / "d.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["y", "a", "x1", "x2"])
            for i in range(n):
                w.writerow([y[i], a[i], x1[i], x2[i]])
        rc = run_cli(
            "analyze", "--data", str(path), "--categorical", "x2",
            "--methods", "crude,cov_adjusted,ps_covariate,iptw",
            "--bootstrap", "0", "--seed", "2", "--out", str(tmp_path / "r"),
        )
        assert rc == 0
        report = json.loads((tmp_path / "r_estimates.json").read_text())

        data = read_dataset_csv(str(path), ("x2",))
        direct = estimate_effects(
            data, ("crude", "cov_adjusted", "ps_covariate", "iptw"), ESTIMAND_RD
        )
        for m, est in direct.items():
            assert report["estimates"][m]["point"] == pytest.approx(
                est.point, abs=1e-12
            )

    def test_dummy_expansion_and_kinds(self, tmp_path):
        path = tmp_path / "d.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["y", "a", "grp", "age"])
            rows = [(0, 0, 0, 31.5), (1, 1, 1, 44.0), (1, 0, 2, 52.0), (0, 1, 1, 40.0)]
            w.writerows(rows * 3)
        data = read_dataset_csv(str(path), ("grp",))
        assert data.covariate_kinds == (
            "categorical-dummy",
            "categorical-dummy",
            "continuous",
        )
        assert data.covariates.shape == (12, 3)

    def test_bad_inputs_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,a\n2,0\n1,1\n")
        assert run_cli("analyze", "--data", str(path), "--out", str(tmp_path / "o")) == 2
        path.write_text("y\n1\n")
        assert run_cli("analyze", "--data", str(path), "--out", str(tmp_path / "o")) == 2
        path.write_text("y,a\n1,zero\n")
        assert run_cli("analyze", "--data", str(path), "--out", str(tmp_path / "o")) == 2
