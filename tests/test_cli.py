import csv
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import expit

import smallcausal
from smallcausal import cli, simulation
from smallcausal.cli import (
    REPLICATE_COLUMNS,
    RunConfig,
    _estimate_row,
    _row_estimate,
    build_parser,
    fmt,
    load_config,
    main,
    read_dataset_csv,
)
from smallcausal.data import Dataset
from smallcausal.errors import ReplicateError
from smallcausal.estimators import EffectEstimate, estimate_effects, ESTIMAND_RD, ESTIMANDS


def run_cli(*argv):
    return main(list(argv))


def study_counts_csv(path):
    rows = [("y", "a")]
    rows += [(1, 1)] * 14 + [(0, 1)] * 6 + [(1, 0)] * 2 + [(0, 0)] * 14
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


# a 2-replicate covid cell with a bootstrap, whose output prefix is argv[1]
PROBE_RUN = (
    "smallcausal.cli.main(['simulate', '--scenario', 'covid', '--n', '100',"
    " '--beta-trt', '0.5', '--bootstrap', '5', '--replicates', '2',"
    " '--workers', '1', '--out', sys.argv[1]])\n"
)
# an unmeasured cell, whose truth integrates the hidden confounder
PROBE_UNMEASURED_RUN = (
    "smallcausal.cli.main(['simulate', '--scenario', 'unmeasured', '--n', '100',"
    " '--beta-trt', '0.5', '--bootstrap', '0', '--replicates', '2',"
    " '--workers', '1', '--out', sys.argv[1] + '_unmeasured'])\n"
)


def probe_last_line(probe, tmp_path):
    """The last line a fresh interpreter prints running ``probe``."""
    src = os.path.dirname(os.path.dirname(smallcausal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "probe")], env=env,
        capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout.strip().splitlines()[-1]


def test_import_leaves_scipy_stats_out(tmp_path):
    # scipy.stats costs about a second and 38 MB at start-up
    probe = "import sys, smallcausal.cli; print('scipy.stats' in sys.modules)"
    assert probe_last_line(probe, tmp_path) == "False"


def test_import_leaves_scipy_linalg_and_the_process_pool_out(tmp_path):
    # no scipy module at all, through the import and a run: the logistic, the
    # normal quantile and CDF and the triangular solves are numpy's or the C
    # library's, and only a run with --workers above 1 builds a process pool
    probe = (
        "import sys, smallcausal.cli\n"
        + PROBE_RUN
        + "print(sorted(m for m in sys.modules"
        " if m.startswith('scipy') or m == 'concurrent.futures.process'))"
    )
    assert probe_last_line(probe, tmp_path) == "[]"


def test_a_run_imports_nothing(tmp_path):
    # every numpy submodule a run uses is imported with the package, so no
    # replicate pays an import; argparse's first parser loads locale
    probe = (
        "import sys, smallcausal.cli\n"
        "smallcausal.cli.build_parser()\n"
        "before = set(sys.modules)\n"
        + PROBE_RUN
        + PROBE_UNMEASURED_RUN
        + "print(sorted(set(sys.modules) - before))"
    )
    assert probe_last_line(probe, tmp_path) == "[]"


def test_a_run_leaves_numpy_polynomial_out(tmp_path):
    # the unmeasured truth's Gauss-Hermite rule comes from an eigenproblem,
    # so no process loads numpy.polynomial
    probe = (
        "import sys, smallcausal.cli\n"
        + PROBE_UNMEASURED_RUN
        + "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    )
    assert probe_last_line(probe, tmp_path) == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", "--scenario", "covid", "--target-effect", "0.16"],
        ["simulate", "--scenario", "covid", "--n", "1000", "--bootstrap", "0",
         "--beta-trt", "0.5", "--replicates", "30", "--workers", "1"],
        ["analyze", "--data", "DATA"],
        ["summarize", "--replicates-csv", "REPLICATES", "--true-effect", "0.1"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_missing_out_directory_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch, argv
):
    def no_work(*args, **kwargs):
        raise AssertionError("the subcommand started its work")

    for name in ("calibrate_beta_trt", "run_study", "estimate_effects", "summarize"):
        monkeypatch.setattr(cli, name, no_work)
    inputs = {"DATA": study_counts_csv(tmp_path / "d.csv"), "REPLICATES": tmp_path / "r.csv"}
    inputs["REPLICATES"].write_text(
        ",".join(REPLICATE_COLUMNS) + "\n0,crude,rd,0.125,0.05,,,false,\n"
    )
    missing = tmp_path / "missing"
    argv = [str(inputs.get(arg, arg)) for arg in argv]
    assert run_cli(*argv, "--out", str(missing / "x")) == 2
    assert capsys.readouterr().err == f"error: --out directory {missing} does not exist\n"
    assert sorted(tmp_path.iterdir()) == [tmp_path / "d.csv", tmp_path / "r.csv"]


class TestCodec:
    # the four shapes simulate writes: a failure, a point alone, a point with
    # an SE and an interval, and a bootstrap interval without an SE
    @pytest.mark.parametrize(
        "est",
        [
            EffectEstimate("or", "crude", None, failed=True, failure_reason="Separation"),
            EffectEstimate("rd", "gcomp", 0.1 / 3),
            EffectEstimate("rd", "iptw", -2.0 / 3.0, 5e-324, (-1e300, 0.1 + 0.2)),
            EffectEstimate("or", "gcomp_dr_quintiles", 1.0 / 7.0, None, (-0.0, 2.5e-17)),
        ],
        ids=["failed", "point", "point_se_ci", "point_ci"],
    )
    def test_a_replicate_row_reads_back_as_its_estimate(self, est):
        row = dict(zip(REPLICATE_COLUMNS, _estimate_row(7, est)))
        assert row["replicate"] == "7"
        assert _row_estimate(row) == est

    @pytest.mark.parametrize("estimand", ["rd", "or"])
    def test_the_analyze_json_holds_the_csv_cells(self, tmp_path, estimand):
        rng = np.random.default_rng(12)
        n = 60
        x = rng.normal(50.0, 10.0, n).round(1)
        a = (rng.random(n) < 0.3 + 0.01 * (x - 50.0)).astype(int)
        y = (rng.random(n) < 0.2 + 0.3 * a).astype(int)
        path = tmp_path / "d.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([("y", "a", "x")] + list(zip(y, a, x)))
        rc = run_cli(
            "analyze", "--data", str(path), "--estimand", estimand, "--bootstrap", "20",
            "--seed", "4", "--out", str(tmp_path / "e"),
        )
        assert rc == 0
        report = json.loads((tmp_path / "e_estimates.json").read_text())["estimates"]
        with open(tmp_path / "e_estimates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sorted(row["method"] for row in rows) == list(report)  # sorted keys
        assert any(row["ci_lo"] for row in rows) and any(row["se"] for row in rows)
        for row in rows:
            values = report[row["method"]]
            assert sorted(values) == sorted(REPLICATE_COLUMNS[3:])
            for column in ("point", "se", "ci_lo", "ci_hi"):
                assert fmt(values[column]) == row[column]
            assert ("true" if values["failed"] else "false") == row["failed"]
            assert (values["failure_reason"] or "") == row["failure_reason"]


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

    def test_config_target_effect_of_the_wrong_type_refused(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"target_effect": "0.16"}))
        rc = run_cli("calibrate", "--config", str(cfg_path), "--out", str(tmp_path / "c"))
        assert rc == 2
        err = capsys.readouterr().err
        assert "config field 'target_effect' must be a number or null" in err
        assert not (tmp_path / "c_calibration.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["summarize", "--methods", "crude"],
        ["summarize", "--estimand", "or"],
        ["calibrate", "--bootstrap", "7"],
        ["calibrate", "--methods", "nonsense"],
        ["calibrate", "--n", "40"],
        ["analyze", "--workers", "2"],
    ],
)
def test_a_flag_the_subcommand_does_not_read_is_refused(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def test_readme_flag_table_matches_the_parser():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        lines = fh.read().split("| subcommand | flags |\n|---|---|\n", 1)[1]
    table = {}
    for line in lines.splitlines():
        if not line.startswith("|"):
            break
        command, flags = (cell.strip(" `") for cell in line.strip("|").split("|"))
        table[command] = flags.split()
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    parsed = {
        command: [o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")]
        for command, p in commands.items()
    }
    assert table == parsed


def test_readme_scenario_bullets_are_the_table():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        lines = fh.read().split("**Simulation scenarios** (`--scenario`):\n\n", 1)[1]
    bullets = []
    for line in lines.splitlines():
        if not line:
            break
        if line.startswith("* "):
            bullets.append(line.split("`")[1])
    assert tuple(bullets) == simulation.SCENARIO_IDS


def test_the_estimand_choices_are_the_table(tmp_path, capsys):
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    for command in ("calibrate", "simulate", "analyze"):
        (action,) = [a for a in commands[command]._actions if a.dest == "estimand"]
        assert action.choices == tuple(ESTIMANDS)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"estimand": "hr"}))
    args = ["--config", str(cfg_path), "--target-effect", "0.16", "--out", str(tmp_path / "c")]
    assert run_cli("calibrate", *args) == 2
    assert "error: estimand must be rd or or" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_the_or_truth_is_the_table_contrast_of_the_exact_means(tmp_path):
    assert run_cli(
        "simulate", "--scenario", "austin", "--beta0", "-1.5", "--estimand", "or",
        "--beta-trt", "1", "--n", "40", "--replicates", "1", "--bootstrap", "0",
        "--methods", "crude", "--workers", "1", "--out", str(tmp_path / "t"),
    ) == 0
    eta, prob = simulation._outcome_law(simulation.make_scenario("austin", 40, 1.0, -1.5))
    m1, m0 = float(np.sum(prob * expit(eta + 1.0))), float(np.sum(prob * expit(eta)))
    meta = json.loads((tmp_path / "t_meta.json").read_text())
    assert meta["true_effect"] == float(ESTIMANDS["or"].contrast(m1, m0))


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["calibrate", "--target-effect", "nan"], "--target-effect"),
        (["summarize", "--replicates-csv", "r.csv", "--true-effect=-inf"], "--true-effect"),
    ],
)
def test_a_non_finite_number_flag_is_refused(tmp_path, capsys, argv, flag):
    # argparse's float() reads nan and inf
    assert run_cli(*argv, "--out", str(tmp_path / "x")) == 2
    assert f"error: {flag} must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# simulate's fields at values simulate refuses; calibrate and summarize read none
SIMULATE_ONLY_FIELDS = {"n": 1, "workers": 0, "n_replicates": 0}
REPLICATES_CSV = (
    "replicate,method,estimand,point,se,ci_lo,ci_hi,failed,failure_reason\n"
    "0,crude,rd,0.125,0.05,,,false,\n"
    "1,crude,rd,,,,,true,Separation\n"
)


@pytest.mark.parametrize(
    "argv, output",
    [
        (["calibrate", "--target-effect", "0.16"], "_calibration.json"),
        (["summarize", "--replicates-csv", "r.csv", "--true-effect", "0"], "_summary.csv"),
    ],
    ids=["calibrate", "summarize"],
)
def test_a_config_file_field_the_subcommand_does_not_take_is_not_checked(
    tmp_path, monkeypatch, argv, output
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.csv").write_text(REPLICATES_CSV)
    (tmp_path / "shared.json").write_text(json.dumps(SIMULATE_ONLY_FIELDS))
    assert run_cli(*argv, "--out", "plain") == 0
    assert run_cli(*argv, "--config", "shared.json", "--out", "shared") == 0
    assert (tmp_path / f"shared{output}").read_bytes() == (tmp_path / f"plain{output}").read_bytes()


def test_a_config_file_field_the_subcommand_takes_is_checked(tmp_path, capsys):
    (tmp_path / "shared.json").write_text(json.dumps(SIMULATE_ONLY_FIELDS))
    rc = run_cli(
        "simulate", "--config", str(tmp_path / "shared.json"), "--beta-trt", "0",
        "--out", str(tmp_path / "s"),
    )
    assert rc == 2
    assert "error: --n must be at least 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "shared.json"]


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
        original = (tmp_path / "s_summary.csv").read_bytes()
        assert (tmp_path / "re_summary.csv").read_bytes() == original
        rows = list(csv.reader(original.decode().splitlines()))
        assert all(row[4] != "" for row in rows[1:])  # every method has CIs

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

    @staticmethod
    def crude_replicates(tmp_path, seed):
        """The replicate CSV of a two-replicate covid rd run of crude."""
        out = tmp_path / f"seed{seed}"
        rc = run_cli(
            "simulate", "--scenario", "covid", "--n", "40", "--replicates", "2",
            "--bootstrap", "0", "--beta-trt", "0.5", "--methods", "crude",
            "--seed", str(seed), "--workers", "1", "--out", str(out),
        )
        assert rc == 0
        return (tmp_path / f"seed{seed}_replicates.csv").read_text()

    def test_summarize_refuses_a_repeated_replicate_method(self, tmp_path, capsys):
        # two runs concatenated: seed 2's rows would replace seed 1's
        first, second = (self.crude_replicates(tmp_path, seed) for seed in (1, 2))
        both = tmp_path / "both.csv"
        both.write_text(first + second.split("\n", 1)[1])
        rc = run_cli(
            "summarize", "--replicates-csv", str(both), "--true-effect", "0.1",
            "--out", str(tmp_path / "m"),
        )
        assert rc == 2
        assert "line 4 repeats crude of replicate 0" in capsys.readouterr().err
        assert not (tmp_path / "m_summary.csv").exists()

    @pytest.mark.parametrize("column", ["replicate", "point", "se", "ci_lo", "ci_hi"])
    def test_summarize_refuses_an_unparsable_cell(self, tmp_path, capsys, column):
        rows = list(csv.DictReader(self.crude_replicates(tmp_path, 1).splitlines()))
        assert rows[1]["failed"] == "false"
        rows[1][column] = "abc"
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        rc = run_cli(
            "summarize", "--replicates-csv", str(bad), "--true-effect", "0.1",
            "--out", str(tmp_path / "m"),
        )
        assert rc == 2
        assert "line 3" in capsys.readouterr().err
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
            ("--beta-trt", "nan"),
            ("--beta-trt", "inf"),
            ("--beta0", "inf"),
            ("--seed", "-1"),
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

    @pytest.mark.parametrize("file_profile", ["express", "paper"])
    def test_profile_flag_overrides_the_file_profile(self, tmp_path, file_profile):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"profile": file_profile}))
        args = build_parser().parse_args(
            ["analyze", "--config", str(cfg_path), "--profile", "express", "--data", "d.csv"]
        )
        cfg = load_config(args)
        assert (cfg.n_replicates, cfg.bootstrap_b) == (500, 250)  # express

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

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("n", "100", "an integer"),
            ("n", 100.0, "an integer"),
            ("n_replicates", True, "an integer"),
            ("bootstrap_b", None, "an integer"),
            ("master_seed", "7", "an integer"),
            ("methods", "crude", "a list of strings"),
            ("methods", ["crude", 3], "a list of strings"),
            ("categorical", "status", "a list of strings"),
            ("beta_trt", "0.5", "a number or null"),
            ("beta_trt", True, "a number or null"),
            ("target_effect", "0.16", "a number or null"),
            ("beta0_override", "-1.5", "a number or null"),
            ("true_effect", "x", "a number or null"),
            ("beta_trt", float("nan"), "finite"),
            ("target_effect", float("inf"), "finite"),
            ("beta0_override", float("-inf"), "finite"),
            ("true_effect", float("nan"), "finite"),
            pytest.param("beta_trt", 10**400, "finite", id="beta_trt-10**400-finite"),
            ("workers", True, '"auto" or an integer'),
            ("workers", "2", '"auto" or an integer'),
            ("scenario", 5, "a string"),
            ("estimand", None, "a string"),
            ("out", 7, "a string"),
            ("out", None, "a string"),
            ("data", True, "a string"),
            ("replicates_csv", ["r.csv"], "a string"),
            ("profile", ["paper"], "a string"),
        ],
    )
    def test_config_field_of_the_wrong_type_refused(
        self, tmp_path, capsys, field, value, expected
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"beta_trt": 0.0, field: value}))
        rc = run_cli(
            "simulate", "--config", str(cfg_path), "--replicates", "2",
            "--bootstrap", "0", "--methods", "crude", "--workers", "1",
            "--out", str(tmp_path / "c"),
        )
        assert rc == 2
        assert f"config field {field!r} must be {expected}" in capsys.readouterr().err
        assert not (tmp_path / "c_replicates.csv").exists()

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
        # level 0 is the reference: one dummy each for levels 1 and 2, in
        # the column's place, then the untouched age column
        expected = [[0.0, 0.0, 31.5], [1.0, 0.0, 44.0], [0.0, 1.0, 52.0], [1.0, 0.0, 40.0]]
        assert data.covariates.tolist() == expected * 3

    def test_bad_inputs_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,a\n2,0\n1,1\n")
        assert run_cli("analyze", "--data", str(path), "--out", str(tmp_path / "o")) == 2
        path.write_text("y\n1\n")
        assert run_cli("analyze", "--data", str(path), "--out", str(tmp_path / "o")) == 2
        path.write_text("y,a\n1,zero\n")
        assert run_cli("analyze", "--data", str(path), "--out", str(tmp_path / "o")) == 2

    def test_repeated_column_name_refused(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("y,a,x,x\n" + "1,1,0.5,2\n0,0,1.5,3\n" * 6)
        rc = run_cli("analyze", "--data", str(path), "--out", str(tmp_path / "o"))
        assert rc == 2
        assert "repeats column names ['x']" in capsys.readouterr().err
        assert not (tmp_path / "o_estimates.csv").exists()

    @pytest.mark.parametrize("row", ["1,1", "1,1,0.5,9"])
    def test_row_of_the_wrong_length_refused(self, tmp_path, capsys, row):
        path = tmp_path / "d.csv"
        path.write_text("y,a,x\n1,1,0.5\n0,0,1.5\n" + row + "\n1,0,2.5\n")
        rc = run_cli("analyze", "--data", str(path), "--out", str(tmp_path / "o"))
        assert rc == 2
        assert "line 4 has" in capsys.readouterr().err
        assert not (tmp_path / "o_estimates.csv").exists()

    @pytest.mark.parametrize("estimand", ["rd", "or"])
    def test_categorical_equals_hand_written_dummies(self, tmp_path, estimand):
        rng = np.random.default_rng(12)
        n = 60
        status = rng.integers(0, 3, n)
        age = rng.normal(50.0, 10.0, n).round(1)
        a = (rng.random(n) < 0.3 + 0.2 * (status == 2)).astype(int)
        y = (rng.random(n) < 0.2 + 0.3 * a).astype(int)
        coded, expanded = tmp_path / "coded.csv", tmp_path / "expanded.csv"
        with open(coded, "w", newline="") as fh:
            csv.writer(fh).writerows(
                [("y", "a", "status", "age")] + list(zip(y, a, status, age))
            )
        with open(expanded, "w", newline="") as fh:
            csv.writer(fh).writerows(
                [("y", "a", "status1", "status2", "age")]
                + list(zip(y, a, (status == 1).astype(int), (status == 2).astype(int), age))
            )
        common = ["--estimand", estimand, "--bootstrap", "20", "--seed", "4"]
        assert run_cli(
            "analyze", "--data", str(coded), "--categorical", "status", *common,
            "--out", str(tmp_path / "c"),
        ) == 0
        assert run_cli(
            "analyze", "--data", str(expanded), *common, "--out", str(tmp_path / "e"),
        ) == 0
        got = (tmp_path / "c_estimates.csv").read_bytes()
        assert got == (tmp_path / "e_estimates.csv").read_bytes()
        assert b"gcomp" in got
