"""Command-line front end.

Four subcommands: ``calibrate`` (find the treatment coefficient for a target
marginal effect), ``simulate`` (run replicated studies and write metric
tables), ``analyze`` (run the estimators on a CSV dataset) and ``summarize``
(recompute a summary table from a per-replicate CSV).

Configuration can come from a JSON file (``--config``); command-line flags
override file fields.  Every output number is serialized with 17 significant
digits and all randomness is derived from the master seed, so outputs are
byte-identical across runs and worker counts.  Timestamps appear only in the
``*_meta.json`` sidecar.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .blas import cap_blas_threads
from .bootstrap import BootstrapConfig
from .data import Dataset
from .errors import NotBracketedError
from .estimators import METHODS, EffectEstimate, estimate_effects
from .simulation import (
    SCENARIO_IDS,
    MetricsSummary,
    ReplicateResult,
    calibrate_beta_trt,
    make_scenario,
    run_study,
    summarize,
    true_marginal_effect,
)
from .streams import derive_substream

PROFILES = {
    "paper": {"n_replicates": 2000, "bootstrap_b": 1000},
    "express": {"n_replicates": 500, "bootstrap_b": 250},
}

REPLICATE_COLUMNS = (
    "replicate",
    "method",
    "estimand",
    "point",
    "se",
    "ci_lo",
    "ci_hi",
    "failed",
    "failure_reason",
)
SUMMARY_COLUMNS = (
    "method",
    "mean_bias",
    "rmse",
    "mae",
    "coverage",
    "median_ci_length",
    "n_failures",
)
#: bisection tolerance of a calibrated effect, on the rd and OR scales
CALIBRATION_TOLERANCE = {"rd": 0.002, "or": 0.02}


class CliError(Exception):
    """Configuration or input problem reported with a nonzero exit."""


@dataclass
class RunConfig:
    command: str
    scenario: str = "covid"
    n: int = 100
    n_replicates: int = 2000
    bootstrap_b: int = 1000
    estimand: str = "rd"
    methods: tuple[str, ...] = ()
    master_seed: int = 0
    workers: int | str = "auto"
    beta_trt: float | None = None
    target_effect: float | None = None
    beta0_override: float | None = None
    out: str = "results"
    data: str | None = None
    categorical: tuple[str, ...] = ()
    true_effect: float | None = None
    replicates_csv: str | None = None

    def resolved_workers(self) -> int:
        if self.workers == "auto":
            if hasattr(os, "sched_getaffinity"):  # honours CPU affinity
                return len(os.sched_getaffinity(0))
            return os.cpu_count() or 1
        return max(1, int(self.workers))

    def resolved_methods(self) -> tuple[str, ...]:
        registry = METHODS[self.estimand]
        if not self.methods:
            return tuple(registry)
        unknown = set(self.methods) - set(registry)
        if unknown:
            raise CliError(
                f"unknown methods for estimand {self.estimand!r}: {sorted(unknown)}"
            )
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise CliError(f"methods requested more than once: {repeated}")
        return tuple(self.methods)


def fmt(value) -> str:
    """17-significant-digit serialization; empty string for missing."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallcausal",
        description="Risk-difference/odds-ratio estimators and their "
        "small-sample simulation benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--scenario", choices=SCENARIO_IDS)
        p.add_argument("--n", type=int, help="subjects per dataset")
        p.add_argument("--replicates", type=int, dest="n_replicates")
        p.add_argument(
            "--bootstrap", type=int, dest="bootstrap_b",
            help="bootstrap replications (0 disables bootstrap intervals)",
        )
        p.add_argument("--estimand", choices=("rd", "or"))
        p.add_argument("--methods", help="comma-separated registry ids")
        p.add_argument("--seed", type=int, dest="master_seed")
        p.add_argument("--workers", help='worker count or "auto"')
        p.add_argument("--beta-trt", type=float, dest="beta_trt")
        p.add_argument("--target-effect", type=float, dest="target_effect")
        p.add_argument("--beta0", type=float, dest="beta0_override")
        p.add_argument("--profile", choices=tuple(PROFILES))
        p.add_argument("--out")

    p_cal = sub.add_parser("calibrate", help="find beta_trt for a target effect")
    common(p_cal)

    p_sim = sub.add_parser("simulate", help="run a replicated simulation study")
    common(p_sim)

    p_ana = sub.add_parser("analyze", help="estimate effects on a CSV dataset")
    common(p_ana)
    p_ana.add_argument("--data", help="input CSV with y and a columns")
    p_ana.add_argument(
        "--categorical", help="comma-separated covariates to dummy-expand"
    )

    p_sum = sub.add_parser("summarize", help="summary table from a replicate CSV")
    common(p_sum)
    p_sum.add_argument("--replicates-csv", dest="replicates_csv")
    p_sum.add_argument("--true-effect", type=float, dest="true_effect")
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    fields: dict = {"command": args.command}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            file_fields = json.load(fh)
        if not isinstance(file_fields, dict):
            raise CliError("config file must hold a JSON object")
        fields.update(file_fields)
    profile = getattr(args, "profile", None) or fields.pop("profile", None)
    if profile:
        if profile not in PROFILES:
            raise CliError(f"unknown profile {profile!r}")
        for key, value in PROFILES[profile].items():
            fields.setdefault(key, value)
    for key in RunConfig.__dataclass_fields__:
        value = getattr(args, key, None)
        if key in ("methods", "categorical"):  # comma-separated lists
            if value is not None:
                fields[key] = tuple(v for v in value.split(",") if v)
            elif fields.get(key) is not None:
                fields[key] = tuple(fields[key])
        elif value is not None:
            fields[key] = value
    unknown = set(fields) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise CliError(f"unknown config fields: {sorted(unknown)}")
    cfg = RunConfig(**fields)
    if cfg.estimand not in ("rd", "or"):
        raise CliError("estimand must be rd or or")
    if cfg.scenario not in SCENARIO_IDS:
        raise CliError(f"scenario must be one of {SCENARIO_IDS}")
    if cfg.n < 2:
        raise CliError("--n must be at least 2")
    if cfg.n_replicates < 1:
        raise CliError("--replicates must be at least 1")
    if cfg.bootstrap_b != 0 and cfg.bootstrap_b < 2:
        raise CliError("--bootstrap must be 0 (no intervals) or at least 2")
    try:
        workers_ok = cfg.workers == "auto" or int(cfg.workers) >= 1
    except (TypeError, ValueError):
        workers_ok = False
    if not workers_ok:
        raise CliError('--workers must be "auto" or at least 1')
    return cfg


def _write_meta(path_prefix: str, cfg: RunConfig, extra: dict) -> None:
    meta = {
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "command": cfg.command,
        "config": {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in vars(cfg).items()
        },
    }
    meta.update(extra)
    _write_json(path_prefix + "_meta.json", meta)


def _failure_counts(
    results: list[ReplicateResult], methods: tuple[str, ...]
) -> dict[str, dict[str, int]]:
    """Method -> failure-reason tag -> number of replicates it failed."""
    counts: dict[str, dict[str, int]] = {m: {} for m in methods}
    for res in results:
        for m in methods:
            reason = res.estimates[m].failure_reason
            if reason is not None:
                counts[m][reason] = counts[m].get(reason, 0) + 1
    return counts


def _json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(obj))


def _write_csv(path: str, header: tuple[str, ...], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _truth_for(cfg: RunConfig, beta_trt: float) -> float:
    """Marginal effect on the metric scale (rd, or log-OR for estimand=or)."""
    if beta_trt == 0.0:
        return 0.0  # the null on both scales, without running the oracle
    spec = make_scenario(cfg.scenario, cfg.n, beta_trt, cfg.beta0_override)
    value = true_marginal_effect(spec, cfg.estimand)
    return math.log(value) if cfg.estimand == "or" else value


def _calibrated_beta_trt(cfg: RunConfig) -> float:
    """Treatment coefficient for ``cfg.target_effect``; 0.0 at the null."""
    try:
        return calibrate_beta_trt(
            cfg.scenario,
            cfg.target_effect,
            estimand=cfg.estimand,
            tolerance=CALIBRATION_TOLERANCE[cfg.estimand],
        )
    except NotBracketedError as exc:
        raise CliError(f"calibration failed: {exc}")


def cmd_calibrate(cfg: RunConfig) -> int:
    if cfg.target_effect is None:
        raise CliError("calibrate needs --target-effect")
    beta_trt = _calibrated_beta_trt(cfg)
    spec = make_scenario(cfg.scenario, cfg.n, beta_trt, cfg.beta0_override)
    achieved = true_marginal_effect(spec, cfg.estimand)
    report = {
        "scenario": cfg.scenario,
        "estimand": cfg.estimand,
        "target": cfg.target_effect,
        "beta_trt": beta_trt,
        "achieved_effect": achieved,
        "seed": cfg.master_seed,
    }
    sys.stdout.write(_json_text(report))
    if cfg.out:
        _write_json(cfg.out + "_calibration.json", report)
    return 0


def _estimate_row(replicate: int, est: EffectEstimate) -> list[str]:
    return [
        str(replicate),
        est.method,
        est.estimand,
        fmt(est.point),
        fmt(est.se),
        fmt(est.ci[0]) if est.ci else "",
        fmt(est.ci[1]) if est.ci else "",
        "true" if est.failed else "false",
        est.failure_reason or "",
    ]


def _summary_rows(summary: MetricsSummary, methods: tuple[str, ...]) -> list[list[str]]:
    rows = []
    for m in methods:
        mm = summary.per_method[m]
        rows.append(
            [
                m,
                fmt(mm.mean_bias),
                fmt(mm.rmse),
                fmt(mm.mae),
                fmt(mm.coverage),
                fmt(mm.median_ci_length),
                str(mm.n_failures),
            ]
        )
    return rows


def _print_summary(summary: MetricsSummary, methods: tuple[str, ...]) -> None:
    header = f"{'method':20s} {'mean_bias':>11s} {'rmse':>9s} {'mae':>9s} {'coverage':>9s} {'ci_len':>9s} {'fail':>5s}"
    print(header)
    for m in methods:
        mm = summary.per_method[m]

        def cell(v, width=9):
            return f"{v:>{width}.4f}" if v is not None else " " * (width - 2) + "--"

        print(
            f"{m:20s} {cell(mm.mean_bias, 11)} {cell(mm.rmse)} {cell(mm.mae)} "
            f"{cell(mm.coverage)} {cell(mm.median_ci_length)} {mm.n_failures:>5d}"
        )


def cmd_simulate(cfg: RunConfig, blas: list[dict] | None) -> int:
    if (cfg.beta_trt is None) == (cfg.target_effect is None):
        raise CliError("simulate needs exactly one of --beta-trt / --target-effect")
    # wall seconds of each set-up stage; None for a stage that did not run
    setup_seconds = {"calibration": None, "truth_oracle": None}
    beta_trt = cfg.beta_trt
    if beta_trt is None:
        started = time.perf_counter()
        beta_trt = _calibrated_beta_trt(cfg)
        setup_seconds["calibration"] = time.perf_counter() - started
    true_effect = cfg.true_effect
    if true_effect is None:
        started = time.perf_counter()
        true_effect = _truth_for(cfg, beta_trt)
        setup_seconds["truth_oracle"] = time.perf_counter() - started
    methods = cfg.resolved_methods()
    spec = make_scenario(cfg.scenario, cfg.n, beta_trt, cfg.beta0_override)
    bootstrap = (
        BootstrapConfig(replications=cfg.bootstrap_b) if cfg.bootstrap_b else None
    )
    results, summary = run_study(
        spec,
        methods,
        cfg.estimand,
        cfg.n_replicates,
        bootstrap,
        cfg.master_seed,
        true_effect,
        workers=cfg.resolved_workers(),
    )

    rep_path = cfg.out + "_replicates.csv"
    _write_csv(rep_path, REPLICATE_COLUMNS, (
        _estimate_row(res.replicate_index, res.estimates[m])
        for res in results
        for m in methods
    ))
    sum_path = cfg.out + "_summary.csv"
    _write_csv(sum_path, SUMMARY_COLUMNS, _summary_rows(summary, methods))
    _write_meta(
        cfg.out,
        cfg,
        {
            "beta_trt": beta_trt,
            "true_effect": true_effect,
            "n_replicates": cfg.n_replicates,
            "outputs": [rep_path, sum_path],
            "bootstrap_refits_full_pipeline": True,
            "matching_order": "descending propensity, ties by index",
            "setup_seconds": setup_seconds,
            "blas": blas,
            "failures": _failure_counts(results, methods),
        },
    )
    print(f"scenario={cfg.scenario} n={cfg.n} estimand={cfg.estimand} "
          f"beta_trt={beta_trt:.6g} true_effect={true_effect:.6g} "
          f"replicates={cfg.n_replicates}")
    _print_summary(summary, methods)
    return 0


def read_dataset_csv(path: str, categorical: tuple[str, ...]) -> Dataset:
    """CSV with header; required columns y and a; the rest are covariates.

    Declared categorical columns with <= 10 distinct integer levels in 0..9
    are dummy-expanded against their smallest level.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CliError("dataset CSV is empty")
        rows = list(reader)
    if not rows:
        raise CliError("dataset CSV has no data rows")
    header = [h.strip() for h in header]
    for required in ("y", "a"):
        if required not in header:
            raise CliError(f"dataset CSV is missing required column {required!r}")
    try:
        values = np.array([[float(cell) for cell in row] for row in rows])
    except ValueError as exc:
        raise CliError(f"non-numeric cell in dataset CSV: {exc}")
    if not np.isfinite(values).all():
        raise CliError("dataset CSV contains non-finite values")
    columns = {name: values[:, i] for i, name in enumerate(header)}
    y, a = columns.pop("y"), columns.pop("a")
    for name, vec in (("y", y), ("a", a)):
        if not np.isin(vec, (0.0, 1.0)).all():
            raise CliError(f"column {name!r} must be coded 0/1")
    unknown = set(categorical) - set(columns)
    if unknown:
        raise CliError(f"categorical columns not in the CSV: {sorted(unknown)}")

    cov_cols: list[np.ndarray] = []
    kinds: list[str] = []
    for name in columns:  # header order
        vec = columns[name]
        if name in categorical:
            levels = np.unique(vec)
            ok = (
                len(levels) <= 10
                and np.array_equal(levels, np.round(levels))
                and levels.min() >= 0
                and levels.max() <= 9
            )
            if not ok:
                raise CliError(
                    f"column {name!r} is declared categorical but does not "
                    "have <= 10 integer levels in 0..9"
                )
            for level in levels[1:]:  # smallest level is the reference
                cov_cols.append((vec == level).astype(float))
                kinds.append("categorical-dummy")
        else:
            cov_cols.append(vec)
            kinds.append("binary" if set(np.unique(vec)) <= {0.0, 1.0} else "continuous")
    covariates = (
        np.column_stack(cov_cols) if cov_cols else np.zeros((len(y), 0))
    )
    return Dataset(covariates, a, y, tuple(kinds))


def cmd_analyze(cfg: RunConfig) -> int:
    if not cfg.data:
        raise CliError("analyze needs --data CSV")
    data = read_dataset_csv(cfg.data, cfg.categorical)
    methods = cfg.resolved_methods()
    registry = METHODS[cfg.estimand]
    ps_methods = sorted(m for m in methods if registry[m].needs_ps)
    if data.n_covariates == 0 and ps_methods:
        raise CliError(
            "propensity-based methods need at least one covariate; "
            f"requested: {ps_methods}"
        )
    bootstrap = (
        BootstrapConfig(replications=cfg.bootstrap_b) if cfg.bootstrap_b else None
    )
    rng = derive_substream(cfg.master_seed, "analyze", 0, "bootstrap")
    estimates = estimate_effects(
        data, methods, cfg.estimand, bootstrap=bootstrap, rng=rng
    )
    _write_csv(cfg.out + "_estimates.csv", REPLICATE_COLUMNS, (
        _estimate_row(0, estimates[m]) for m in methods
    ))
    report = {
        "estimand": cfg.estimand,
        "bootstrap_replications": cfg.bootstrap_b,
        "seed": cfg.master_seed,
        "n_subjects": data.n_subjects,
        "estimates": {
            m: {
                "point": estimates[m].point,
                "se": estimates[m].se,
                "ci_lo": estimates[m].ci[0] if estimates[m].ci else None,
                "ci_hi": estimates[m].ci[1] if estimates[m].ci else None,
                "failed": estimates[m].failed,
                "failure_reason": estimates[m].failure_reason,
            }
            for m in methods
        },
    }
    _write_json(cfg.out + "_estimates.json", report)
    for m in methods:
        est = estimates[m]
        if est.failed:
            print(f"{m:20s} FAILED ({est.failure_reason})")
        else:
            ci = f" ci=({est.ci[0]:+.4f}, {est.ci[1]:+.4f})" if est.ci else ""
            print(f"{m:20s} point={est.point:+.4f}{ci}")
    return 0


def read_replicates_csv(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or set(REPLICATE_COLUMNS) - set(
            reader.fieldnames
        ):
            raise CliError(
                f"replicate CSV must have columns {','.join(REPLICATE_COLUMNS)}"
            )
        return list(reader)


def cmd_summarize(cfg: RunConfig) -> int:
    if not cfg.replicates_csv:
        raise CliError("summarize needs --replicates-csv")
    if cfg.true_effect is None:
        raise CliError("summarize needs --true-effect")
    rows = read_replicates_csv(cfg.replicates_csv)
    estimands = sorted({row["estimand"] for row in rows})
    if len(estimands) > 1:
        raise CliError(
            f"replicate CSV mixes estimands {estimands}; summarize one at a time"
        )
    by_replicate: dict[int, dict[str, EffectEstimate]] = {}
    methods: list[str] = []
    for row in rows:
        idx = int(row["replicate"])
        method = row["method"]
        if method not in methods:
            methods.append(method)
        failed = row["failed"] == "true"
        if failed:
            est = EffectEstimate(
                row["estimand"], method, None, failed=True,
                failure_reason=row["failure_reason"] or "unknown",
            )
        else:
            ci = None
            if row["ci_lo"] != "" and row["ci_hi"] != "":
                ci = (float(row["ci_lo"]), float(row["ci_hi"]))
            est = EffectEstimate(
                row["estimand"],
                method,
                float(row["point"]),
                float(row["se"]) if row["se"] != "" else None,
                ci,
            )
        by_replicate.setdefault(idx, {})[method] = est
    results = [
        ReplicateResult(idx, ests, cfg.true_effect)
        for idx, ests in sorted(by_replicate.items())
    ]
    summary = summarize(results, cfg.true_effect)
    _write_csv(
        cfg.out + "_summary.csv", SUMMARY_COLUMNS, _summary_rows(summary, tuple(methods))
    )
    _print_summary(summary, tuple(methods))
    return 0


def main(argv: list[str] | None = None) -> int:
    blas = cap_blas_threads()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        if cfg.command == "calibrate":
            return cmd_calibrate(cfg)
        if cfg.command == "simulate":
            return cmd_simulate(cfg, blas)
        if cfg.command == "analyze":
            return cmd_analyze(cfg)
        if cfg.command == "summarize":
            return cmd_summarize(cfg)
        raise CliError(f"unknown command {cfg.command!r}")
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
