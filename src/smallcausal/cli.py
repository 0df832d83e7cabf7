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
import os
import sys
import time
from dataclasses import astuple, dataclass, field, fields
from datetime import datetime, timezone

import numpy as np

from .blas import cap_blas_threads
from .data import Dataset
from .errors import NotBracketedError
from .estimators import ESTIMAND_RD, ESTIMANDS, METHODS, EffectEstimate, estimate_effects
from .simulation import (
    SCENARIO_IDS,
    MethodMetrics,
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
SUMMARY_COLUMNS = ("method", *(f.name for f in fields(MethodMetrics)))
#: each JSON type a --config field may have: the phrase its refusal prints
#: and its test (a JSON true or false is no integer or number)
NUMBER, LIST = "a number or null", "a list of strings"
JSON_TYPES = {
    "an integer": lambda v: type(v) is int,
    NUMBER: lambda v: v is None or type(v) in (int, float),
    "a string": lambda v: type(v) is str,
    LIST: lambda v: type(v) is list and all(type(s) is str for s in v),
    '"auto" or an integer': lambda v: v == "auto" or type(v) is int,
}
#: how a flag reads its text, by its field's JSON type; the others keep the string
FLAG_TYPES = {"an integer": int, NUMBER: float, LIST: lambda t: tuple(filter(None, t.split(",")))}
#: each subcommand's help
COMMANDS = {
    "calibrate": "find beta_trt for a target effect",
    "simulate": "run a replicated simulation study",
    "analyze": "estimate effects on a CSV dataset",
    "summarize": "summary table from a replicate CSV",
}


class CliError(Exception):
    """Configuration or input problem reported with a nonzero exit."""


def setting(default, flag: str, json_type: str, commands: str, check=None,
            needed_by: str = "", **argparse_keywords):
    """A RunConfig field with its flag, its JSON_TYPES key, the subcommands
    that take the flag, a (test, error) pair for the final value and the
    subcommand that cannot run without one."""
    return field(default=default, metadata={
        "flag": flag, "json_type": json_type, "commands": commands.split(),
        "check": check, "needed_by": needed_by, "argparse": argparse_keywords})


def _per_estimand(describe) -> str:
    """``describe(row)`` for each ESTIMANDS row, after its estimand id."""
    return "; ".join(f"{e}: {describe(row)}" for e, row in ESTIMANDS.items())


def _workers_ok(value) -> bool:
    try:
        return value == "auto" or int(value) >= 1
    except ValueError:
        return False


@dataclass
class RunConfig:
    """One run's settings, each declared once with its flag and checks."""

    command: str
    scenario: str = setting(
        "covid", "--scenario", "a string", "calibrate simulate", choices=SCENARIO_IDS,
        check=(lambda v: v in SCENARIO_IDS, f"scenario must be one of {SCENARIO_IDS}"))
    n: int = setting(100, "--n", "an integer", "simulate", help="subjects per dataset",
                     check=(lambda v: v >= 2, "--n must be at least 2"))
    n_replicates: int = setting(2000, "--replicates", "an integer", "simulate",
                                check=(lambda v: v >= 1, "--replicates must be at least 1"))
    bootstrap_b: int = setting(
        1000, "--bootstrap", "an integer", "simulate analyze",
        help="bootstrap resamples (0: no intervals)",
        check=(lambda v: v == 0 or v >= 2, "--bootstrap must be 0 (no intervals) or at least 2"))
    estimand: str = setting(
        ESTIMAND_RD, "--estimand", "a string", "calibrate simulate analyze",
        choices=tuple(ESTIMANDS), help="scale of every point, interval and true effect ("
        + _per_estimand(lambda row: row.scale) + ")",
        check=(lambda v: v in ESTIMANDS, "estimand must be " + " or ".join(ESTIMANDS)))
    methods: tuple[str, ...] = setting((), "--methods", LIST, "simulate analyze",
                                       help="comma-separated registry ids")
    master_seed: int = setting(0, "--seed", "an integer", "calibrate simulate analyze",
                               check=(lambda v: v >= 0, "--seed must be at least 0"))
    workers: int | str = setting(
        "auto", "--workers", '"auto" or an integer', "simulate", help='worker count or "auto"',
        check=(_workers_ok, '--workers must be "auto" or at least 1'))
    beta_trt: float | None = setting(None, "--beta-trt", NUMBER, "simulate")
    target_effect: float | None = setting(
        None, "--target-effect", NUMBER, "calibrate simulate", needed_by="calibrate",
        help="marginal effect that calibration bisects beta_trt to (" + _per_estimand(
            lambda row: f"{row.target_scale} within {row.tolerance:g}") + ")")
    beta0_override: float | None = setting(None, "--beta0", NUMBER, "simulate")
    out: str = setting("results", "--out", "a string", "calibrate simulate analyze summarize")
    data: str | None = setting(None, "--data", "a string", "analyze", needed_by="analyze",
                               help="input CSV with y and a columns")
    categorical: tuple[str, ...] = setting((), "--categorical", LIST, "analyze",
                                           help="comma-separated covariates to dummy-expand")
    replicates_csv: str | None = setting(None, "--replicates-csv", "a string", "summarize",
                                         needed_by="summarize")
    true_effect: float | None = setting(
        None, "--true-effect", NUMBER, "summarize", needed_by="summarize",
        help="true effect on the replicate CSV's scale ("
        + _per_estimand(lambda row: row.scale) + ")")

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


SETTINGS = fields(RunConfig)[1:]  # every field but the subcommand


def fmt(value) -> str:
    """17-significant-digit serialization; empty string for missing."""
    if value is None:
        return ""
    return format(float(value), ".17g")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallcausal",
        description="Risk-difference/odds-ratio estimators and their "
        "small-sample simulation benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        if command in ("simulate", "analyze"):  # the subcommands that bootstrap
            p.add_argument("--profile", choices=tuple(PROFILES))
        for s in SETTINGS:
            if command in s.metadata["commands"]:
                p.add_argument(s.metadata["flag"], dest=s.name, **s.metadata["argparse"],
                               type=FLAG_TYPES.get(s.metadata["json_type"]))
    return parser


def _finite(value) -> bool:
    """False for NaN, an infinity and an integer beyond the float range."""
    return value is None or abs(value) <= sys.float_info.max


def load_config(args: argparse.Namespace) -> RunConfig:
    file_fields: dict = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            file_fields = json.load(fh)
        if not isinstance(file_fields, dict):
            raise CliError("config file must hold a JSON object")
    profile = file_fields.pop("profile", "")
    if type(profile) is not str:
        raise CliError("config field 'profile' must be a string")
    profile = getattr(args, "profile", None) or profile
    values = {**file_fields, "command": args.command}
    for s in SETTINGS:  # a flag overrides the file's field
        json_type, flag = s.metadata["json_type"], s.metadata["flag"]
        if s.name in file_fields:
            value = file_fields[s.name]
            if not JSON_TYPES[json_type](value):
                raise CliError(f"config field {s.name!r} must be {json_type}")
            if json_type == NUMBER and not _finite(value):
                raise CliError(f"config field {s.name!r} must be finite")
            values[s.name] = tuple(value) if json_type == LIST else value
        value = getattr(args, s.name, None)
        if json_type == NUMBER and not _finite(value):  # float() reads nan and inf
            raise CliError(f"{flag} must be finite")
        if value is not None:
            values[s.name] = value
    if profile:
        if profile not in PROFILES:
            raise CliError(f"unknown profile {profile!r}")
        for key, value in PROFILES[profile].items():
            values.setdefault(key, value)
    unknown = set(values) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise CliError(f"unknown config fields: {sorted(unknown)}")
    cfg = RunConfig(**values)
    for s in SETTINGS:
        value, check = getattr(cfg, s.name), s.metadata["check"]
        # a range is checked only where the subcommand takes the flag, so
        # one file can serve subcommands that do not read all its fields
        if check and cfg.command in s.metadata["commands"] and not check[0](value):
            raise CliError(check[1])
        if cfg.command == s.metadata["needed_by"] and value in (None, ""):
            raise CliError(f"{cfg.command} needs {s.metadata['flag']}")
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
    results: list[dict[str, EffectEstimate]], methods: tuple[str, ...]
) -> dict[str, dict[str, int]]:
    """Method -> failure-reason tag -> number of replicates it failed."""
    counts: dict[str, dict[str, int]] = {m: {} for m in methods}
    for estimates in results:
        for m in methods:
            reason = estimates[m].failure_reason
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
    """Marginal effect on the estimand's reported scale."""
    if beta_trt == 0.0:
        return 0.0  # the null on every reported scale, without running the oracle
    spec = make_scenario(cfg.scenario, cfg.n, beta_trt, cfg.beta0_override)
    return true_marginal_effect(spec, cfg.estimand)


def _calibrated_beta_trt(cfg: RunConfig) -> float:
    """Treatment coefficient for ``cfg.target_effect``; 0.0 at the null."""
    try:
        return calibrate_beta_trt(cfg.scenario, cfg.target_effect, estimand=cfg.estimand)
    except NotBracketedError as exc:
        raise CliError(f"calibration failed: {exc}")


def cmd_calibrate(cfg: RunConfig) -> int:
    beta_trt = _calibrated_beta_trt(cfg)
    # the exact truth reads no sample size, so calibrate reads no n
    spec = make_scenario(cfg.scenario, 1, beta_trt, cfg.beta0_override)
    achieved = ESTIMANDS[cfg.estimand].to_target(true_marginal_effect(spec, cfg.estimand))
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


def _estimate_values(est: EffectEstimate) -> tuple:
    """The typed (point, se, ci_lo, ci_hi, failed, failure_reason) of ``est``,
    the fields of ``REPLICATE_COLUMNS`` after replicate, method and estimand."""
    ci_lo, ci_hi = est.ci or (None, None)
    return est.point, est.se, ci_lo, ci_hi, est.failed, est.failure_reason


def _estimate_row(replicate: int, est: EffectEstimate) -> list[str]:
    """The replicate CSV row of ``est``; ``_row_estimate`` reads it back."""
    *numbers, failed, reason = _estimate_values(est)
    return [str(replicate), est.method, est.estimand, *map(fmt, numbers),
            "true" if failed else "false", reason or ""]


def _row_estimate(row: dict[str, str]) -> EffectEstimate:
    """The estimate of a replicate CSV row (a ``REPLICATE_COLUMNS`` dict);
    ValueError or TypeError for a cell it cannot read."""
    if row["failed"] == "true":
        return EffectEstimate(row["estimand"], row["method"], None, failed=True,
                              failure_reason=row["failure_reason"] or "unknown")
    ci = None
    if row["ci_lo"] != "" and row["ci_hi"] != "":
        ci = (float(row["ci_lo"]), float(row["ci_hi"]))
    se = float(row["se"]) if row["se"] != "" else None
    return EffectEstimate(row["estimand"], row["method"], float(row["point"]), se, ci)


def _summary_rows(summary: dict[str, MethodMetrics], methods: tuple[str, ...]) -> list[list[str]]:
    return [[m, *map(fmt, astuple(summary[m]))] for m in methods]


def _print_summary(summary: dict[str, MethodMetrics], methods: tuple[str, ...]) -> None:
    def cell(v, width=9):
        return f"{v:>{width}.4f}" if v is not None else " " * (width - 2) + "--"

    print(f"{'method':20s} {'mean_bias':>11s} {'rmse':>9s} {'mae':>9s} {'coverage':>9s} {'ci_len':>9s} {'fail':>5s}")
    for m in methods:
        *metrics, n_failures = astuple(summary[m])
        print(f"{m:20s}", cell(metrics[0], 11), *map(cell, metrics[1:]), f"{n_failures:>5d}")


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
    results, summary = run_study(
        spec,
        methods,
        cfg.estimand,
        cfg.n_replicates,
        cfg.bootstrap_b,
        cfg.master_seed,
        true_effect,
        workers=cfg.resolved_workers(),
    )

    rep_path = cfg.out + "_replicates.csv"
    _write_csv(rep_path, REPLICATE_COLUMNS, (
        _estimate_row(i, estimates[m])
        for i, estimates in enumerate(results)
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
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise CliError(f"dataset CSV repeats column names {repeated}")
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise CliError(
                f"dataset CSV line {line} has {len(row)} cells; "
                f"the header has {len(header)}"
            )
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
        else:
            cov_cols.append(vec)
    covariates = (
        np.column_stack(cov_cols) if cov_cols else np.zeros((len(y), 0))
    )
    return Dataset(covariates, a, y)


def cmd_analyze(cfg: RunConfig) -> int:
    data = read_dataset_csv(cfg.data, cfg.categorical)
    methods = cfg.resolved_methods()
    registry = METHODS[cfg.estimand]
    ps_methods = sorted(m for m in methods if registry[m].needs_ps)
    if data.n_covariates == 0 and ps_methods:
        raise CliError(
            "propensity-based methods need at least one covariate; "
            f"requested: {ps_methods}"
        )
    rng = derive_substream(cfg.master_seed, "analyze", 0, "bootstrap")
    estimates = estimate_effects(
        data, methods, cfg.estimand, bootstrap=cfg.bootstrap_b, rng=rng
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
            m: dict(zip(REPLICATE_COLUMNS[3:], _estimate_values(estimates[m]))) for m in methods
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


def read_replicates_csv(path: str) -> list[tuple[int, dict]]:
    """Each row of a replicate CSV with the line number it ends on."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or set(REPLICATE_COLUMNS) - set(
            reader.fieldnames
        ):
            raise CliError(
                f"replicate CSV must have columns {','.join(REPLICATE_COLUMNS)}"
            )
        return [(reader.line_num, row) for row in reader]


def cmd_summarize(cfg: RunConfig) -> int:
    rows = read_replicates_csv(cfg.replicates_csv)
    estimands = sorted({row["estimand"] for _, row in rows})
    if len(estimands) > 1:
        raise CliError(
            f"replicate CSV mixes estimands {estimands}; summarize one at a time"
        )
    by_replicate: dict[int, dict[str, EffectEstimate]] = {}
    methods: list[str] = []
    for line, row in rows:
        method = row["method"]
        if method not in methods:
            methods.append(method)
        try:
            idx = int(row["replicate"])
            est = _row_estimate(row)
        except (TypeError, ValueError) as exc:
            raise CliError(f"replicate CSV line {line}: {exc}")
        if method in by_replicate.setdefault(idx, {}):
            raise CliError(f"replicate CSV line {line} repeats {method} of replicate {idx}")
        by_replicate[idx][method] = est
    results = [ests for _, ests in sorted(by_replicate.items())]
    summary = summarize(results, cfg.true_effect)
    _write_csv(cfg.out + "_summary.csv", SUMMARY_COLUMNS, _summary_rows(summary, tuple(methods)))
    _print_summary(summary, tuple(methods))
    return 0


def main(argv: list[str] | None = None) -> int:
    blas = cap_blas_threads()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        # refused before any work, so a long run cannot end unable to write
        directory = os.path.dirname(cfg.out) or "."
        if not os.path.isdir(directory):
            raise CliError(f"--out directory {directory} does not exist")
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
