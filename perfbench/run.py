"""Benchmark of the `smallcausal simulate` cell, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload rd_covid_n100_boot --seed 1 \
        --seconds 10 --trace 0

Each measured cell runs the real ``smallcausal.cli.main`` simulate path in a
fresh interpreter (``perfbench/cell.py``), cell k at master seed
``--seed + 7919 k``.  Cells repeat until ``--seconds`` of cell time has been
measured, and at least the workload's cell count, so every run sets up
several times; metrics are medians over cells.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates untraced and
traced cells and reports the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every cell's replicate CSV is checked (one row per replicate and method,
finite points, ordered intervals, known failure tags), a repeat of cell 0's
first replicates must agree byte for byte, and points and failure tags at
the default seed must match the reference in ``perfbench/reference/``
(``--record-reference`` rewrites it).  Run files go to ``.perfbench_runs/``.
See ``perfbench/README.md`` for the workloads, the metrics and which layer
should move which metric.
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CELL = os.path.join(HERE, "cell.py")
REFERENCE_DIR = os.path.join(HERE, "reference")
DEFAULT_SEED = 2007

# a run stops starting invocations once this much wall time has gone, and
# kills a cell that would end the run after RUN_LIMIT_S
RUN_BUDGET_S = 120.0
RUN_LIMIT_S = 170.0

POINT_TOLERANCE = 1e-10
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

RD_METHODS = (
    "crude",
    "cov_adjusted",
    "ps_covariate",
    "matched",
    "iptw",
    "gcomp",
    "gcomp_simple_dr",
    "gcomp_dr_quintiles",
    "aipw",
)
OR_METHODS = (
    "crude",
    "cov_adjusted",
    "ps_covariate",
    "match_unadjusted",
    "match_conditional",
    "iptw",
    "gcomp",
    "gcomp_simple_dr",
    "gcomp_dr_quintiles",
)
FAILURE_TAGS = (
    "RankDeficient",
    "NotConverged",
    "Separation",
    "LeverageOne",
    "NoPairs",
    "DegenerateVariance",
    "DegenerateStrata",
    "ExtremeOR",
    "BootstrapCollapse",
)
REPLICATE_HEADER = (
    "replicate,method,estimand,point,se,ci_lo,ci_hi,failed,failure_reason"
)

# cells: measured cells per run at least; replicates: per measured cell;
# rerun: replicates of cell 0 repeated in one process (workers=1) and compared
# byte for byte; probe: replicates re-run at the default seed and compared
# with the reference.  The boot workloads are sized so that one run stays near
# a minute on a 2-core machine; more, shorter cells make the medians resist
# slow phases of a shared host.
WORKLOADS = {
    "rd_covid_n100_boot": {
        "args": {
            "--scenario": "covid",
            "--n": "100",
            "--estimand": "rd",
            "--target-effect": "0.16",
            "--bootstrap": "250",
            "--workers": "1",
        },
        "cells": 2,
        "replicates": 5,
        "rerun": 1,
        "probe": 1,
        "target_effect": 0.16,
    },
    "rd_covid_n1000_noboot": {
        "args": {
            "--scenario": "covid",
            "--n": "1000",
            "--estimand": "rd",
            "--beta-trt": "0",
            "--bootstrap": "0",
            "--workers": "1",
        },
        "cells": 4,
        "replicates": 40,
        "rerun": 10,
        "probe": 20,
    },
    "or_austin80_n100_boot": {
        "args": {
            "--scenario": "austin",
            "--beta0": "-1.5",
            "--n": "100",
            "--estimand": "or",
            "--beta-trt": "1.0",
            "--bootstrap": "100",
            "--workers": "1",
        },
        "cells": 4,
        "replicates": 6,
        "rerun": 1,
        "probe": 1,
    },
}
# measured cell k runs at master seed --seed + k * SEED_STRIDE, so a run
# covers distinct replicates in each cell
SEED_STRIDE = 7919

END_TO_END_UNITS = {
    "replicates_per_s": "1/s",
    "cell_wall_s": "s",
    "setup_s": "s",
    "replicate_ms_p50": "ms",
    "replicate_ms_tail": "ms",
    "core_s_per_replicate": "s",
    "peak_rss_mb": "MB",
    "estimate_success_share": "share",
    "error_free_share": "share",
}


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------


def cli_args(workload: dict, seed: int, replicates: int, **overrides) -> list[str]:
    args = dict(workload["args"], **overrides)
    flat = ["simulate"]
    for flag, value in args.items():
        if value is not None:
            flat += [flag, value]
    return flat + ["--seed", str(seed), "--replicates", str(replicates)]


class Cell:
    """One finished cell process: its record, spans and output paths."""

    def __init__(self, directory: str, started_ns: int, args: list[str], trace: bool):
        self.directory = directory
        self.started_ns = started_ns
        self.args = args
        self.trace = trace
        self.record: dict | None = None
        self.problem: str | None = None
        self.spans: list[list] = []

    @property
    def csv_path(self) -> str:
        return os.path.join(self.directory, "cell_replicates.csv")

    def load(self) -> None:
        try:
            with open(os.path.join(self.directory, "record.json"), encoding="utf-8") as fh:
                self.record = json.load(fh)
        except (OSError, ValueError) as exc:
            self.problem = self.problem or f"no cell record ({exc})"
            return
        crash = self.record.get("crash")
        if crash:
            self.problem = (
                f"{crash['type']}: {crash['message']} "
                f"(last replicate entered: {crash['replicate']})"
            )
        elif self.record.get("exit_code") != 0:
            self.problem = f"smallcausal exited with {self.record.get('exit_code')}"
        for path in sorted(glob.glob(os.path.join(self.directory, "spans-*.jsonl"))):
            with open(path, encoding="utf-8") as fh:
                self.spans.extend(json.loads(line) for line in fh)

    def meta(self) -> dict:
        """The ``*_meta.json`` sidecar the CLI wrote next to the CSVs."""
        with open(os.path.join(self.directory, "cell_meta.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def study(self) -> list | None:
        for span in self.spans:
            if span[1] == "simulation.run_study" and span[6] == self.record["pid"]:
                return span
        return None


def run_cell(src: str, directory: str, args: list[str], trace: bool, timeout: float) -> Cell:
    os.makedirs(directory)
    cmd = [
        sys.executable, CELL,
        "--src", src,
        "--record", os.path.join(directory, "record.json"),
        "--spans", directory,
        "--trace", "1" if trace else "0",
        "--",
        *args,
        "--out", os.path.join(directory, "cell"),
    ]
    with open(os.path.join(directory, "stdout.txt"), "w") as out, open(
        os.path.join(directory, "stderr.txt"), "w"
    ) as err:
        started = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, start_new_session=True)
        cell = Cell(directory, started, args, trace)
        try:
            proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            cell.problem = f"cell killed after {timeout:.0f} s"
        finally:
            # the cell's session holds its pool workers too
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    cell.load()
    return cell


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def read_rows(path: str) -> tuple[str, list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read()
    rows = list(csv.reader(io.StringIO(text)))
    return text, rows


def _number(text: str) -> float | None:
    return None if text == "" else float(text)


def check_rows(rows: list[list[str]], methods: tuple[str, ...], estimand: str,
               replicates: int) -> tuple[set[int], list[str]]:
    """Structural check of a replicate CSV; returns bad replicates and notes."""
    bad: set[int] = set()
    notes: list[str] = []
    if not rows or ",".join(rows[0]) != REPLICATE_HEADER:
        return set(range(replicates)), ["replicate CSV header differs"]
    body = rows[1:]
    expected = [(str(r), m) for r in range(replicates) for m in methods]
    if [(row[0], row[1]) for row in body if len(row) >= 2] != expected:
        notes.append(
            f"expected {len(expected)} rows (replicate x method), got {len(body)}"
        )
        bad |= set(range(replicates))
    for row in body:
        try:
            int(row[0])  # the replicate index must parse
            _, _, est, point, se, lo, hi, failed, reason = row
            if est != estimand:
                raise ValueError(f"estimand {est!r}")
            if failed == "true":
                if reason not in FAILURE_TAGS or any((point, se, lo, hi)):
                    raise ValueError(f"bad failed row ({reason!r})")
            elif failed == "false":
                values = [_number(point), _number(se), _number(lo), _number(hi)]
                if values[0] is None or reason:
                    raise ValueError("successful row without a point")
                if not all(math.isfinite(v) for v in values if v is not None):
                    raise ValueError("non-finite number")
                if (values[2] is None) != (values[3] is None):
                    raise ValueError("half an interval")
                if values[2] is not None and values[2] > values[3]:
                    raise ValueError("interval not ordered")
                if values[1] is not None and values[1] < 0:
                    raise ValueError("negative standard error")
            else:
                raise ValueError(f"failed flag {failed!r}")
        except (ValueError, IndexError) as exc:
            notes.append(f"row {row}: {exc}")
            try:
                bad.add(int(row[0]))
            except (ValueError, IndexError):
                bad |= set(range(replicates))
    return bad, notes


def compare_with_reference(rows: list[list[str]], reference: list[list[str]]):
    """Points, SEs and failure tags within POINT_TOLERANCE of the reference.

    Returns (bad replicates, notes, max |point diff|, max |CI endpoint diff|);
    interval drift is reported, not counted as an error.
    """
    bad: set[int] = set()
    notes: list[str] = []
    point_diff = ci_diff = 0.0
    got = {(row[0], row[1]): row for row in rows[1:] if len(row) == 9}
    for ref in reference[1:]:
        row = got.get((ref[0], ref[1]))
        if row is None or row[2] != ref[2] or row[7:] != ref[7:]:
            bad.add(int(ref[0]))
            notes.append(f"reference mismatch {ref[:2]}: {row} vs {ref}")
            continue
        for i in (3, 4, 5, 6):
            a, b = _number(row[i]), _number(ref[i])
            if (a is None) != (b is None):
                bad.add(int(ref[0]))
                notes.append(f"reference mismatch {ref[:2]} column {i}")
                continue
            if a is None:
                continue
            diff = abs(a - b)
            if i in (3, 4):
                point_diff = max(point_diff, diff)
                if diff > POINT_TOLERANCE:
                    bad.add(int(ref[0]))
                    notes.append(f"reference {ref[:2]} column {i} off by {diff:.3g}")
            else:
                ci_diff = max(ci_diff, diff)
    return bad, notes, point_diff, ci_diff


def prefix(rows: list[list[str]], replicates: int) -> list[list[str]]:
    return rows[:1] + [r for r in rows[1:] if r and r[0].isdigit() and int(r[0]) < replicates]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """Highest sample with at least ten samples beyond it, and its percentile.

    Below 21 samples that sample would lie under the median, so the upper
    median is taken instead.
    """
    if not values:
        return None, None
    ordered = sorted(values)
    rank = max(len(ordered) - 11, len(ordered) // 2)
    return ordered[rank], 100.0 * rank / max(len(ordered) - 1, 1)


def cell_timings(cell: Cell) -> dict | None:
    if cell.problem or cell.record is None:
        return None
    study = cell.study()
    if study is None:
        return None
    attrs = study[7] or {}
    replicates = attrs.get("replicates") or 0
    phase_s = (study[3] - study[2]) / 1e9
    durations = [
        (s[3] - s[2]) / 1e6 for s in cell.spans if s[1] == "simulation.run_replicate"
    ]
    return {
        "replicates": replicates,
        "workers": attrs.get("workers", 1),
        "setup_s": (study[2] - cell.started_ns) / 1e9,
        "replicates_per_s": replicates / phase_s if phase_s > 0 else None,
        "cell_wall_s": (cell.record["main_return_ns"] - cell.started_ns) / 1e9,
        "core_s_per_replicate": attrs.get("cpu_s", 0.0) / replicates if replicates else None,
        "peak_rss_mb": cell.record["peak_rss_kb"] / 1024.0,
        "replicate_ms": durations,
        "import_ms": cell.record["import_ns"] / 1e6,
        "write_ms": (cell.record["main_return_ns"] - study[3]) / 1e6,
    }


def layer_metrics(cell: Cell, timings: dict, rows: list[list[str]]) -> dict:
    """Per-layer numbers from one traced cell: name -> (value, unit)."""
    study = cell.study()
    replicates = timings["replicates"]
    in_phase = [s for s in cell.spans if study[2] <= s[2] and s[3] <= study[3]]
    child_ns: dict[int, int] = {}
    for s in cell.spans:
        if s[4] is not None:
            child_ns[s[4]] = child_ns.get(s[4], 0) + s[3] - s[2]

    def spans(name, phase=True):
        return [s for s in (in_phase if phase else cell.spans) if s[1] == name]

    def busy_ms(name):
        return sum(s[3] - s[2] for s in spans(name)) / 1e6 / replicates

    def calls(name):
        return len(spans(name)) / replicates

    def us_per_call(name):
        found = spans(name)
        return sum(s[3] - s[2] for s in found) / 1e3 / len(found) if found else 0.0

    def share(items, key):
        return sum(1 for a in items if a.get(key)) / len(items) if items else 0.0

    out: dict[str, tuple[float, str]] = {}
    per_rep, ms_rep = "calls/replicate", "ms/replicate"

    fits = spans("glm.fit_logistic")
    ok = [s[7] for s in fits if s[7] and "raised" not in s[7]]
    out["glm.fit_logistic.calls"] = (calls("glm.fit_logistic"), per_rep)
    out["glm.fit_logistic.busy_ms"] = (busy_ms("glm.fit_logistic"), ms_rep)
    out["glm.fit_logistic.us_per_call"] = (us_per_call("glm.fit_logistic"), "us")
    out["glm.fit_logistic.iterations_mean"] = (
        statistics.fmean(a["iterations"] for a in ok) if ok else 0.0, "iterations")
    out["glm.fit_logistic.plateau_share"] = (share(ok, "plateau"), "share")
    out["glm.fit_logistic.separated_share"] = (share(ok, "separated"), "share")
    out["glm.fit_logistic.raised"] = ((len(fits) - len(ok)) / replicates, per_rep)
    out["glm.fit_ols.busy_ms"] = (busy_ms("glm.fit_ols"), ms_rep)
    out["glm.hc3_covariance.busy_ms"] = (busy_ms("glm.hc3_covariance"), ms_rep)

    out["propensity.estimate_ps.calls"] = (calls("propensity.estimate_ps"), per_rep)
    out["propensity.estimate_ps.busy_ms"] = (busy_ms("propensity.estimate_ps"), ms_rep)
    out["propensity.ps_quintile_dummies.busy_ms"] = (
        busy_ms("propensity.ps_quintile_dummies"), ms_rep)
    matches = [s[7] for s in spans("propensity.match_caliper") if s[7] and "pairs" in s[7]]
    treated = sum(a["treated"] for a in matches)
    out["propensity.match_caliper.busy_ms"] = (busy_ms("propensity.match_caliper"), ms_rep)
    out["propensity.match_caliper.us_per_call"] = (
        us_per_call("propensity.match_caliper"), "us")
    out["propensity.match_caliper.pairs_per_treated"] = (
        sum(a["pairs"] for a in matches) / treated if treated else 0.0, "share")

    boots = spans("bootstrap.bootstrap_percentile_ci")
    resamples = sum((s[7] or {}).get("resamples", 0) for s in boots)
    dropped = sum((s[7] or {}).get("dropped", 0) for s in boots)
    out["bootstrap.bootstrap_percentile_ci.calls"] = (
        calls("bootstrap.bootstrap_percentile_ci"), per_rep)
    out["bootstrap.bootstrap_percentile_ci.busy_ms"] = (
        busy_ms("bootstrap.bootstrap_percentile_ci"), ms_rep)
    out["bootstrap.bootstrap_percentile_ci.self_ms"] = (
        sum(s[3] - s[2] - child_ns.get(s[0], 0) for s in boots) / 1e6 / replicates, ms_rep)
    out["bootstrap.resamples"] = (resamples / replicates, "1/replicate")
    out["bootstrap.resamples_dropped"] = (dropped / replicates, "1/replicate")
    out["bootstrap.kept_ratio"] = (1.0 - dropped / resamples if resamples else 0.0, "share")

    method_ns = {m: 0 for m in dict.fromkeys(RD_METHODS + OR_METHODS)}
    for s in in_phase:
        method = (s[7] or {}).get("method") if s[1].startswith("estimators.") else None
        if method in method_ns:
            method_ns[method] += s[3] - s[2]
    for method, ns in method_ns.items():
        out[f"estimators.{method}.busy_ms"] = (ns / 1e6 / replicates, ms_rep)
    out["estimators.shared_inputs.busy_ms"] = (busy_ms("estimators.shared_inputs"), ms_rep)
    reasons = [row[8] for row in rows[1:] if len(row) == 9 and row[7] == "true"]
    for tag in FAILURE_TAGS:
        out[f"estimators.failures.{tag}"] = (float(reasons.count(tag)), "count")

    out["data.Dataset.constructions"] = (calls("data.Dataset"), per_rep)
    out["data.Dataset.busy_ms"] = (busy_ms("data.Dataset"), ms_rep)

    for name in ("simulation.calibrate_beta_trt", "simulation.true_marginal_effect"):
        found = spans(name, phase=False)
        out[f"{name}.calls"] = (float(len(found)), "calls")
        out[f"{name}.busy_ms"] = (sum(s[3] - s[2] for s in found) / 1e6, "ms")
    out["simulation.generate.busy_ms"] = (busy_ms("simulation.generate"), ms_rep)
    wall_ns = study[3] - study[2]
    replicate_ns = sum(s[3] - s[2] for s in spans("simulation.run_replicate"))
    out["simulation.run_study.wall_ms"] = (wall_ns / 1e6, "ms")
    out["simulation.run_study.parallel_efficiency"] = (
        replicate_ns / (timings["workers"] * wall_ns), "share")
    out["simulation.run_replicate.busy_ms"] = (busy_ms("simulation.run_replicate"), ms_rep)
    out["simulation.summarize.busy_ms"] = (busy_ms("simulation.summarize"), ms_rep)
    out["cli.import_ms"] = (timings["import_ms"], "ms")
    out["cli.write_ms"] = (timings["write_ms"], "ms")
    out["streams.derive_substream.calls"] = (calls("streams.derive_substream"), per_rep)
    out["trace.spans"] = (float(len(cell.spans)), "count")
    return out


# ---------------------------------------------------------------------------
# environment and reference
# ---------------------------------------------------------------------------


def environment(root: str) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        **{name: os.environ.get(name) for name in BLAS_ENV},
    }


def reference_paths(name: str) -> tuple[str, str]:
    base = os.path.join(REFERENCE_DIR, name)
    return base + ".csv", base + ".json"


def load_reference(name: str):
    csv_path, json_path = reference_paths(name)
    try:
        with open(json_path, encoding="utf-8") as fh:
            meta = json.load(fh)
        _, rows = read_rows(csv_path)
    except OSError:
        return None, None
    return meta, rows


def write_reference(name: str, cell: Cell, rows: list[list[str]]) -> None:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    csv_path, json_path = reference_paths(name)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "seed": DEFAULT_SEED,
                "replicates": len({row[0] for row in rows[1:]}),
                "beta_trt": cell.meta()["beta_trt"],
                "true_effect": cell.meta()["true_effect"],
                "args": cell.args,
            },
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


class Run:
    """One benchmark run of one workload: its cells and its check tally."""

    def __init__(self, root: str, name: str, seed: int, trace: bool):
        self.src = os.path.join(root, "src")
        self.name = name
        self.workload = WORKLOADS[name]
        self.estimand = self.workload["args"]["--estimand"]
        self.methods = RD_METHODS if self.estimand == "rd" else OR_METHODS
        self.seed = seed
        self.dir = os.path.join(root, ".perfbench_runs", f"{name}-seed{seed}-trace{int(trace)}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, replicates: int, note: str) -> None:
        self.failed += replicates
        self.notes.append(f"{self.name}: {note}")

    def cell(self, tag: str, seed: int, replicates: int, trace: bool = False,
             **overrides) -> tuple[Cell, str | None, list[list[str]] | None]:
        """Run and check one cell; returns it with its CSV text and rows."""
        cell = run_cell(
            self.src, os.path.join(self.dir, tag),
            cli_args(self.workload, seed, replicates, **overrides), trace,
            RUN_LIMIT_S - (time.monotonic() - self.started),
        )
        self.attempted += replicates
        if cell.problem:
            self.fail(replicates, f"{tag} (seed {seed}): {cell.problem}")
            return cell, None, None
        text, rows = read_rows(cell.csv_path)
        bad, notes = check_rows(rows, self.methods, self.estimand, replicates)
        for note in notes:
            self.fail(0, f"{tag}: {note}")
        self.failed += len(bad)
        return cell, text, rows

    def check_config(self, true_effect: float) -> str:
        """Config file that skips the truth oracle; outputs do not use it."""
        path = os.path.join(self.dir, "check_config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"true_effect": true_effect}, fh)
        return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite perfbench/reference/ at the default seed")
    opts = parser.parse_args(argv)
    if opts.seed < 0:
        parser.error("--seed must be nonnegative")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "smallcausal", "cli.py")):
        print("error: src/smallcausal not found; run from the repository root",
              file=sys.stderr)
        return 2

    name = opts.workload
    if opts.record_reference:
        run = Run(root, name, DEFAULT_SEED, False)
        cell, _, rows = run.cell("cell0", DEFAULT_SEED, run.workload["replicates"])
        if rows is None or run.failed:
            print("error: reference cell failed: " + "; ".join(run.notes), file=sys.stderr)
            return 1
        write_reference(name, cell, rows)
        print(f"wrote reference for {name} at seed {DEFAULT_SEED}")
        return 0

    run = Run(root, name, opts.seed, bool(opts.trace))
    workload = run.workload
    replicates = workload["replicates"]

    # measured cells: at least workload["cells"], until --seconds of cell time
    cells: list[tuple[Cell, list[list[str]] | None]] = []
    measured_s = 0.0
    while len(cells) < workload["cells"] or (
        measured_s < opts.seconds
        and time.monotonic() - run.started + measured_s / len(cells) < RUN_BUDGET_S
    ):
        k = len(cells)
        cell, text, rows = run.cell(
            f"cell{k}", opts.seed + k * SEED_STRIDE, replicates,
            trace=bool(opts.trace) and k % 2 == 1,
        )
        measured_s += (time.monotonic_ns() - cell.started_ns) / 1e9
        cells.append((cell, rows))
        if k == 0:
            first_text = text

    ref_meta, ref_rows = load_reference(name)
    if ref_meta is None:
        run.attempted += 1
        run.fail(1, f"no reference in {REFERENCE_DIR}")
        return report(run, cells, [], None, None, opts.trace)
    config = run.check_config(ref_meta["true_effect"])
    check_cells = []

    # a repeat of cell 0's first replicates in one process must give the same bytes
    cell0 = cells[0][0]
    if first_text is not None:
        k = workload["rerun"]
        rerun, text, _ = run.cell(
            "rerun", opts.seed, k, **{
                "--target-effect": None,
                "--beta-trt": repr(cell0.meta()["beta_trt"]),
                "--workers": "1",
                "--config": config,
            },
        )
        check_cells.append(rerun)
        if text is not None:
            lines = text.splitlines()
            expected = first_text.splitlines()[: len(lines)]
            if lines != expected or len(lines) != 1 + k * len(run.methods):
                run.fail(k, "repeated replicates are not byte-identical to cell0")
        target = workload.get("target_effect")
        truth = cell0.meta().get("true_effect")
        if target is not None and truth is not None and abs(truth - target) > 0.005:
            run.fail(1, f"calibrated true effect {truth} is not near {target}")

    # points and failure tags at the default seed against the reference
    k = workload["probe"]
    probe, _, rows = run.cell(
        "probe", DEFAULT_SEED, k, **{
            "--target-effect": None,
            "--beta-trt": repr(ref_meta["beta_trt"]),
            "--workers": "1",
            "--config": config,
        },
    )
    check_cells.append(probe)
    compared = [(rows, k)] if rows is not None else []
    if opts.seed == DEFAULT_SEED and cells[0][1] is not None:
        compared.append((cells[0][1], replicates))
    diffs = []
    for got, count in compared:
        bad, notes, point_diff, ci_diff = compare_with_reference(got, prefix(ref_rows, count))
        for note in notes:
            run.fail(0, note)
        run.failed += len(bad)
        diffs.append((point_diff, ci_diff))
    point_diff = max((d[0] for d in diffs), default=None)
    ci_diff = max((d[1] for d in diffs), default=None)
    return report(run, cells, check_cells, point_diff, ci_diff, opts.trace)


def report(run: Run, cells, check_cells, point_diff, ci_diff, trace: int) -> int:
    """Print the human-readable report and, last, the JSON result line."""
    timings = [(cell, cell_timings(cell), rows) for cell, rows in cells]
    good = [t for cell, t, _ in timings if t is not None and not cell.trace]
    if not good:
        for note in run.notes:
            print(note, file=sys.stderr)
        print(f"error: no {run.name} cell completed", file=sys.stderr)
        return 1

    # replicate times: the first untraced cells and, at workers=1, the
    # replicates repeated by the check cells; a fixed count keeps the tail
    # percentile fixed
    pooled = [ms for t in good[: run.workload["cells"]] for ms in t["replicate_ms"]]
    if run.workload["args"]["--workers"] == "1":
        for cell in check_cells:
            t = cell_timings(cell)
            pooled += t["replicate_ms"] if t else []
    tail_ms, tail_pct = tail(pooled)
    estimates = [r for _, rows in cells for r in (rows or [])[1:] if len(r) == 9]
    failure_share = (
        sum(1 for r in estimates if r[7] == "true") / len(estimates) if estimates else 1.0
    )
    attempted = max(run.attempted, 1)
    failed = min(run.failed, attempted)
    error_share = failed / attempted
    end_to_end = {
        "replicates_per_s": _median(t["replicates_per_s"] for t in good),
        "cell_wall_s": _median(t["cell_wall_s"] for t in good),
        "setup_s": _median(t["setup_s"] for t in good),
        "replicate_ms_p50": statistics.median(pooled) if pooled else None,
        "replicate_ms_tail": tail_ms,
        "core_s_per_replicate": _median(t["core_s_per_replicate"] for t in good),
        "peak_rss_mb": _median(t["peak_rss_mb"] for t in good),
        "estimate_success_share": 1.0 - failure_share,
        "error_free_share": 1.0 - error_share,
    }

    root = os.path.dirname(os.path.dirname(run.dir))
    env = dict(environment(root), **(cells[0][0].record or {}).get("environment", {}))
    print(f"workload {run.name} seed {run.seed}: {len(cells)} measured cells of "
          f"{run.workload['replicates']} replicates")
    print("environment " + json.dumps(env, sort_keys=True))
    for note in run.notes:
        print("CHECK FAILED " + note)
    tail_label = "n/a" if tail_pct is None else f"p{tail_pct:.1f}"
    print(f"replicate_ms_tail is {tail_label} of {len(pooled)} replicate timings; "
          f"estimate_failure_share {failure_share:.6g}; error_share {error_share:.6g}; "
          f"reference point diff {point_diff}; ci_max_abs_diff {ci_diff}")

    if trace:
        traced = [(c, t, rows) for c, t, rows in timings if c.trace and t and rows]
        if not traced:
            print(f"error: no traced {run.name} cell completed", file=sys.stderr)
            return 1
        per_cell = [layer_metrics(c, t, rows) for c, t, rows in traced]
        metrics = {
            key: (statistics.median(m[key][0] for m in per_cell), unit)
            for key, (_, unit) in per_cell[0].items()
        }
        untraced_rps = end_to_end["replicates_per_s"]
        traced_rps = _median(t["replicates_per_s"] for _, t, _ in traced)
        metrics["trace.overhead_replicates_per_s"] = (untraced_rps - traced_rps, "1/s")
        metrics["trace.overhead_share"] = ((untraced_rps - traced_rps) / untraced_rps, "share")
        metrics["check.point_max_abs_diff"] = (point_diff or 0.0, "abs")
        metrics["check.ci_max_abs_diff"] = (ci_diff or 0.0, "abs")
        metrics["estimate_failure_share"] = (failure_share, "share")
        metrics["error_share"] = (error_share, "share")
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end.items()}

    missing = [k for k, (v, _) in metrics.items() if v is None]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for key, (value, unit) in metrics.items():
        print(f"  {key:48s} {value:.6g} {unit}")
    with open(os.path.join(run.dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": run.name, "seed": run.seed, "environment": env,
                   "notes": run.notes, "tail_percentile": tail_pct,
                   "tail_samples": len(pooled), "metrics": metrics}, fh, indent=2)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
