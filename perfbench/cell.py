"""One `smallcausal simulate` cell in a fresh interpreter, timed from outside.

Usage (run.py starts this; it is not meant to be run by hand):

    python3 perfbench/cell.py --src SRC --record OUT.json --spans DIR \
        --trace 0|1 -- simulate --scenario ... --out PREFIX

It imports ``smallcausal.cli``, wraps layer functions by rebinding their names
in every ``smallcausal`` module namespace that holds them, calls
``smallcausal.cli.main`` with the given arguments and writes a JSON record:
monotonic timestamps, CPU and peak memory, the environment, and a crash
description when an exception escapes ``main``.  No code under ``src/`` is
changed; everything is measured from outside.

Untraced (``--trace 0``) wraps only ``simulation.run_study`` and
``simulation.run_replicate``: the replicate phase and the time of each
replicate.  Traced (``--trace 1``) wraps every public function of the layer
modules plus ``data.Dataset`` construction.  Spans are kept in memory as
(id, name, start, end, parent, request, pid, attrs) with the replicate index as the
request id, and written as JSON lines at the end; a forked pool worker writes
its spans after each replicate it finishes.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import resource
import sys
import time
import traceback
import types

LAYER_MODULES = (
    "glm",
    "propensity",
    "bootstrap",
    "estimators",
    "data",
    "simulation",
    "streams",
    "cli",
)
UNTRACED_LAYERS = {"simulation.run_study", "simulation.run_replicate"}


def _cpu_s() -> float:
    """User+sys CPU of this process and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Tracer:
    """In-memory span recorder; each process keeps its own buffer."""

    def __init__(self, spans_dir: str):
        self.spans_dir = spans_dir
        self.main_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.ids = itertools.count(1)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request: int | None = None
        self.last_request: int | None = None

    def flush(self) -> None:
        if not self.spans:
            return
        path = os.path.join(self.spans_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
        self.spans.clear()

    def wrap(self, name, fn, probe=None, before=None, on_raise=None):
        """Span around ``fn``.

        ``before(args, kwargs)`` may replace the arguments; ``probe(args,
        kwargs, result)`` and ``on_raise(args, kwargs)`` return span attrs.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            sid = tracer.pid * 1_000_000_000 + next(tracer.ids)
            tracer.stack.append(sid)
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if tracer.request is not None and not hasattr(exc, "perfbench_replicate"):
                    exc.perfbench_replicate = tracer.request  # pickled back from workers
                end = time.monotonic_ns()
                attrs = {"raised": type(exc).__name__}
                if on_raise is not None:
                    attrs.update(on_raise(args, kwargs))
                tracer._close(sid, name, start, parent, attrs, end)
                raise
            end = time.monotonic_ns()
            attrs = probe(args, kwargs, result) if probe is not None else None
            tracer._close(sid, name, start, parent, attrs, end)
            return result

        return traced

    def _close(self, sid, name, start, parent, attrs, end) -> None:
        self.stack.pop()
        self.spans.append([sid, name, start, end, parent, self.request, self.pid, attrs])
        if name == "simulation.run_replicate":
            self.request = None
        if parent is None and self.pid != self.main_pid:
            self.flush()  # a pool worker may be ended without notice


def _arg(args, kwargs, position, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


def _install(tracer: Tracer, package, traced: bool) -> None:
    """Rebind each layer function in every package module that holds it."""
    import numpy as np

    modules = {
        name: sys.modules[f"{package.__name__}.{name}"]
        for name in LAYER_MODULES
        if f"{package.__name__}.{name}" in sys.modules
    }
    errors = sys.modules[f"{package.__name__}.errors"]
    max_iter_default = getattr(modules["glm"], "IRLS_MAX_ITER", 25)
    replicate_counter = itertools.count()
    study_cpu_at_entry = [0.0]

    def fit_logistic_probe(args, kwargs, fit):
        max_iter = _arg(args, kwargs, 3, "max_iter", max_iter_default)
        return {
            "iterations": fit.iterations,
            "plateau": fit.iterations >= max_iter,
            "separated": bool(fit.separation_flag),
        }

    def match_probe(args, kwargs, matched):
        treatment = np.asarray(_arg(args, kwargs, 1, "treatment"))
        return {"pairs": matched.n_pairs, "treated": int((treatment == 1).sum())}

    def effect_probe(args, kwargs, result):
        method = getattr(result, "method", None)
        return {"method": method} if isinstance(method, str) else None

    def bootstrap_before(args, kwargs):
        estimator = _arg(args, kwargs, 1, "estimator")
        counts = {"resamples": 0, "dropped": 0}

        def counted(data):
            counts["resamples"] += 1
            try:
                return estimator(data)
            except errors.EstimationError:
                counts["dropped"] += 1
                raise

        counted.counts = counts
        if "estimator" in kwargs:
            kwargs = dict(kwargs, estimator=counted)
        else:
            args = args[:1] + (counted,) + args[2:]
        return args, kwargs

    def bootstrap_counts(args, kwargs, result=None):
        return dict(_arg(args, kwargs, 1, "estimator").counts)

    def replicate_before(args, kwargs):
        index = _arg(args, kwargs, 5, "replicate_index")
        if not isinstance(index, int):
            index = next(replicate_counter)
        tracer.request = tracer.last_request = index
        return args, kwargs

    def study_before(args, kwargs):
        study_cpu_at_entry[0] = _cpu_s()
        return args, kwargs

    def study_probe(args, kwargs, result):
        return {
            "cpu_s": _cpu_s() - study_cpu_at_entry[0],
            "workers": _arg(args, kwargs, 7, "workers", 1),
            "replicates": _arg(args, kwargs, 3, "n_replicates"),
        }

    special = {
        "glm.fit_logistic": {"probe": fit_logistic_probe},
        "propensity.match_caliper": {"probe": match_probe},
        "bootstrap.bootstrap_percentile_ci": {
            "before": bootstrap_before,
            "probe": bootstrap_counts,
            "on_raise": bootstrap_counts,
        },
        "simulation.run_replicate": {"before": replicate_before},
        "simulation.run_study": {"before": study_before, "probe": study_probe},
    }

    wrappers = {}
    for short, module in modules.items():
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            if value.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            if not traced and name not in UNTRACED_LAYERS:
                continue
            hooks = special.get(name, {})
            if short == "estimators" and "probe" not in hooks:
                hooks = {"probe": effect_probe}
            wrappers[value] = tracer.wrap(name, value, **hooks)
    if traced and hasattr(modules.get("data"), "Dataset"):
        dataset = modules["data"].Dataset
        if hasattr(dataset, "__post_init__"):
            dataset.__post_init__ = tracer.wrap("data.Dataset", dataset.__post_init__)

    for module in [package, *modules.values()]:
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(module, attr, wrappers[value])


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        dep = config["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except Exception:  # numpy without the dict config mode
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    record: dict = {"script_start_ns": time.monotonic_ns(), "pid": os.getpid()}
    sys.path.insert(0, os.path.abspath(opts.src))
    import_start = time.monotonic_ns()
    import smallcausal
    import smallcausal.cli

    record["import_ns"] = time.monotonic_ns() - import_start
    os.makedirs(opts.spans, exist_ok=True)
    tracer = Tracer(opts.spans)
    _install(tracer, smallcausal, bool(opts.trace))

    record["crash"] = None
    try:
        record["exit_code"] = smallcausal.cli.main(cli_args)
    except Exception as exc:  # one crashed cell must not lose the benchmark run
        record["exit_code"] = None
        record["crash"] = {
            "type": type(exc).__name__,
            "message": str(exc),
            "replicate": getattr(exc, "perfbench_replicate", tracer.last_request),
            "traceback": traceback.format_exc(),
        }
    record["main_return_ns"] = time.monotonic_ns()
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    child_usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    record["peak_rss_kb"] = max(self_usage.ru_maxrss, child_usage.ru_maxrss)
    tracer.flush()
    record["environment"] = _environment()
    with open(opts.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0 if record["crash"] is None and record["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
