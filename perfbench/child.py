"""One workload in its own process, started by ``run.py``.

``child.py setup`` times the set-up alone (import levylab, load and
override the config) and exits; ``run.py`` starts several of these.
``child.py run`` sets up, runs one traced warm-up iteration (it lets
lazy set-up and allocator caches settle and yields the work counts), then
runs a closed loop of iterations, one at a time, until the next one would
end after ``--seconds``.  With ``--trace 1`` the timed iterations alternate
untraced and traced, so the tracing overhead is measured in the same
process.  Results go to ``<mode>.json`` (and ``spans.jsonl``) in ``--out``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import ROOT, Tracer, layer_times  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

SELF_TIMES = {
    "config.load_config_s": "config.load_config",
    "paths.simulate_jump_counts_s": "paths.simulate_jump_counts",
    "paths.assemble_levy_paths_s": "paths.assemble_levy_paths",
    "paths.simulate_reflected_x_s": "paths.simulate_reflected_x",
    "teugels.teugels_increments_s": "teugels.teugels_increments",
    "teugels.basis_for_s": "teugels.basis_for",
    "solver.regression_design_s": "solver.regression_design",
    "solver.lstsq_s": "solver.lstsq",
    "pdie.solve_banded_s": "pdie.solve_banded",
    "pdie.component_functionals_s": "pdie.component_functionals",
    # the remainder of the FD sweep: mostly the Python boundary bisection
    "pdie.boundary_root_s": "pdie.solve_obstacle_pidie",
    "pdie.complementarity_defect_s": "pdie.complementarity_defect",
    "pdie.representation_check_s": "pdie.representation_check",
    "suites.crosscheck_run_s": "suites.crosscheck_run",
    "suites.run_suite_s": "suites.run_suite",
    "suites.measure_orthonormality_s": "suites.measure_orthonormality",
    "suites.penalization_family_s": "suites.penalization_family",
    "suites.comparison_pair_s": "suites.comparison_pair",
    "suites.solve_outer_samples_s": "suites.solve_outer_samples",
    "suites.run_benchmark_solution_s": "suites.run_benchmark_solution",
    "cli.self_s": "cli.main",
}
TOTAL_TIMES = {
    "paths.simulate_ensemble_s": "paths.simulate_ensemble",
    "solver.solve_penalized_s": "solver.solve_penalized",
    "pdie.solve_obstacle_pidie_s": "pdie.solve_obstacle_pidie",
}
COUNTS = (
    "paths.calls",
    "paths.path_steps",
    "paths.ensemble_bytes",
    "solver.sweeps",
    "solver.sweep_steps",
    "solver.lstsq_calls",
    "solver.solution_bytes",
    "pdie.grid_cells",
)
# Per-iteration numbers that must repeat exactly for a fixed seed.
EXACT = COUNTS + (
    "solver.rank_reductions",
    "suites.checks_attempted",
    "suites.checks_failed",
    "cli.bytes_written",
    "work.mc_path_steps",
)


def openblas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def host_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": openblas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def layer_metrics(spans, counts, warning_count: int, outcome: Outcome) -> dict:
    """Per-layer numbers of one traced iteration (times in seconds)."""
    self_s, total_s = layer_times(spans)
    metrics = {name: self_s.get(span, 0.0) for name, span in SELF_TIMES.items()}
    metrics.update({name: total_s.get(span, 0.0) for name, span in TOTAL_TIMES.items()})
    metrics.update({name: counts.get(name, 0) for name in COUNTS})
    lstsq_calls = counts.get("solver.lstsq_calls", 0)
    metrics["solver.rank_reductions"] = warning_count
    # regressions per lstsq attempt; 1 when nothing was attempted (no waste)
    metrics["solver.lstsq_useful_ratio"] = (
        counts.get("solver.regressions", 0) / lstsq_calls if lstsq_calls else 1.0
    )
    metrics["suites.checks_attempted"] = outcome.checks_attempted
    metrics["suites.checks_failed"] = outcome.checks_failed
    metrics["cli.bytes_written"] = outcome.bytes_written
    root = total_s.get(ROOT, 0.0)
    metrics["trace.unattributed_share"] = self_s.get(ROOT, 0.0) / root if root else 0.0
    metrics["work.mc_path_steps"] = counts.get("paths.path_steps", 0) + counts.get(
        "solver.swept_path_steps", 0
    )
    return metrics


class Loop:
    """Closed loop over one workload: one client, next call after the last."""

    def __init__(self, workload, state, trace: bool):
        self.workload = workload
        self.state = state
        self.trace = trace
        self.tracer = Tracer()
        self.records: list[dict] = []

    def iterate(self, kind: str) -> dict:
        index = len(self.records)
        traced = kind in ("warmup", "traced")
        record = {"index": index, "kind": kind, "wall_s": None}
        warning_count = 0
        raw = None
        try:
            self.workload.reset(self.state)
            if traced:
                self.tracer.run_id = index
                self.tracer.counts.clear()
                self.tracer.install()
                try:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        start = time.perf_counter()
                        raw = self.tracer.span(ROOT, self.workload.call, (self.state,), {})
                        record["wall_s"] = time.perf_counter() - start
                    warning_count = sum(
                        w.category.__name__ == "SingularRegressionWarning" for w in caught
                    )
                finally:
                    self.tracer.uninstall()
            else:
                start = time.perf_counter()
                raw = self.workload.call(self.state)
                record["wall_s"] = time.perf_counter() - start
            outcome = self.workload.check(self.state, raw)
        except Exception as exc:  # an iteration that raises is a failed attempt
            traceback.print_exc()
            outcome = Outcome(failures=[f"{type(exc).__name__}: {exc}"])
            record["wall_s"] = None
        if self.records and outcome.digests != self.records[0]["digests"]:
            outcome.failures.append("outputs differ from the first iteration with the same seed")
        record.update(
            failures=outcome.failures,
            digests=outcome.digests,
            values=outcome.values,
        )
        if traced and record["wall_s"] is not None:
            record["layers"] = layer_metrics(
                self.tracer.run_spans(index), self.tracer.counts, warning_count, outcome
            )
            first = next((r for r in self.records if "layers" in r), None)
            if first is not None and any(
                first["layers"][k] != record["layers"][k] for k in EXACT
            ):
                record["failures"].append("work counts differ from the first traced iteration")
        self.records.append(record)
        return record

    def run(self, seconds: float) -> None:
        self.iterate("warmup")
        begin = time.perf_counter()
        while True:
            timed = [r for r in self.records[1:] if r["wall_s"] is not None]
            kinds = {r["kind"] for r in self.records[1:]}
            kind = "traced" if self.trace and len(self.records) % 2 == 0 else "plain"
            need = {"plain", "traced"} if self.trace else {"plain"}
            if need <= kinds:
                typical = statistics.median(r["wall_s"] for r in timed) if timed else 0.0
                if time.perf_counter() - begin + typical > seconds:
                    break
            self.iterate(kind)


def _median_layers(records) -> dict:
    """Median times and ratios; exact counts from the first record."""
    layers = dict(records[0]["layers"])
    for name in layers.keys() - set(EXACT):
        layers[name] = statistics.median(r["layers"][name] for r in records)
    return layers


def summarize(loop: Loop) -> dict:
    records = loop.records
    timed = [r for r in records[1:] if r["wall_s"] is not None]
    plain = [r["wall_s"] for r in timed if r["kind"] == "plain"]
    warm = records[0].get("layers", {})
    result = {
        "iterations": records,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["failures"]),
        "plain_walls": plain,
        "work": {
            "mc_path_steps": warm.get("work.mc_path_steps", 0),
            "fd_cells": warm.get("pdie.grid_cells", 0),
        },
    }
    traced = [r for r in timed if r["kind"] == "traced" and "layers" in r]
    if traced:
        layers = _median_layers(traced)
        traced_walls = [r["wall_s"] for r in traced]
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain)
        result["traced_walls"] = traced_walls
        result["per_layer"] = layers
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    start = time.perf_counter()
    state = workload.setup(root, args.seed, args.tiny, out)
    setup_s = time.perf_counter() - start
    source = Path(sys.modules["levylab"].__file__).resolve()
    if (root / "src") not in source.parents:
        print(f"levylab was imported from {source}, not from {root / 'src'}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if args.mode == "run":
        loop = Loop(workload, state, trace=bool(args.trace))
        loop.run(args.seconds)
        result.update(summarize(loop))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["host"] = host_facts()
        if args.trace:
            with open(out / "spans.jsonl", "w", encoding="utf-8") as handle:
                for span_id, name, begin, end, parent, run_id in loop.tracer.spans:
                    handle.write(json.dumps({"id": span_id, "name": name, "start": begin,
                                             "end": end, "parent": parent, "run": run_id}) + "\n")
    (out / f"{args.mode}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
