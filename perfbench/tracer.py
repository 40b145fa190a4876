"""Binding-aware span tracer for levylab, driven from outside the package.

levylab modules import each other with ``from .x import y``, so a function
such as ``simulate_ensemble`` is reachable through several module
attributes (``paths``, ``suites``, ``cli``, the package root).  Patching
only the defining module would miss every call made through another
binding.  :class:`Tracer` therefore replaces every binding of each target
in every loaded ``levylab`` module, audits that none is left, and restores
them all on :meth:`Tracer.uninstall`.

Spans are kept in memory as ``(span_id, name, start, end, parent, run_id)``
tuples and written out by the caller when the benchmark ends.  Counters are
updated by per-target hooks at the same boundaries, so work counts are
measured where the work happens.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute).  The span name's prefix is the layer.
SPAN_TARGETS = (
    ("config.load_config", "levylab.config", "load_config"),
    ("paths.simulate_ensemble", "levylab.paths", "simulate_ensemble"),
    ("paths.simulate_jump_counts", "levylab.paths", "simulate_jump_counts"),
    ("paths.assemble_levy_paths", "levylab.paths", "assemble_levy_paths"),
    ("paths.simulate_reflected_x", "levylab.paths", "simulate_reflected_x"),
    ("teugels.teugels_increments", "levylab.teugels", "teugels_increments"),
    ("teugels.basis_for", "levylab.teugels", "basis_for"),
    ("solver.solve_penalized", "levylab.solver", "solve_penalized"),
    ("solver.regression_design", "levylab.solver", "regression_design"),
    ("pdie.solve_obstacle_pidie", "levylab.pdie", "solve_obstacle_pidie"),
    ("pdie.component_functionals", "levylab.pdie", "component_functionals"),
    ("pdie.complementarity_defect", "levylab.pdie", "complementarity_defect"),
    ("pdie.representation_check", "levylab.pdie", "representation_check"),
    ("suites.crosscheck_run", "levylab.suites", "crosscheck_run"),
    ("suites.run_suite", "levylab.suites", "run_suite"),
    ("suites.measure_orthonormality", "levylab.suites", "measure_orthonormality"),
    ("suites.penalization_family", "levylab.suites", "penalization_family"),
    ("suites.comparison_pair", "levylab.suites", "comparison_pair"),
    ("suites.solve_outer_samples", "levylab.suites", "solve_outer_samples"),
    ("suites.run_benchmark_solution", "levylab.suites", "run_benchmark_solution"),
    ("cli.main", "levylab.cli", "main"),
)

# Foreign functions with a single levylab caller: patched at the one
# binding that caller looks up (solver calls ``np.linalg.lstsq``; pdie
# imported ``solve_banded`` from scipy into its own namespace).
FOREIGN_TARGETS = (
    ("solver.lstsq", "numpy.linalg", "lstsq"),
    ("pdie.solve_banded", "levylab.pdie", "solve_banded"),
)

# Counted but not spanned, so their self time stays with the caller.
COUNT_TARGETS = (("solver.regressions", "levylab.solver", "_regress"),)

ROOT = "bench.iteration"
PACKAGE = "levylab"


class TracerError(RuntimeError):
    """A target binding could not be found or was left unwrapped."""


def _nbytes(*arrays) -> int:
    return int(sum(a.nbytes for a in arrays))


class Tracer:
    """Installs span wrappers on every binding of the target functions."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._hooks = {
            "paths.simulate_ensemble": self._on_ensemble,
            "paths.simulate_jump_counts": self._on_jump_counts,
            "paths.assemble_levy_paths": self._on_component,
            "teugels.teugels_increments": self._on_component,
            "solver.solve_penalized": self._on_sweep,
            "solver.lstsq": lambda result: self.counts.update(["solver.lstsq_calls"]),
            "pdie.solve_obstacle_pidie": self._on_fd_solve,
        }

    # -- counters ---------------------------------------------------------

    def _on_ensemble(self, ens) -> None:
        self.counts["paths.ensemble_bytes"] += _nbytes(
            ens.B, ens.L, ens.jump_counts, ens.X, ens.eta_abs, ens.A, ens.dH
        )

    def _on_component(self, array) -> None:
        # Arrays built outside simulate_ensemble (the orthonormality
        # measurement assembles its own) still belong to an ensemble.
        if not self._active["paths.simulate_ensemble"]:
            self.counts["paths.ensemble_bytes"] += array.nbytes

    def _on_jump_counts(self, counts) -> None:
        self.counts["paths.calls"] += 1
        self.counts["paths.path_steps"] += counts.shape[0] * counts.shape[1]
        self._on_component(counts)

    def _on_sweep(self, sol) -> None:
        n_paths, n_steps = sol.dK.shape
        self.counts["solver.sweeps"] += 1
        self.counts["solver.sweep_steps"] += n_steps
        self.counts["solver.swept_path_steps"] += n_paths * n_steps
        self.counts["solver.solution_bytes"] += _nbytes(sol.Y, sol.Z, sol.K, sol.dK, sol.y_pre, sol.S)

    def _on_fd_solve(self, pgrid) -> None:
        n_time, n_nodes = pgrid.u.shape
        self.counts["pdie.grid_cells"] += (n_time - 1) * n_nodes

    # -- spans ------------------------------------------------------------

    def span(self, name: str, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        self._active[name] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._active[name] -= 1
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.run_id))
        hook = self._hooks.get(name)
        if hook is not None:
            hook(result)
        return result

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs)

        return traced

    def _count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -----------------------------------------------------

    @staticmethod
    def _package_modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def install(self) -> None:
        """Wrap every binding of every target; raise if one is missed.

        Targets in modules the workload never imported are skipped: nothing
        can call them, and importing them here would change the program.
        """
        if self._patched:
            raise TracerError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        modules = self._package_modules()
        originals = []
        for make, targets in ((self._span_wrapper, SPAN_TARGETS),
                              (self._count_wrapper, COUNT_TARGETS)):
            for name, module_name, attr in targets:
                if module_name not in sys.modules:
                    continue
                original = getattr(sys.modules[module_name], attr)
                wrapper = make(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
                originals.append(original)
        for name, module_name, attr in FOREIGN_TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            self._patch(module, attr, self._span_wrapper(name, getattr(module, attr)))
        self._audit(modules, originals)

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _audit(self, modules, originals) -> None:
        """No module global, nor a container held in one, keeps an original."""
        ids = {id(fn) for fn in originals}
        for module in modules:
            for key, value in vars(module).items():
                items = [value]
                if isinstance(value, dict):
                    items += list(value.values())
                elif isinstance(value, (list, tuple)):
                    items += list(value)
                if any(id(item) in ids for item in items):
                    raise TracerError(f"unwrapped binding {module.__name__}.{key}")

    def uninstall(self) -> None:
        """Restore every patched binding, last patched first."""
        while self._patched:
            owner, key, value = self._patched.pop()
            setattr(owner, key, value)

    # -- analysis ---------------------------------------------------------

    def run_spans(self, run_id: int):
        return [s for s in self.spans if s[5] == run_id]


def layer_times(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Self and total seconds per span name for the spans of one run.

    A span's self time is its duration minus the durations of its direct
    children, which nest strictly inside it because calls are synchronous.
    """
    child_time: defaultdict[int, float] = defaultdict(float)
    for span_id, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_s: defaultdict[str, float] = defaultdict(float)
    total_s: defaultdict[str, float] = defaultdict(float)
    for span_id, name, start, end, _, _ in spans:
        self_s[name] += (end - start) - child_time[span_id]
        total_s[name] += end - start
    return dict(self_s), dict(total_s)
