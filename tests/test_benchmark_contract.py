"""The benchmark's tracer binds names of the program and reads attributes
of an ensemble and a solution.

``perfbench/tracer.py`` wraps every binding of a fixed list of functions
and counts the work of a traced iteration from the arrays it reads off
what ``simulate_ensemble`` and ``solve_penalized`` return.  A name or an
attribute that goes missing would fail only the benchmark's traced
warm-up; here it fails the test run.  The tracer module is read, compiled
and run in memory, so nothing under ``perfbench/`` is written.
"""

import dataclasses
import sys
import types
import warnings
from pathlib import Path

import levylab.cli  # noqa: F401  (loads every module the tracer binds)
from levylab.config import DEFAULTS
from levylab.errors import SingularRegressionWarning
from levylab.levy import LevySpec
from levylab.paths import TimeGrid
from levylab.solver import solve_penalized

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_counts_an_ensemble_and_its_sweep():
    n_paths, n_steps = 300, 20
    cfg = dataclasses.replace(
        DEFAULTS, levy=LevySpec(atoms=((0.3, 2.0), (-0.2, 1.0))), grid=TimeGrid(1.0, n_steps),
        n_paths=n_paths, seed=3,
    )
    ens = cfg.build_ensemble()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SingularRegressionWarning)
        sol = solve_penalized(cfg.build_problem(), ens)
    tracer = load_tracer().Tracer()
    tracer._on_ensemble(ens)
    tracer._on_sweep(sol)

    m = ens.basis.rank
    node_path = 8 * n_paths * (n_steps + 1)
    counts = n_paths * n_steps * ens.spec.m_atoms * ens.jump_counts.itemsize
    # B [node]; L, X, eta_abs and its view A [path, node]; the counts; dH
    assert tracer.counts["paths.ensemble_bytes"] == (
        8 * (n_steps + 1) + 4 * node_path + counts + 8 * n_paths * n_steps * m
    )
    assert tracer.counts["solver.sweeps"] == 1
    assert tracer.counts["solver.sweep_steps"] == n_steps
    assert tracer.counts["solver.swept_path_steps"] == n_paths * n_steps
    # Y, K, y_pre and S [path, node], Z [path, node, component], dK [path, step]
    assert tracer.counts["solver.solution_bytes"] == (
        4 * node_path + m * node_path + 8 * n_paths * n_steps
    )


def test_tracer_binds_every_pinned_name_and_restores_it():
    module = load_tracer()
    targets = module.SPAN_TARGETS + module.COUNT_TARGETS + module.FOREIGN_TARGETS
    pinned = {name for _, name, _ in targets}
    assert pinned <= sys.modules.keys()
    owners = pinned | {n for n in sys.modules if n == "levylab" or n.startswith("levylab.")}
    before = {name: dict(vars(sys.modules[name])) for name in owners}
    tracer = module.Tracer()
    try:
        tracer.install()
        for _, name, attr in targets:
            assert getattr(sys.modules[name], attr) is not before[name][attr], (name, attr)
    finally:
        tracer.uninstall()
    for name in owners:
        after = vars(sys.modules[name])
        changed = [key for key, value in before[name].items() if after.get(key) is not value]
        assert not changed, (name, changed)
