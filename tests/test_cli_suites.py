import csv
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from levylab import paths, solver
from levylab.cli import _grid_csv, main
from levylab.config import DEFAULTS, SUITE_NAMES, parse_config
from levylab.errors import LevyLabError
from levylab.suites import DIRECTIONS, GATES, SuiteReport, passes, run_suite, suite_checks

warnings.filterwarnings("ignore", message="rank-deficient regression design")

SMALL = """
[levy]
atoms = 0.3:2.0, -0.2:1.0

[grid]
horizon = 1.0
n_steps = 40

[problem]
name = example51

[solver]
n_paths = 1500
seed = 31415
outer_b_samples = 3

[fd]
n_space = 80
n_time = 80

[suite]
checks = all
"""


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL)
    return path


def test_run_suite_orthonormality_only():
    cfg = parse_config("[levy]\natoms = 1.0:1.0\n[solver]\nn_paths = 5000\nseed = 3\n"
                       "[grid]\nn_steps = 20\n[suite]\nchecks = orthonormality\n")
    report = run_suite(cfg)
    assert {r.suite for r in report.rows} == {"orthonormality"}
    assert report.passed
    # one row group per selected suite, each check name unique
    names = [(r.suite, r.check) for r in report.rows]
    assert len(names) == len(set(names))


def test_run_suite_full_small(small_config):
    report = run_suite(parse_config(small_config.read_text()))
    suites = {r.suite for r in report.rows}
    assert suites == {
        "orthonormality",
        "skorokhod",
        "penalization",
        "comparison",
        "uniqueness",
        "feynman_kac",
    }
    failing = [r for r in report.rows if r.status != "pass"]
    assert not failing, f"failing checks: {failing}"


@pytest.fixture(scope="module")
def recorded_suite():
    """A full small run_suite, and the checks each table measurement returned,
    keyed by (suite, position in the suite's list)."""
    returned = {}

    def recording(key, measure):
        def measure_and_record(cfg):
            measured = measure(cfg)
            returned[key] = sorted(measured)
            return measured

        return measure_and_record

    table = {
        name: tuple((recording((name, i), measure), gates) for i, (measure, gates) in enumerate(entries))
        for name, entries in GATES.items()
    }
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("levylab.suites.GATES", table)
        report = run_suite(parse_config(SMALL))
    return report, returned


def test_summary_rows_follow_the_gate_table(recorded_suite):
    report, _ = recorded_suite
    declared = [
        (name, check, tolerance, direction)
        for name, entries in GATES.items()
        for _, gates in entries
        for check, tolerance, direction in gates
    ]
    rows = list(csv.DictReader(report.to_summary_csv().splitlines()))
    assert [(r["suite"], r["check"], float(r["tolerance"]), r["direction"]) for r in rows] == declared
    # the config accepts exactly the table's suites, in its order
    assert tuple(GATES) == SUITE_NAMES


def test_every_measured_number_is_gated(recorded_suite):
    # each measurement returns exactly the checks its gates read
    _, returned = recorded_suite
    assert returned == {
        (name, i): sorted(check for check, _, _ in gates)
        for name, entries in GATES.items()
        for i, (_, gates) in enumerate(entries)
    }


def test_table_measures_look_the_helpers_up_when_called():
    # a measure stored as a module-level helper would keep a binding that a
    # tracer rebinding the helper's module attribute cannot reach
    for entries in GATES.values():
        for measure, _ in entries:
            assert measure.__name__ == "<lambda>" or measure.__name__.startswith("_")


@pytest.mark.parametrize("direction, status", [("le", "pass"), ("ge", "pass"), ("lt", "fail"), ("gt", "fail")])
def test_a_value_at_its_tolerance(direction, status, monkeypatch):
    probe = {"probe": ((lambda cfg: {"x": 0.25}, (("x", 0.25, direction),)),)}
    monkeypatch.setattr("levylab.suites.GATES", probe)
    (row,) = suite_checks("probe", DEFAULTS)
    assert row.status == status
    assert passes(0.25, 0.25, direction) == (status == "pass")
    assert f"probe/x: 0.25 {DIRECTIONS[direction][0]} 0.25 " in SuiteReport([row]).to_text()


def test_comparison_suite_requires_pure_jump():
    cfg = parse_config("[levy]\natoms = 1.0:1.0\nsigma = 0.5\n[suite]\nchecks = comparison\n")
    with pytest.raises(LevyLabError):
        run_suite(cfg)


def test_summary_csv_is_reproducible(small_config, tmp_path):
    cfg = parse_config(small_config.read_text())
    texts = []
    for _ in range(2):
        report = run_suite(cfg)
        texts.append(report.to_summary_csv())
    assert texts[0] == texts[1]
    assert "runtime" not in texts[0].splitlines()[0]


class TestCli:
    def test_basis_writes_csv(self, small_config, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["basis", "--config", str(small_config), "--out", str(out)])
        assert rc == 0
        text = (out / "basis.csv").read_text()
        lines = text.splitlines()
        assert lines[1] == "i,atom,beta,p_i"
        assert lines[0] == "# rank=2"
        assert len(lines) == 2 + 2 * 2  # one row per (component, atom)

    def test_simulate_writes_path_files(self, small_config, tmp_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--config", str(small_config), "--out", str(out), "--paths", "5"])
        assert rc == 0
        for name in ("paths.csv", "jumps.csv", "teugels.csv"):
            assert (out / name).exists()
        header = (out / "paths.csv").read_text().splitlines()[0]
        assert header == "path,node,t,B,L,X,eta_abs,A"

    def test_simulate_and_trajectories_derive_each_array_once(self, small_config, tmp_path, monkeypatch):
        # L (sigma = 0 here), dH and the solution's arrays are derived on
        # every read, so the writers bind L and dH once rather than once per
        # cell, and the trajectories evaluate only their printed paths
        calls = Counter()

        def counting(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        counting(paths, "teugels_increments")
        derived_L = paths.PathEnsemble.L

        def counted_L(ens):
            calls["L"] += 1
            return derived_L.fget(ens)

        monkeypatch.setattr(paths.PathEnsemble, "L", property(counted_L))
        on_paths = solver.EnsembleSolution.on_paths

        def counted_on_paths(sol, name, rows=slice(None)):
            calls["whole " + name if rows == slice(None) else "on_paths"] += 1
            return on_paths(sol, name, rows)

        monkeypatch.setattr(solver.EnsembleSolution, "on_paths", counted_on_paths)
        assert main(["simulate", "--config", str(small_config), "--out", str(tmp_path / "sim"),
                     "--paths", "5"]) == 0
        assert calls == {"teugels_increments": 1, "L": 1}
        assert main(["solve", "--config", str(small_config), "--out", str(tmp_path / "traj"),
                     "--trajectories", "--paths", "500"]) == 0
        # Y, Z and K at the 64 printed paths, and no whole-solution array
        assert calls == {"teugels_increments": 1, "L": 1, "on_paths": 3}

    def test_solve_summary(self, small_config, tmp_path, capsys):
        out = tmp_path / "solve"
        rc = main(["solve", "--config", str(small_config), "--out", str(out)])
        assert rc == 0
        lines = (out / "solve_summary.csv").read_text().splitlines()
        assert lines[0] == "penalization,y0_mean,y0_se,k_t_mean,skorokhod_residual,penetration_norm"
        assert lines[1].startswith("projection,")

    def test_solve_trajectories_flag(self, small_config, tmp_path):
        out = tmp_path / "traj"
        rc = main(["solve", "--config", str(small_config), "--out", str(out),
                   "--trajectories", "--paths", "500"])
        assert rc == 0
        lines = (out / "trajectories.csv").read_text().splitlines()
        assert lines[0].startswith("path,node,t,Y,K,Z1")
        assert len(lines) > 41  # at least one full path of 41 nodes

    def test_bad_problem_param_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[problem]\nname = example51\nparam.bogus = 1\n")
        rc = main(["basis", "--config", str(bad)])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["linear", "example51"])
    def test_strongly_decreasing_phi_is_accepted(self, tmp_path, name):
        # phi = -1e5 * y is nonincreasing; a sampled bound used to reject it by rounding
        cfg = tmp_path / "steep.cfg"
        cfg.write_text(f"[problem]\nname = {name}\nparam.phy = -1e5\n")
        assert main(["basis", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_solve_schedule_rows(self, small_config, tmp_path):
        out = tmp_path / "sched"
        rc = main(["solve", "--config", str(small_config), "--out", str(out), "--schedule",
                   "--paths", "800"])
        assert rc == 0
        lines = (out / "solve_summary.csv").read_text().splitlines()
        assert len(lines) == 5  # header + the four schedule entries
        assert lines[1].split(",")[0] == "4"

    def test_verify_runs_orthonormality(self, small_config, tmp_path):
        out = tmp_path / "verify"
        rc = main(["verify", "--config", str(small_config), "--out", str(out)])
        assert rc == 0
        text = (out / "summary.csv").read_text()
        assert "orthonormality,gram_defect,pass" in text

    def test_verify_passes_on_a_twelve_atom_driver(self, tmp_path):
        # the Gram-Schmidt basis read a Gram defect of 7.3e-10 here, failing
        # its < 1e-10 gate while both empirical gates passed
        atoms = ", ".join(f"{b!r}:0.5" for b in np.linspace(-1.5, 2.5, 12).tolist())
        cfg = tmp_path / "twelve.cfg"
        cfg.write_text(f"[levy]\natoms = {atoms}\n[grid]\nn_steps = 16\n"
                       "[solver]\nn_paths = 20000\nseed = 1\n")
        out = tmp_path / "verify"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        with (out / "summary.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [(r["check"], r["status"]) for r in rows] == [
            ("gram_defect", "pass"), ("product_moment_stddevs", "pass"), ("mean_stddevs", "pass"),
        ]
        assert float(rows[0]["value"]) <= 1e-15

    def test_crosscheck_writes_reports(self, small_config, tmp_path, capsys):
        out = tmp_path / "cross"
        rc = main(["crosscheck", "--config", str(small_config), "--out", str(out)])
        assert rc == 0
        assert (out / "u_grid.csv").exists()
        fk = (out / "fk_report.csv").read_text()
        assert "y0_gap" in fk
        assert "deterministic" in fk  # mode note in the report header rows

    def test_crosscheck_prints_interpolated_grid_value(self, tmp_path, capsys):
        # with n_space = 81 the node nearest x0 = 0 sits 1/81 away
        cfg = tmp_path / "odd.cfg"
        cfg.write_text(SMALL.replace("n_space = 80", "n_space = 81"))
        out = tmp_path / "cross"
        assert main(["crosscheck", "--config", str(cfg), "--out", str(out)]) == 0
        lines = [line.partition(" = ") for line in capsys.readouterr().out.splitlines()]
        printed = {key.strip(): float(value) for key, sep, value in lines if sep}
        with (out / "u_grid.csv").open(newline="") as handle:
            first = [r for r in csv.DictReader(handle) if float(r["t"]) == 0.0]
        xs = [float(r["x"]) for r in first]
        us = [float(r["u"]) for r in first]
        assert printed["u(0, x0) (grid)"] == pytest.approx(np.interp(0.0, xs, us), abs=1e-6)
        gap = abs(printed["y0 (monte carlo)"] - printed["u(0, x0) (grid)"])
        assert gap == pytest.approx(printed["|gap|"], abs=1e-5)

    @pytest.mark.parametrize("param", ["gy", "g0"])
    def test_crosscheck_rejects_a_nonzero_g(self, tmp_path, capsys, param):
        # g = 0.5 y vanishes at y = 0 only, so a probe of g at u = 0 passed
        # it and the grid, which has no g dB term, was compared with a Monte
        # Carlo solution that has one (|gap| = 0.367 at this size)
        cfg = tmp_path / "g.cfg"
        cfg.write_text(
            "[levy]\natoms = 0.3:2.0, -0.2:1.0\n[grid]\nn_steps = 50\n"
            f"[problem]\nname = linear\nparam.{param} = 0.5\n"
            "[solver]\nn_paths = 2000\nseed = 7\n[fd]\nn_space = 50\nn_time = 100\n"
        )
        assert main(["crosscheck", "--config", str(cfg), "--out", str(tmp_path / "cross")]) == 1
        assert "requires g to vanish" in capsys.readouterr().err

    def test_suite_exit_code_and_outputs(self, small_config, tmp_path):
        out = tmp_path / "suite"
        rc = main(["suite", "--config", str(small_config), "--out", str(out)])
        assert rc == 0
        assert (out / "summary.csv").exists()
        assert (out / "report.txt").exists()

    def test_unknown_coefficient_is_an_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[problem]\nname = examle51\n")
        rc = main(["basis", "--config", str(bad)])
        assert rc == 1
        assert "examle51" in capsys.readouterr().err

    def test_config_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[grid]\nn_steps = 0\n")
        rc = main(["basis", "--config", str(bad)])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        rc = main(["basis", "--config", "does/not/exist.cfg"])
        assert rc == 1

    def test_config_that_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["verify", "--config", str(tmp_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    def test_out_that_is_a_file(self, small_config, tmp_path, capsys):
        out = tmp_path / "taken.cfg"
        out.write_text("kept\n")
        rc = main(["basis", "--config", str(small_config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert out.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["small.cfg", "taken.cfg"]


def test_nonfinite_penalization_override_is_an_error_exit(small_config, tmp_path, capsys):
    for value in ("inf", "1e400"):
        out = tmp_path / value
        rc = main(["solve", "--config", str(small_config), "--out", str(out), "--penalization", value])
        assert rc == 1
        assert "penalization must be finite" in capsys.readouterr().err
        assert not (out / "solve_summary.csv").exists()


def test_verify_without_sample_spread_is_an_error_exit(tmp_path, capsys):
    # no path jumps, so every H_1(T) is the same number and its standard
    # error is 0: a typed error naming the component, not a ZeroDivisionError
    config = tmp_path / "rare.cfg"
    config.write_text("[levy]\natoms = 0.3:0.0001\n[grid]\nn_steps = 8\n[solver]\nn_paths = 50\n")
    out = tmp_path / "rare"
    rc = main(["verify", "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: H_1(T) has zero sample spread") and "more paths" in err
    assert "Traceback" not in err
    assert not (out / "summary.csv").exists()


@pytest.mark.parametrize("command", ["verify", "suite"])
def test_rank_zero_driver_is_an_error_exit(command, tmp_path, capsys):
    # no atoms and sigma = 0: the basis is empty, so there is nothing to
    # measure, and the orthonormality gates must not pass on zeros
    config = tmp_path / "empty.cfg"
    config.write_text("[levy]\natoms = none\ndrift_b = 0.4\nsigma = 0.0\n[grid]\nn_steps = 8\n"
                      "[solver]\nn_paths = 50\n[suite]\nchecks = orthonormality\n")
    out = tmp_path / "empty"
    rc = main([command, "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: the driver has no jump atoms and sigma = 0")
    assert not (out / "summary.csv").exists()


def check_jumps_rebuild_the_driver(tmp_path, atoms, n_steps, most_per_step):
    config = tmp_path / "sim.cfg"
    config.write_text(
        f"[levy]\natoms = {atoms}\ndrift_b = 0.4\n[grid]\nn_steps = {n_steps}\n"
        "[solver]\nn_paths = 6\nseed = 5\n"
    )
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    with (out / "paths.csv").open(newline="") as handle:
        nodes = list(csv.DictReader(handle))
    with (out / "jumps.csv").open(newline="") as handle:
        jumps = [(int(r["path"]), int(r["step"]), float(r["jump_size"])) for r in csv.DictReader(handle)]
    assert max(Counter(jumps).values()) >= most_per_step  # repeated jumps of one size in a step
    assert jumps == sorted(jumps, key=lambda row: row[:2])
    for row in nodes:
        p, k = int(row["path"]), int(row["node"])
        rebuilt = 0.4 * float(row["t"]) + sum(size for q, step, size in jumps if q == p and step < k)
        assert abs(rebuilt - float(row["L"])) <= 1e-12


def test_simulate_jumps_rebuild_the_driver(tmp_path):
    check_jumps_rebuild_the_driver(tmp_path, "0.3:6.0, -0.2:3.0", n_steps=5, most_per_step=2)


def test_simulate_jumps_rebuild_a_driver_with_wide_counts(tmp_path):
    # more than 255 jumps of one size in a step: the counts are held wider
    # than uint8, and jumps.csv writes every one of them
    check_jumps_rebuild_the_driver(tmp_path, "0.3:6.0, -0.001:1200.0", n_steps=2, most_per_step=256)


def test_suites_sweep_the_configured_problem_on_the_local_time_clock(monkeypatch):
    """Every sweep of every suite runs on the local-time clock, and the
    sweeps of the configured problem solve its params."""
    from levylab import suites

    seen = []
    solve = suites.solve_penalized

    def recording(problem, ens, penalization=None):
        seen.append((problem, ens))
        return solve(problem, ens, penalization)

    monkeypatch.setattr(suites, "solve_penalized", recording)
    cfg = parse_config(
        "[grid]\nn_steps = 10\n[problem]\nparam.h_scale = 1.0\n"
        "[solver]\nn_paths = 240\nseed = 3\n"
        "[fd]\nn_space = 20\nn_time = 20\n"
    )
    configured = cfg.build_problem().params
    assert dict(configured)["h_scale"] == 1.0
    for name in ("skorokhod", "penalization", "comparison", "uniqueness", "feynman_kac"):
        seen.clear()
        suites.suite_checks(name, cfg)
        # the clock is the reflection's local time: it grows only on a wall
        assert all(np.all(np.abs(ens.X[ens.clock.paths, ens.clock.steps + 1]) == ens.theta)
                   for _, ens in seen), name
        own = [(problem, ens) for problem, ens in seen if problem.name == cfg.problem_name]
        if name in ("penalization", "uniqueness", "feynman_kac"):
            assert own, name
            for problem, ens in own:
                assert problem.params == configured, name
        if name == "feynman_kac":
            # the grid oracle's phi dA source integrates against this clock
            (problem, ens), = own
            assert np.any(ens.A[:, -1] > 0.0)


def grid_csv_reference(t, x, u):
    """``u_grid.csv`` as an f-string per cell, joined."""
    lines = ["t,x,u"]
    xs = [f"{value:.12g}" for value in x.tolist()]
    for t_value, row in zip(t.tolist(), u.tolist()):
        t_text = f"{t_value:.12g}"
        lines.extend(f"{t_text},{x_text},{value:.12g}" for x_text, value in zip(xs, row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("dtype", [float, np.int64])
def test_grid_csv_matches_the_per_cell_f_strings(dtype):
    t = np.array([0.0, 0.1 + 0.2, 1.0])
    x = np.array([-1.0, -0.0, 1e-05, 1.0])
    u = np.array([
        [-0.0, 1e-05, 1e16, 0.1 + 0.2],
        [3.0, -7.0, 123456789012345.0, 2.5e-300],
        [0.0, -1e-05, -1e16, 1.0 / 3.0],
    ])
    if dtype is np.int64:
        u = np.array([[0, -3, 10**15, 7], [1, 2, 3, 4], [-10**16, 5, 6, 0]], dtype=np.int64)
    text = _grid_csv(t, x, u)
    assert text == grid_csv_reference(t, x, u)
    assert text.count("\n") == 1 + u.size


def test_shipped_configs_parse():
    root = Path(__file__).resolve().parents[1] / "configs"
    for name in ("example51.cfg", "quick_suite.cfg", "orthonormality.cfg"):
        cfg = parse_config((root / name).read_text())
        assert cfg.grid.n_steps >= 1


NO_SCIPY = """
import sys
import levylab, levylab.cli, levylab.config
config, out = sys.argv[1:]
for argv in (["verify", "--paths", "2000", "--steps", "16"], ["basis"], ["simulate", "--paths", "4"]):
    assert levylab.cli.main([*argv, "--config", config, "--out", out]) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_verify_basis_and_simulate_never_import_scipy(tmp_path):
    # scipy serves only the sweep's Cholesky solve and the oracle's banded
    # solve; importing it costs more than a whole verify run
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(root / "configs" / "orthonormality.cfg"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
