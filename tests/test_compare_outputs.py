import importlib.util
import shutil
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)

SUMMARY = (
    "suite,check,status,value,tolerance,direction,seed\n"
    "skorokhod,benchmark_k_error,pass,{value},0.02,le,1\n"
    "feynman_kac,mc_fd_gap,{status},0.0078,0.05,le,1\n"
)


def write_run(root: Path, value="1.69e-14", status="pass", extra=None) -> Path:
    root.mkdir()
    (root / "summary.csv").write_text(SUMMARY.format(value=value, status=status))
    (root / "fk_report.csv").write_text("key,value\nmode,deterministic (g = 0)\ny0_gap,0.00782051\n")
    if extra:
        (root / extra).write_text("a,b\n1,2\n")
    return root


@pytest.mark.parametrize(
    "change, code",
    [
        ({}, 0),
        ({"value": "3.07e-14"}, 0),  # round-off inside atol
        ({"value": "0.5"}, 1),  # numeric cell beyond atol
        ({"status": "fail"}, 1),  # status must match exactly
        ({"extra": "u_grid.csv"}, 1),  # a file only one run wrote
    ],
)
def test_exit_code(tmp_path, capsys, change, code):
    a = write_run(tmp_path / "a")
    b = write_run(tmp_path / "b", **change)
    assert compare_outputs.main([str(a), str(b), "--atol", "1e-9"]) == code
    out = capsys.readouterr().out
    assert "summary.csv: max |diff|" in out


def test_reports_largest_deviation(tmp_path, capsys):
    a = write_run(tmp_path / "a")
    b = write_run(tmp_path / "b", value="3.07e-14")
    compare_outputs.main([str(a), str(b)])
    assert "summary.csv: max |diff| 1.38e-14" in capsys.readouterr().out


def test_quick_suite_matches_committed_summary(tmp_path, capsys):
    """`levylab suite` on the shipped quick config reproduces the committed summary."""
    from levylab.cli import main

    root = SCRIPT.parents[1]
    reference = tmp_path / "reference"
    reference.mkdir()
    shutil.copy(root / "tests" / "data" / "quick_suite_summary.csv", reference / "summary.csv")
    run = tmp_path / "run"
    assert main(["suite", "--config", str(root / "configs" / "quick_suite.cfg"), "--out", str(run)]) == 0
    assert compare_outputs.main([str(reference), str(run), "--atol", "1e-9"]) == 0, capsys.readouterr().out


def test_quick_crosscheck_matches_committed_fk_report(tmp_path):
    """`levylab crosscheck` on the shipped quick config reproduces the committed
    agreement report: its gaps, z rows and mode row."""
    from levylab.cli import main

    root = SCRIPT.parents[1]
    run = tmp_path / "run"
    assert main(["crosscheck", "--config", str(root / "configs" / "quick_suite.cfg"), "--out", str(run)]) == 0
    reference = root / "tests" / "data" / "quick_crosscheck_fk_report.csv"
    _, problems = compare_outputs.compare_file(reference, run / "fk_report.csv", atol=1e-9)
    assert not problems, problems


def test_quick_trajectories_match_committed_file(tmp_path):
    """`levylab solve --trajectories` on the shipped quick config reproduces
    the committed Y, K and Z of its first 64 paths.  They print 12
    significant digits, so the bound is 1e-12: a value that moves by one
    ulp can flip the last digit."""
    from levylab.cli import main

    root = SCRIPT.parents[1]
    run = tmp_path / "run"
    config = str(root / "configs" / "quick_suite.cfg")
    assert main(["solve", "--config", config, "--trajectories", "--out", str(run)]) == 0
    reference = root / "tests" / "data" / "quick_trajectories.csv"
    _, problems = compare_outputs.compare_file(reference, run / "trajectories.csv", atol=1e-12)
    assert not problems, problems


def test_example51_basis_matches_committed_file(tmp_path):
    """`levylab basis` on the shipped example config reproduces the committed
    basis.csv byte for byte: its rank header and every jump weight."""
    from levylab.cli import main

    root = SCRIPT.parents[1]
    run = tmp_path / "run"
    assert main(["basis", "--config", str(root / "configs" / "example51.cfg"), "--out", str(run)]) == 0
    reference = root / "tests" / "data" / "example51_basis.csv"
    assert (run / "basis.csv").read_bytes() == reference.read_bytes()
