"""The example scripts run end to end at a tiny size."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from levylab import config

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "argv",
    [
        ["run_penalization_study.py", "--paths", "200"],
    ],
)
def test_script_exits_zero(argv):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_penalization_study_refuses_a_schedule(monkeypatch, capsys):
    # the study runs the one schedule, suites.N_SCHEDULE
    monkeypatch.setattr(sys, "argv", ["run_penalization_study.py", "--schedule", "4,16"])
    with pytest.raises(SystemExit) as exit_:
        _load_script("run_penalization_study").main()
    assert exit_.value.code == 2
    assert "unrecognized arguments: --schedule" in capsys.readouterr().err


def test_bench_snapshot_records_every_listed_workload(tmp_path):
    # a checkout whose BENCHMARK.json lists one workload, so the snapshot
    # runs once at the smoke-test size
    root = SCRIPTS.parent
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    # perfbench checks that levylab is imported from the checkout's own src/
    shutil.copytree(root / "src", checkout / "src", ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("perfbench", "configs"):
        (checkout / name).symlink_to(root / name)
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec["workloads"] = [w for w in spec["workloads"] if w["name"] == "verify-orthonormality"]
    (checkout / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
    git = ["git", "-C", str(checkout), "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "snapshot"]):
        subprocess.run(git + args, check=True, capture_output=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], check=True, capture_output=True, text=True)

    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_snapshot.py"), "--label", "t", "--checkout",
         str(checkout), "--tiny", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    snap = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert snap.keys() == {"label", "commit", "src_lines", "config_keys", "command", "host", "workloads"}
    assert snap["label"] == "t"
    assert snap["commit"] == head.stdout.strip()
    wc = sum(len(path.read_text().splitlines()) for path in (checkout / "src" / "levylab").glob("*.py"))
    assert snap["src_lines"] == wc > 0
    assert snap["config_keys"] == len(config._KEYS) == 17
    assert "perfbench/run.py" in snap["command"] and "--tiny" in snap["command"]
    assert {"nproc", "python", "numpy"} <= snap["host"].keys()
    assert list(snap["workloads"]) == ["verify-orthonormality"]
    run = snap["workloads"]["verify-orthonormality"]
    assert run["correct"] is True and run["failed"] == 0
    assert set(run["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_bench_snapshot_parses_host_values_with_spaces():
    module = _load_script("bench_snapshot")
    stdout = "perfbench workload=w\nhost nproc=2 cpu=Intel(R) Xeon(R) Processor blas=x y=\n{}\n"
    assert module._host(stdout) == {
        "nproc": "2", "cpu": "Intel(R) Xeon(R) Processor", "blas": "x", "y": ""
    }


def test_seed_sweep_runs_each_seed_and_reports_every_gate():
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "seed_sweep.py"), "--seeds", "2", "--", "verify",
         "--config", str(SCRIPTS.parent / "configs" / "orthonormality.cfg"),
         "--paths", "300", "--steps", "8"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    *gates, last = result.stdout.splitlines()
    assert "orthonormality/product_moment_stddevs: 0/2 failed" in gates
    assert all(line.startswith("orthonormality/") and line.endswith(": 0/2 failed") for line in gates)
    assert last == "seeds with any failure: 0/2"


def test_seed_sweep_tallies_failures_by_gate(tmp_path):
    # a stand-in CLI whose second gate fails at seed 2 only
    def fake_main(argv):
        seed, out = argv[argv.index("--seed") + 1], Path(argv[argv.index("--out") + 1])
        out.mkdir()
        status = "fail" if seed == "2" else "pass"
        (out / "summary.csv").write_text(
            "suite,check,status,value\n"
            f"a,one,pass,0.1\nb,two,{status},{seed}.5\n"
        )
        return 0

    failures = _load_script("seed_sweep").sweep(fake_main, ["suite"], 3, tmp_path)
    assert failures == {"a/one": [], "b/two": [(2, "2.5")]}
