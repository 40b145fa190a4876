"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of a levylab checkout::

    python3 perfbench/smoke.py

For every workload in ``workloads.py`` it runs ``run.py --tiny`` (200
paths x 10 steps, FD 20x20) untraced and traced, and checks that the last
line names every metric with its unit and a finite value, that the
untraced run also prints each end-to-end metric as a readable line, and
that every traced span nests inside the root span of its iteration.  It
then checks that ``run.py`` fails without a result in a directory that
holds only the benchmark.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from run import OUT_DIR  # noqa: E402
from tracer import ROOT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SmokeFailure(AssertionError):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def run_bench(root: Path, workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return proc.stdout.strip().splitlines()


def check_result(lines: list[str], wanted: list[dict], label: str) -> None:
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(result)}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted")
    expect(isinstance(result["failed"], int), f"{label}: failed")
    metrics = result["metrics"]
    expect(set(metrics) == {m["name"] for m in wanted}, f"{label}: metric names {sorted(metrics)}")
    for m in wanted:
        entry = metrics[m["name"]]
        expect(entry["unit"] == m["unit"], f"{label}: unit of {m['name']}")
        value = entry["value"]
        expect(isinstance(value, (int, float)) and math.isfinite(value), f"{label}: {m['name']}")


def check_spans(path: Path, label: str) -> None:
    runs = defaultdict(list)
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            span = json.loads(line)
            runs[span["run"]].append(span)
    expect(bool(runs), f"{label}: no spans")
    for run_id, spans in runs.items():
        roots = [s for s in spans if s["parent"] is None]
        expect(len(roots) == 1 and roots[0]["name"] == ROOT, f"{label}: run {run_id} root spans")
        by_id = {s["id"]: s for s in spans}
        for span in spans:
            if span["parent"] is None:
                continue
            parent = by_id.get(span["parent"])
            expect(parent is not None, f"{label}: run {run_id} span {span['name']} lost its parent")
            expect(parent["start"] <= span["start"] <= span["end"] <= parent["end"],
                   f"{label}: run {run_id} span {span['name']} outside its parent")


def check_incomplete_checkout(root: Path, spec: dict) -> None:
    bare = root / OUT_DIR / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    for rel in spec["paths"]:
        shutil.copytree(root / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "bare benchmark directory: exit code 0")
    expect('"metrics"' not in proc.stdout, "bare benchmark directory: printed a result")


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        listed = {w["name"] for w in spec["workloads"]}
        expect(listed <= set(WORKLOADS), f"BENCHMARK.json lists unknown workloads {listed}")
        for workload in WORKLOADS:
            lines = run_bench(root, workload, 0)
            check_result(lines, spec["end_to_end"], f"{workload} trace=0")
            for m in spec["end_to_end"]:
                expect(any(line.startswith(f"metric {m['name']} = ") for line in lines),
                       f"{workload}: no readable line for {m['name']}")
            lines = run_bench(root, workload, 1)
            check_result(lines, spec["per_layer"], f"{workload} trace=1")
            check_spans(root / OUT_DIR / workload / "spans.jsonl", f"{workload} trace=1")
            print(f"ok {workload}")
        check_incomplete_checkout(root, spec)
        print("ok incomplete checkout fails without a result")
    except SmokeFailure as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
