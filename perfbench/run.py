"""levylab benchmark: one workload, closed loop, one client.

Usage, from the root of a levylab checkout::

    python3 perfbench/run.py --workload crosscheck-example51 --seed 1 --seconds 50 --trace 0

The workload runs in its own child process (``child.py``) against the
checkout's ``src/``, with BLAS threads capped at the CPUs this process may
use.  Set-up is timed in several fresh processes and reported as a median.
Human-readable lines (host facts, named metrics that are not in the
machine-readable set, output digests) come first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.

Exit status is 0 when a result was printed, and 1 without a result when
the checkout is incomplete or a child process failed or timed out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402

OUT_DIR = ".perfbench_out"
# Seeds 1 to 120 were run while the benchmark was built; this one was not,
# and is kept for validating a claimed gain on unseen inputs.
HELD_OUT_SEED = 8675309
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = env.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            env[var] = str(nproc)
    return env


def run_child(mode: str, args, root: Path, out: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out)]
    if args.tiny:
        cmd.append("--tiny")
    log = out / f"{mode}.stderr"
    with open(log, "w", encoding="utf-8") as stderr:
        try:
            proc = subprocess.run(cmd, cwd=root, env=child_env(root), stdout=subprocess.DEVNULL,
                                  stderr=stderr, timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child '{mode}' exceeded the time limit") from exc
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"child '{mode}' exited with {proc.returncode}:\n{tail}")
    return json.loads((out / f"{mode}.json").read_text(encoding="utf-8"))


def wall_summary(walls: list[float]) -> str:
    """Sample count, plus the highest percentile with 10 samples beyond it."""
    n = len(walls)
    if n <= 20:
        return f"median of {n} iterations; upper percentile omitted (needs more than 20)"
    q = 1.0 - 10.0 / n
    return f"median of {n} iterations; p{100 * q:.0f} = {sorted(walls)[n - 11]:.6g} s"


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, dict, list[str]]:
    """Values of the end-to-end metrics, a note on each, and extra lines."""
    walls = result["plain_walls"]
    if not walls:
        raise BenchError("no iteration completed")
    wall = statistics.median(walls)
    work = result["work"]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "work_per_s": (work["mc_path_steps"] + work["fd_cells"]) / wall,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh-process set-ups: "
                   + ", ".join(f"{v:.4f}" for v in setups),
        "wall_s": wall_summary(walls),
        "work_per_s": "MC path-steps simulated and swept plus FD cells solved, per wall_s",
        "peak_rss_mb": "ru_maxrss of the workload's child process",
    }
    extra = []
    if work["mc_path_steps"]:
        extra.append(f"metric path_steps_per_s = {work['mc_path_steps'] / wall!r} 1/s "
                     f"({work['mc_path_steps']} MC path-steps per iteration)")
    if work["fd_cells"]:
        extra.append(f"metric fd_cells_per_s = {work['fd_cells'] / wall!r} 1/s "
                     f"({work['fd_cells']} FD cells per iteration)")
    return values, notes, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: 200 paths x 10 steps, FD 20x20")
    args = parser.parse_args(argv)

    root = Path.cwd()
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        if not (root / "src" / "levylab" / "__init__.py").is_file():
            raise BenchError("no levylab sources under src/ in the working directory")
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        out = root / OUT_DIR / args.workload
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        setups = [run_child("setup", args, root, out, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        result = run_child("run", args, root, out, deadline)
        setups.append(result["setup_s"])
    except (OSError, ValueError, KeyError, BenchError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    host = result["host"]
    print(f"perfbench workload={args.workload} seed={args.seed} held_out_seed={HELD_OUT_SEED} "
          f"seconds={args.seconds} trace={args.trace}{' tiny' if args.tiny else ''}")
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    failures = [(r["index"], f) for r in result["iterations"] for f in r["failures"]]
    for index, failure in failures:
        print(f"failure iteration={index}: {failure}")
    print(f"metric failed_ratio = {result['failed'] / result['attempted']!r} 1 "
          f"({result['failed']} of {result['attempted']} iterations, warm-up included)")
    first = result["iterations"][0]
    outputs = dict(first["values"])
    if args.workload == "crosscheck-example51" and "mc_fd_gap" in outputs:
        print(f"metric mc_fd_gap = {outputs.pop('mc_fd_gap')!r} 1 "
              f"(|Y0 - u(0, x0)| from fk_report.csv; gate <= 0.05)")
    for name, value in sorted(outputs.items()):
        print(f"value {name} = {value!r}")
    for name, digest in sorted(first["digests"].items()):
        print(f"sha256 {name} = {digest}")

    try:
        if args.trace:
            values = result.get("per_layer")
            if values is None:
                raise BenchError("no traced iteration completed")
            wanted = spec["per_layer"]
        else:
            values, notes, extra = end_to_end(result, setups)
            wanted = spec["end_to_end"]
            for m in wanted:
                print(f"metric {m['name']} = {values[m['name']]!r} {m['unit']} ({notes[m['name']]})")
            for line in extra:
                print(line)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    except (KeyError, BenchError) as exc:
        print(f"perfbench: missing result {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
