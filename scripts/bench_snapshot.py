"""Record a benchmark snapshot of a levylab checkout as ``BENCH_<label>.json``.

Usage::

    python scripts/bench_snapshot.py --label LABEL [--checkout DIR] [--seed 1]
                                     [--seconds 50] [--tiny]

Runs ``perfbench/run.py --trace 0`` of the checkout (default: the current
directory) once for every workload its ``BENCHMARK.json`` lists, with the
checkout as working directory, and writes ``BENCH_<label>.json`` to the
current directory.  The file holds each workload's result (the JSON last
line of its run), the host facts of the ``host`` line, the checkout's
``git rev-parse HEAD``, the summed line count of its ``src/levylab/*.py``,
the number of its config keys and the command that was run.  Exits with 1 when a run fails or prints no
result.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path


def _run(cmd: list[str], cwd: Path) -> str:
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def _host(stdout: str) -> dict:
    """The ``key=value`` facts of the ``host`` line; a value may hold spaces."""
    line = next(line for line in stdout.splitlines() if line.startswith("host "))
    return dict(re.findall(r"(\w+)=(.*?)(?= \w+=|$)", line[len("host "):]))


def src_lines(checkout: Path) -> int:
    """The summed line count of the checkout's ``src/levylab/*.py``, as
    ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "levylab").glob("*.py"))


def config_keys(checkout: Path) -> int:
    """The length of the checkout's ``levylab.config._KEYS``, read in a
    child process that imports levylab from the checkout's ``src/``."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); from levylab import config; print(len(config._KEYS))"
    return int(_run([sys.executable, "-c", code, str(checkout / "src")], checkout))


def snapshot(checkout: Path, seed: int, seconds: int, tiny: bool) -> dict:
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if tiny:
        args.append("--tiny")
    workloads, host = {}, None
    for workload in (w["name"] for w in spec["workloads"]):
        stdout = _run(
            [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload, *args],
            checkout,
        )
        workloads[workload] = json.loads(stdout.strip().splitlines()[-1])
        host = host or _host(stdout)
    return {
        "commit": _run(["git", "rev-parse", "HEAD"], checkout).strip(),
        "src_lines": src_lines(checkout),
        "config_keys": config_keys(checkout),
        "command": " ".join(["python3", "perfbench/run.py", "--workload", "<name>", *args]),
        "host": host,
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--checkout", default=".", help="levylab checkout to measure")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes of perfbench")
    args = parser.parse_args(argv)
    try:
        result = snapshot(Path(args.checkout).resolve(), args.seed, args.seconds, args.tiny)
    except (OSError, ValueError, KeyError, StopIteration, RuntimeError) as exc:
        print(f"bench_snapshot: {exc!r}", file=sys.stderr)
        return 1
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps({"label": args.label, **result}, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
