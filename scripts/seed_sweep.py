"""Run one gated levylab command over seeds 1..N and tally each gate's failures.

Usage::

    python scripts/seed_sweep.py --seeds N [--checkout DIR] -- COMMAND ARGS...

COMMAND is a levylab subcommand that writes ``summary.csv`` (``suite`` or
``verify``) with its arguments, for example
``suite --config configs/quick_suite.cfg``.  Each seed runs in this process
with ``--seed s --out <temporary dir>/seed_s`` appended, importing levylab
from ``DIR/src`` (default: this repository), so two checkouts can be swept
with identical settings.  The script prints, for every gate, the number of
failing seeds and each failing seed's value, then the share of seeds with
any failure.  It exits with 0 when every seed passed every gate, 1 when
some gate failed at some seed, and 2 when a run wrote no summary.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import sys
import tempfile
from pathlib import Path


def sweep(cli_main, command: list[str], n_seeds: int, root: Path) -> dict[str, list[tuple[int, str]]]:
    """``{suite/check: [(seed, value), ...]}`` over seeds 1..n_seeds; the
    list holds the seeds at which the gate failed, so a passing gate maps
    to an empty list."""
    failures: dict[str, list[tuple[int, str]]] = {}
    for seed in range(1, n_seeds + 1):
        out = root / f"seed_{seed}"
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main([*command, "--seed", str(seed), "--out", str(out)])
        summary = out / "summary.csv"
        if not summary.exists():
            raise RuntimeError(f"seed {seed}: {' '.join(command)} wrote no summary.csv")
        with summary.open(newline="", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                failed = failures.setdefault(f"{row['suite']}/{row['check']}", [])
                if row["status"] != "pass":
                    failed.append((seed, row["value"]))
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, required=True, help="sweep seeds 1..SEEDS")
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("command", nargs=argparse.REMAINDER, help="levylab subcommand and arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if args.seeds < 1 or not command:
        parser.error("need --seeds >= 1 and a levylab command after --")

    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    from levylab.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        try:
            failures = sweep(cli_main, command, args.seeds, Path(tmp))
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2
    failed_seeds = {seed for runs in failures.values() for seed, _ in runs}
    for gate, runs in failures.items():
        detail = " ".join(f"{seed}:{value}" for seed, value in runs)
        print(f"{gate}: {len(runs)}/{args.seeds} failed" + (f" [{detail}]" if runs else ""))
    print(f"seeds with any failure: {len(failed_seeds)}/{args.seeds}"
          + (f" {sorted(failed_seeds)}" if failed_seeds else ""))
    return 1 if failed_seeds else 0


if __name__ == "__main__":
    sys.exit(main())
