"""Compare the CSV outputs of two levylab runs cell by cell.

Usage::

    python scripts/compare_outputs.py DIR_A DIR_B [--atol 1e-9]

Every ``*.csv`` file in either directory must exist in both, with the same
header and the same number of rows.  A cell that parses as a number in
both files must agree within ``--atol``; every other cell (row keys such
as ``suite`` and ``check``, the ``status`` column, text values) must be
identical.  Comment lines starting with ``#`` must match exactly.  The
script prints the largest numeric deviation per file and exits with 1 on
any mismatch, 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    return comments, rows


def compare_file(a: Path, b: Path, atol: float) -> tuple[float, list[str]]:
    """Largest numeric deviation and the list of mismatches for one file."""
    comments_a, rows_a = _rows(a)
    comments_b, rows_b = _rows(b)
    problems: list[str] = []
    if comments_a != comments_b:
        problems.append("comment lines differ")
    if rows_a[:1] != rows_b[:1]:
        problems.append(f"headers differ: {rows_a[:1]} vs {rows_b[:1]}")
        return 0.0, problems
    if len(rows_a) != len(rows_b):
        problems.append(f"row counts differ: {len(rows_a)} vs {len(rows_b)}")
        return 0.0, problems
    header = rows_a[0] if rows_a else []
    worst = 0.0
    for line, (row_a, row_b) in enumerate(zip(rows_a[1:], rows_b[1:]), start=2):
        if len(row_a) != len(row_b):
            problems.append(f"line {line}: cell counts differ")
            continue
        for col, (cell_a, cell_b) in enumerate(zip(row_a, row_b)):
            name = header[col] if col < len(header) else str(col)
            x, y = _number(cell_a), _number(cell_b)
            if x is None or y is None or name == "status":
                if cell_a != cell_b:
                    problems.append(f"line {line}, {name}: {cell_a!r} vs {cell_b!r}")
                continue
            if x == y:  # also covers equal infinities
                continue
            gap = abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf
            worst = max(worst, gap)
            if not gap <= atol:
                problems.append(f"line {line}, {name}: {cell_a} vs {cell_b} (|diff| {gap:.3g})")
    return worst, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    parser.add_argument("--atol", type=float, default=1e-9, help="absolute tolerance for numeric cells")
    args = parser.parse_args(argv)
    names_a = {p.name for p in args.dir_a.glob("*.csv")}
    names_b = {p.name for p in args.dir_b.glob("*.csv")}
    failed = False
    for name in sorted(names_a ^ names_b):
        print(f"{name}: only in {args.dir_a if name in names_a else args.dir_b}")
        failed = True
    if not names_a & names_b:
        print("no CSV files to compare")
        failed = True
    for name in sorted(names_a & names_b):
        worst, problems = compare_file(args.dir_a / name, args.dir_b / name, args.atol)
        print(f"{name}: max |diff| {worst:.3g}" + (f", {len(problems)} mismatches" if problems else ""))
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
