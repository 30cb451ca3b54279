#!/usr/bin/env python3
"""Regenerate both model-problem efficiency tables and print them side by
side with the reference mesh counts.

Each table is computed once, by the ``bench`` subcommand; the printout is
read back from its CSV and manifest.  Exits with the subcommand's non-zero
code on a trend failure.

Usage: python scripts/reproduce_tables.py [outdir]
"""

import json
import sys
from pathlib import Path

from zndevans.cli import EXIT_OK, EXIT_TREND, main as cli_main, read_bench_csv
from zndevans.modelbench import C_COLUMNS, DIRECTIONS, LAMBDA_ROWS


def print_table(which, rows, failures):
    name = {"factored": "decay factored out", "unfactored": "unfactored"}[rows[0]["variant"]]
    print(f"\n=== table {which} ({name}); cells are ours/reference ===")
    header = "lambda".rjust(12) + "".join(
        f"   fwd c={c:<6g}" for c in C_COLUMNS
    ) + "".join(f"   bwd c={c:<6g}" for c in C_COLUMNS)
    print(header)
    counts = {(r["direction"], r["lam"], r["c"]): (r["mesh_points"], r["paper_count"])
              for r in rows}
    for lam in LAMBDA_ROWS:
        cells = []
        for direction in DIRECTIONS:
            for c in C_COLUMNS:
                ours, ref = counts[direction, complex(lam), c]
                cells.append(f"{ours:5d}/{ref:<5d}")
        print(f"{lam!s:>12} " + " ".join(cells))
    print("trend check:", "ok" if not failures else f"{len(failures)} failures")
    for f in failures:
        print("  -", f)


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("bench_out")
    outdir.mkdir(parents=True, exist_ok=True)
    for which in (1, 2):
        csv = outdir / f"table{which}.csv"
        rc = cli_main(["bench", "--table", str(which), "--out", str(csv)])
        if rc not in (EXIT_OK, EXIT_TREND):
            sys.exit(rc)
        manifest = json.loads(Path(f"{csv}.manifest.json").read_text())
        print_table(which, read_bench_csv(csv), manifest["trend_failures"])
        if rc != EXIT_OK:
            sys.exit(rc)
    print(f"\nCSV written under {outdir}/")


if __name__ == "__main__":
    main()
