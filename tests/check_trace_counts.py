"""Compare a traced benchmark run's counts with tests/golden/trace_counts_seed1.json.

A traced seed-1 run of a workload repeats its counts exactly, so any
difference in a `*.calls`, `*.terms_out`, `*.cells` or `*.distinct_ratio`
metric means an algorithm changed.  Times are not compared.

    python3 perfbench/run.py --workload W --seed 1 --seconds 0 --trace 1 \\
        | tail -n 1 | python3 tests/check_trace_counts.py W

reads the run's last line (its JSON summary) from stdin and exits 1 on a
difference.  A change that alters an algorithm on purpose rewrites the
workload's entry with `--update`, which prints each moved count as
`<workload>: <name> <old> -> <new>` before it writes, and says so in
CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "trace_counts_seed1.json"
COUNT_SUFFIXES = (".calls", ".terms_out", ".cells", ".distinct_ratio")


def counts(summary: dict) -> dict:
    return {
        name: m["value"]
        for name, m in sorted(summary["metrics"].items())
        if name.endswith(COUNT_SUFFIXES)
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload")
    ap.add_argument("--update", action="store_true", help="rewrite the workload's entry")
    args = ap.parse_args(argv)
    got = counts(json.loads(sys.stdin.read()))
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    want = golden.get(args.workload)
    if args.update:
        for k, old, new in _moves(want or {}, got):
            print(f"{args.workload}: {k} {old} -> {new}")
        golden[args.workload] = got
        GOLDEN.write_text(json.dumps(golden, sort_keys=True, indent=2) + "\n")
        return 0
    if want is None:
        print(f"{args.workload}: no entry in {GOLDEN.name}", file=sys.stderr)
        return 1
    diff = _moves(want, got)
    for k, old, new in diff:
        print(f"{args.workload}: {k} is {new}, golden {old}", file=sys.stderr)
    return 1 if diff else 0


def _moves(want: dict, got: dict) -> list:
    """(name, golden value, run value) of every count that differs."""
    names = sorted(want.keys() | got.keys())
    return [(k, want.get(k), got.get(k)) for k in names if want.get(k) != got.get(k)]


if __name__ == "__main__":
    sys.exit(main())
