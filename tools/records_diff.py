"""Compare two records.csv files of the same experiment config, per scheme.

    python tools/records_diff.py PARENT.csv CHANGE.csv

Rows are matched on (scheme, n, trial, test_fn). For each scheme the script
prints how many rows it has, how many moved (any of estimate, sq_error,
ksd, iterations or status differs; wall_ms is ignored), how many changed
status, and the largest relative move of estimate, sq_error and ksd,
|change - parent| / |parent|. NaN equals NaN. Rows present in only one
file are counted and listed; the exit status is 1 if there are any, and 0
otherwise.
"""

from __future__ import annotations

import csv
import math
import sys

KEY = ("scheme", "n", "trial", "test_fn")
VALUES = ("estimate", "sq_error", "ksd")
OTHER = ("iterations", "status")


def read_records(path: str) -> dict[tuple, dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in KEY + VALUES + OTHER if c not in (reader.fieldnames or ())]
        if missing:
            raise SystemExit(f"{path}: missing columns {', '.join(missing)}")
        return {tuple(row[c] for c in KEY): row for row in reader}


def relative_move(parent: str, change: str) -> float:
    a, b = float(parent), float(change)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b) or a == 0.0:
        return math.inf
    return abs(b - a) / abs(a)


def diff(parent: dict[tuple, dict], change: dict[tuple, dict]) -> dict[str, dict]:
    """Per-scheme counts and largest relative moves over the shared rows."""
    table: dict[str, dict] = {}
    for key in sorted(parent.keys() & change.keys()):
        old, new = parent[key], change[key]
        entry = table.setdefault(
            key[0], {"rows": 0, "moved": 0, "status": 0, **{c: 0.0 for c in VALUES}}
        )
        entry["rows"] += 1
        moves = {c: relative_move(old[c], new[c]) for c in VALUES}
        if any(moves.values()) or any(old[c] != new[c] for c in OTHER):
            entry["moved"] += 1
        if old["status"] != new["status"]:
            entry["status"] += 1
        for c in VALUES:
            entry[c] = max(entry[c], moves[c])
    return table


def format_table(table: dict[str, dict]) -> list[str]:
    header = f"{'scheme':<32} {'rows':>5} {'moved':>6} {'status':>7}" + "".join(
        f" {c:>9}" for c in VALUES
    )
    lines = [header]
    for scheme, e in table.items():
        lines.append(
            f"{scheme:<32} {e['rows']:>5} {e['moved']:>6} {e['status']:>7}"
            + "".join(f" {e[c]:>9.2g}" for c in VALUES)
        )
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = (read_records(p) for p in argv)
    for line in format_table(diff(parent, change)):
        print(line)
    unmatched = [("only in parent", k) for k in sorted(parent.keys() - change.keys())]
    unmatched += [("only in change", k) for k in sorted(change.keys() - parent.keys())]
    for side, key in unmatched:
        print(f"{side}: {','.join(key)}")
    return 1 if unmatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
