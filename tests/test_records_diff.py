"""The per-scheme records.csv comparison script."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "records_diff.py"

HEADER = "scheme,n,trial,test_fn,estimate,sq_error,ksd,iterations,wall_ms,status\n"
ROWS = [
    "uniform,50,0,coordinate_mean,0.5,0.25,0.125,0,,ok\n",
    "uniform,50,1,coordinate_mean,0.75,0.0625,0.1,0,,ok\n",
    "stein,50,0,coordinate_mean,0.25,0.0625,0.01,2000,,ok\n",
]


def run(tmp_path, parent_rows, change_rows):
    parent, change = tmp_path / "parent.csv", tmp_path / "change.csv"
    parent.write_text(HEADER + "".join(parent_rows))
    change.write_text(HEADER + "".join(change_rows))
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), str(change)],
        capture_output=True, text=True, timeout=60,
    )
    table = {line.split()[0]: line.split()[1:] for line in done.stdout.splitlines()[1:]}
    return done.returncode, table


def test_identical_files_move_nothing(tmp_path):
    code, table = run(tmp_path, ROWS, ROWS)
    assert code == 0
    assert table == {
        "stein": ["1", "0", "0", "0", "0", "0"],
        "uniform": ["2", "0", "0", "0", "0", "0"],
    }


def test_moved_ksd_and_status_change(tmp_path):
    change = list(ROWS)
    # The second uniform row's KSD moves by 1e-3 relative; the stein row
    # fails, so its values turn NaN.
    change[1] = "uniform,50,1,coordinate_mean,0.75,0.0625,0.1001,0,,ok\n"
    change[2] = "stein,50,0,coordinate_mean,nan,nan,nan,2000,,failed\n"
    code, table = run(tmp_path, ROWS, change)
    assert code == 0
    rows, moved, status, estimate, sq_error, ksd = table["uniform"]
    assert (rows, moved, status, estimate, sq_error) == ("2", "1", "0", "0", "0")
    assert float(ksd) == 1e-3
    assert table["stein"] == ["1", "1", "1", "inf", "inf", "inf"]


def test_unmatched_rows_fail(tmp_path):
    code, _ = run(tmp_path, ROWS, ROWS[:2])
    assert code == 1
